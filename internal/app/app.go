// Package app models the 2012-era commercial videoconferencing
// applications the paper evaluates — Skype, Google Hangout and Apple
// Facetime — as behavioural rate controllers.
//
// The binaries themselves are proprietary and unavailable; what the paper
// establishes about them (§5.2) is behavioural: they send at a chosen
// encode rate, adapt reactively on a receiver-report timescale of seconds,
// are slow to decrease when the link deteriorates (causing the standing
// queues of Figure 1), ramp cautiously after decreases, and respect
// app-specific rate floors and ceilings. This package reproduces exactly
// those documented dynamics:
//
//   - the sender paces MTU-sized packets at the current encode rate;
//   - the receiver sends periodic reports carrying loss and relative
//     one-way delay (what RTCP receiver reports convey);
//   - the sender reduces its rate multiplicatively only after several
//     consecutive congested reports (the multi-second reaction lag the
//     paper observed), and otherwise probes upward by a few percent per
//     report, up to the application's ceiling.
//
// Per-application ceilings follow the paper's observations (footnote 8:
// Skype uses up to 5 Mb/s; Facetime and Hangout are lower).
package app

import (
	"encoding/binary"
	"time"

	"sprout/internal/network"
	"sprout/internal/sim"
)

// Profile captures one application's rate-control personality.
type Profile struct {
	Name string
	// Rates in bits per second.
	MinRate, MaxRate, StartRate float64
	// Decrease is the multiplicative backoff applied after a congestion
	// verdict (e.g. 0.7).
	Decrease float64
	// Increase is the multiplicative probe applied after a clean report
	// (e.g. 1.08).
	Increase float64
	// LagReports is how many consecutive congested reports are needed
	// before the application actually decreases — the reaction sluggishness
	// the paper blames for multi-second queues.
	LagReports int
	// DelayThreshold is the relative one-way delay above which a report
	// is congested.
	DelayThreshold time.Duration
	// LossThreshold is the report loss fraction above which a report is
	// congested.
	LossThreshold float64
	// PacketSize is the media packet wire size.
	PacketSize int
}

// reportInterval is every application's receiver-report cadence.
const reportInterval = 500 * time.Millisecond

// Skype returns the Skype-like profile: the highest ceiling of the three
// (the paper measured Skype around 1-1.5 Mb/s on LTE paths even though it
// can burst to 5 Mb/s on wired ones), moderate reaction lag, slow probing.
func Skype() Profile {
	return Profile{
		Name:    "Skype",
		MinRate: 64_000, MaxRate: 2_000_000, StartRate: 500_000,
		Decrease: 0.7, Increase: 1.05, LagReports: 4,
		DelayThreshold: 400 * time.Millisecond, LossThreshold: 0.02,
		PacketSize: network.MTU,
	}
}

// Hangout returns the Google Hangout-like profile: lower ceiling, the
// slowest to react of the three (the paper measures it at the lowest
// throughput and delays comparable to Skype).
func Hangout() Profile {
	return Profile{
		Name:    "Hangout",
		MinRate: 48_000, MaxRate: 1_000_000, StartRate: 300_000,
		Decrease: 0.75, Increase: 1.04, LagReports: 5,
		DelayThreshold: 500 * time.Millisecond, LossThreshold: 0.03,
		PacketSize: network.MTU,
	}
}

// Facetime returns the Apple Facetime-like profile: conservative ceiling
// (~1 Mb/s cellular encode in 2012), quicker decrease.
func Facetime() Profile {
	return Profile{
		Name:    "Facetime",
		MinRate: 64_000, MaxRate: 900_000, StartRate: 400_000,
		Decrease: 0.7, Increase: 1.08, LagReports: 3,
		DelayThreshold: 300 * time.Millisecond, LossThreshold: 0.02,
		PacketSize: network.MTU,
	}
}

// Wire format of media packets and receiver reports.
const (
	kindMedia  = 1
	kindReport = 2

	mediaHeaderSize = 9  // kind + seq
	reportSize      = 25 // kind + maxSeq + received + relDelayUS
)

func appendMedia(dst []byte, seq int64) []byte {
	var buf [mediaHeaderSize]byte
	buf[0] = kindMedia
	binary.BigEndian.PutUint64(buf[1:], uint64(seq))
	return append(dst, buf[:]...)
}

type report struct {
	maxSeq   int64  // highest media sequence seen
	received uint64 // media packets received so far
	relDelay time.Duration
}

func (r report) appendTo(dst []byte) []byte {
	var buf [reportSize]byte
	buf[0] = kindReport
	binary.BigEndian.PutUint64(buf[1:], uint64(r.maxSeq))
	binary.BigEndian.PutUint64(buf[9:], r.received)
	binary.BigEndian.PutUint64(buf[17:], uint64(r.relDelay))
	return append(dst, buf[:]...)
}

func parseReport(b []byte) (report, bool) {
	if len(b) < reportSize || b[0] != kindReport {
		return report{}, false
	}
	return report{
		maxSeq:   int64(binary.BigEndian.Uint64(b[1:])),
		received: binary.BigEndian.Uint64(b[9:]),
		relDelay: time.Duration(binary.BigEndian.Uint64(b[17:])),
	}, true
}

// Sender is the application's media sender: a paced constant-bit-rate
// stream whose rate adapts on receiver reports.
type Sender struct {
	profile Profile
	clock   sim.Clock
	conn    network.Conn
	flow    uint32
	pool    *network.Pool

	rate    float64 // current encode rate, bits/s
	nextSeq int64

	paceTimer sim.Timer
	emitFn    func() // built once so pacing does not allocate per packet

	congestedStreak int
	lastMaxSeq      int64
	lastReceived    uint64

	rateChanges int64
	decreases   int64
}

// NewSender starts a media sender with the given profile.
func NewSender(flow uint32, profile Profile, clock sim.Clock, conn network.Conn) *Sender {
	s := &Sender{}
	s.emitFn = s.emit
	s.Reset(flow, profile, clock, conn)
	return s
}

// UsePool directs the sender's media packets to the given arena (world
// reuse); nil reverts to heap allocation.
func (s *Sender) UsePool(p *network.Pool) { s.pool = p }

// Reset restores the sender to its freshly constructed state for a new
// run. Must be called at a world boundary (clock reset); the first pacing
// event is scheduled exactly as NewSender schedules it.
func (s *Sender) Reset(flow uint32, profile Profile, clock sim.Clock, conn network.Conn) {
	if clock == nil || conn == nil {
		panic("app: Sender requires clock and conn")
	}
	s.profile, s.clock, s.conn, s.flow = profile, clock, conn, flow
	s.rate = profile.StartRate
	s.nextSeq = 0
	s.paceTimer.Stop() // no-op after a clock reset (stale handle)
	s.paceTimer = sim.Timer{}
	s.congestedStreak = 0
	s.lastMaxSeq, s.lastReceived = 0, 0
	s.rateChanges, s.decreases = 0, 0
	s.scheduleNext()
}

// Decreases returns how many times the rate was cut.
func (s *Sender) Decreases() int64 { return s.decreases }

func (s *Sender) scheduleNext() {
	gap := time.Duration(float64(s.profile.PacketSize*8) / s.rate * float64(time.Second))
	s.paceTimer = s.clock.Reschedule(s.paceTimer, gap, s.emitFn)
}

func (s *Sender) emit() {
	now := s.clock.Now()
	pkt := s.pool.Get()
	pkt.Flow = s.flow
	pkt.Seq = s.nextSeq
	pkt.Size = s.profile.PacketSize
	pkt.Payload = appendMedia(pkt.Payload[:0], s.nextSeq)
	pkt.SentAt = now
	s.nextSeq++
	s.conn.Send(pkt)
	s.scheduleNext()
}

// Receive processes receiver reports arriving on the reverse path.
func (s *Sender) Receive(pkt *network.Packet) {
	rep, ok := parseReport(pkt.Payload)
	if !ok {
		return
	}
	// Loss fraction over the reporting window.
	expected := rep.maxSeq - s.lastMaxSeq
	got := int64(rep.received) - int64(s.lastReceived)
	s.lastMaxSeq = rep.maxSeq
	s.lastReceived = rep.received
	var lossFrac float64
	if expected > 0 {
		lost := expected - got
		if lost < 0 {
			lost = 0
		}
		lossFrac = float64(lost) / float64(expected)
	}
	congested := lossFrac > s.profile.LossThreshold || rep.relDelay > s.profile.DelayThreshold
	if congested {
		s.congestedStreak++
		if s.congestedStreak >= s.profile.LagReports {
			s.congestedStreak = 0
			s.rate *= s.profile.Decrease
			if s.rate < s.profile.MinRate {
				s.rate = s.profile.MinRate
			}
			s.decreases++
			s.rateChanges++
		}
		return
	}
	s.congestedStreak = 0
	s.rate *= s.profile.Increase
	if s.rate > s.profile.MaxRate {
		s.rate = s.profile.MaxRate
	}
	s.rateChanges++
}

// Receiver consumes media packets and sends periodic receiver reports.
type Receiver struct {
	profile Profile
	clock   sim.Clock
	conn    network.Conn
	flow    uint32
	pool    *network.Pool

	maxSeq    int64
	received  uint64
	minDelay  time.Duration
	maxRelDly time.Duration // within current report window
	havePkt   bool

	reportTimer sim.Timer
	reportFn    func() // built once so the report cadence does not allocate

	reports int64
}

// NewReceiver starts the media receiver; conn carries reports back.
func NewReceiver(flow uint32, profile Profile, clock sim.Clock, conn network.Conn) *Receiver {
	r := &Receiver{}
	r.reportFn = r.report
	r.Reset(flow, profile, clock, conn)
	return r
}

// UsePool directs the receiver's report packets to the given arena (world
// reuse); nil reverts to heap allocation.
func (r *Receiver) UsePool(p *network.Pool) { r.pool = p }

// Reset restores the receiver to its freshly constructed state for a new
// run. Must be called at a world boundary (clock reset); the report timer
// is re-armed exactly as NewReceiver arms it.
func (r *Receiver) Reset(flow uint32, profile Profile, clock sim.Clock, conn network.Conn) {
	if clock == nil || conn == nil {
		panic("app: Receiver requires clock and conn")
	}
	r.profile, r.clock, r.conn, r.flow = profile, clock, conn, flow
	r.maxSeq = -1
	r.received = 0
	r.minDelay = time.Hour
	r.maxRelDly = 0
	r.havePkt = false
	r.reports = 0
	r.reportTimer.Stop() // no-op after a clock reset (stale handle)
	r.reportTimer = clock.After(reportInterval, r.reportFn)
}

// Receive processes arriving media packets.
func (r *Receiver) Receive(pkt *network.Packet) {
	if len(pkt.Payload) < mediaHeaderSize || pkt.Payload[0] != kindMedia {
		return
	}
	seq := int64(binary.BigEndian.Uint64(pkt.Payload[1:]))
	if seq > r.maxSeq {
		r.maxSeq = seq
	}
	r.received++
	r.havePkt = true
	// Relative one-way delay: transit time minus the smallest transit
	// time seen (what RTCP-style jitter/delay estimation yields without
	// synchronized clocks).
	delay := r.clock.Now() - pkt.SentAt
	if delay < r.minDelay {
		r.minDelay = delay
	}
	if rel := delay - r.minDelay; rel > r.maxRelDly {
		r.maxRelDly = rel
	}
}

func (r *Receiver) report() {
	r.reportTimer = r.clock.Reschedule(r.reportTimer, reportInterval, r.reportFn)
	if !r.havePkt {
		return
	}
	rep := report{maxSeq: r.maxSeq, received: r.received, relDelay: r.maxRelDly}
	r.maxRelDly = 0
	r.reports++
	pkt := r.pool.Get()
	pkt.Flow = r.flow
	pkt.Seq = int64(r.reports)
	pkt.Size = 100 // RTCP-ish report weight
	pkt.Payload = rep.appendTo(pkt.Payload[:0])
	pkt.SentAt = r.clock.Now()
	r.conn.Send(pkt)
}
