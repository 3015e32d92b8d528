package tcp

import (
	"math/rand"
	"testing"
	"time"

	"sprout/internal/link"
	"sprout/internal/network"
	"sprout/internal/sim"
	"sprout/internal/trace"
)

// mapSender is the reference the ring-backed Sender is checked against:
// the same NewReno/RFC 6298 logic with the per-segment state in two plain
// maps. Keep it in step with endpoint.go's Sender except for the tables.
type mapSender struct {
	cfg SenderConfig

	nextSeq, sndUna segnum
	dupAcks         int
	inRecovery      bool
	recoverSeq      segnum
	sentAt          map[segnum]time.Duration
	retransmits     map[segnum]bool

	srtt, rttvar, rto, minRTT time.Duration
	rtoTimer                  sim.Timer
	backoff                   int

	segmentsSent, retxSent, timeouts, fastRecov int64

	// belowUna counts transmissions of segments below sndUna (a cumulative
	// ACK overtook the go-back-N rewind): the case the ring must ignore.
	belowUna int
}

func newMapSender(cfg SenderConfig) *mapSender {
	s := &mapSender{
		cfg:         cfg.withDefaults(),
		sentAt:      make(map[segnum]time.Duration),
		retransmits: make(map[segnum]bool),
		rto:         time.Second,
		minRTT:      time.Hour,
	}
	s.cfg.Clock.After(0, s.trySend)
	return s
}

func (s *mapSender) Stats() (segments, retransmits, timeouts, fastRecoveries int64) {
	return s.segmentsSent, s.retxSent, s.timeouts, s.fastRecov
}

func (s *mapSender) inFlight() int { return int(s.nextSeq - s.sndUna) }

func (s *mapSender) effectiveWindow() float64 {
	w := s.cfg.CC.Window()
	if max := float64(s.cfg.MaxWindow); w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (s *mapSender) trySend() {
	now := s.cfg.Clock.Now()
	for float64(s.inFlight()) < s.effectiveWindow() {
		s.transmit(s.nextSeq, now, s.retransmits[s.nextSeq])
		s.nextSeq++
	}
	s.armRTO()
}

func (s *mapSender) transmit(seq segnum, now time.Duration, isRetx bool) {
	if seq < s.sndUna {
		s.belowUna++
	}
	pkt := dataPacket(s.cfg.Pool, s.cfg.Flow, seq, s.cfg.MSS, now)
	if isRetx {
		s.retransmits[seq] = true
		s.retxSent++
	} else {
		s.sentAt[seq] = now
	}
	s.segmentsSent++
	s.cfg.Conn.Send(pkt)
}

func (s *mapSender) armRTO() {
	if s.inFlight() == 0 {
		s.rtoTimer.Stop()
		return
	}
	d := s.rto << s.backoff
	if d > time.Minute {
		d = time.Minute
	}
	s.rtoTimer = s.cfg.Clock.Reschedule(s.rtoTimer, d, s.onTimeout)
}

func (s *mapSender) onTimeout() {
	if s.inFlight() == 0 {
		return
	}
	s.timeouts++
	s.backoff++
	if s.backoff > 8 {
		s.backoff = 8
	}
	s.inRecovery = false
	s.dupAcks = 0
	s.cfg.CC.OnTimeout()
	for seq := s.sndUna; seq < s.nextSeq; seq++ {
		s.retransmits[seq] = true
	}
	s.nextSeq = s.sndUna
	s.trySend()
}

func (s *mapSender) Receive(pkt *network.Packet) {
	var h wireHeader
	if err := h.unmarshal(pkt.Payload); err != nil || h.kind != kindAck {
		return
	}
	now := s.cfg.Clock.Now()
	ack := h.ack
	switch {
	case ack > s.sndUna:
		acked := int(ack - s.sndUna)
		var rtt time.Duration
		for seq := ack - 1; seq >= s.sndUna; seq-- {
			if s.retransmits[seq] {
				continue
			}
			if t0, ok := s.sentAt[seq]; ok {
				rtt = now - t0
			}
			break
		}
		for seq := s.sndUna; seq < ack; seq++ {
			delete(s.sentAt, seq)
			delete(s.retransmits, seq)
		}
		s.sndUna = ack
		s.dupAcks = 0
		s.backoff = 0
		if rtt > 0 {
			s.updateRTT(rtt)
		}
		if s.inRecovery {
			if ack >= s.recoverSeq {
				s.inRecovery = false
			} else {
				s.transmit(s.sndUna, now, true)
			}
		}
		s.cfg.CC.OnAck(acked, rtt, s.srtt, s.minRTT)
		s.trySend()
	case ack == s.sndUna && s.inFlight() > 0:
		s.dupAcks++
		if s.dupAcks == 3 && !s.inRecovery {
			s.inRecovery = true
			s.recoverSeq = s.nextSeq
			s.fastRecov++
			s.cfg.CC.OnLoss()
			s.transmit(s.sndUna, now, true)
			s.armRTO()
		}
	}
}

func (s *mapSender) updateRTT(rtt time.Duration) {
	if rtt < s.minRTT {
		s.minRTT = rtt
	}
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
	} else {
		d := s.srtt - rtt
		if d < 0 {
			d = -d
		}
		s.rttvar = (3*s.rttvar + d) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < minRTO {
		s.rto = minRTO
	}
}

// mapReceiver is the reference Receiver: out-of-order segments in a map.
type mapReceiver struct {
	flow   uint32
	clock  sim.Clock
	conn   network.Conn
	rcvNxt segnum
	ooo    map[segnum]bool
	segsIn int64
}

func (r *mapReceiver) Receive(pkt *network.Packet) {
	var h wireHeader
	if err := h.unmarshal(pkt.Payload); err != nil || h.kind != kindData {
		return
	}
	r.segsIn++
	switch {
	case h.seq == r.rcvNxt:
		r.rcvNxt++
		for r.ooo[r.rcvNxt] {
			delete(r.ooo, r.rcvNxt)
			r.rcvNxt++
		}
	case h.seq > r.rcvNxt:
		r.ooo[h.seq] = true
	}
	r.conn.Send(ackPacket(nil, r.flow, r.rcvNxt, r.clock.Now()))
}

// lossyPath builds the differential test's path: a steady forward trace
// with two multi-second holes (forced RTOs with a full window outstanding)
// and 2 % random loss in both directions.
func lossyPath(loop *sim.Loop, seed int64, data, acks network.Handler) (fwd, rev *link.Link) {
	full := steadyTrace(300, 65*time.Second, seed)
	holed := &trace.Trace{Name: "holed"}
	for _, at := range full.Opportunities {
		if (at > 15*time.Second && at < 19*time.Second) || (at > 40*time.Second && at < 42*time.Second) {
			continue
		}
		holed.Opportunities = append(holed.Opportunities, at)
	}
	fwd = link.New(loop, link.Config{
		Trace: holed, PropagationDelay: 20 * time.Millisecond,
		LossRate: 0.02, Rand: rand.New(rand.NewSource(seed + 1)),
	}, data)
	rev = link.New(loop, link.Config{
		Trace: steadyTrace(500, 65*time.Second, seed+2), PropagationDelay: 20 * time.Millisecond,
		LossRate: 0.02, Rand: rand.New(rand.NewSource(seed + 3)),
	}, acks)
	return fwd, rev
}

// TestRingTablesMatchMapReference: over a lossy path with forced RTOs the
// ring-backed endpoints and the map-backed reference must be
// indistinguishable — same counters, same delivery logs in both
// directions, packet for packet.
func TestRingTablesMatchMapReference(t *testing.T) {
	type outcome struct {
		stats            [4]int64
		segsIn           int64
		rcvNxt           segnum
		dataLog, ackLog  []link.Delivery
		belowUna         int
		srtt             time.Duration
		inFlightAtTheEnd int
	}
	const runFor = 60 * time.Second
	type newCC func(now func() time.Duration) CongestionControl
	runRing := func(newCC newCC, seed int64) outcome {
		loop := sim.New()
		var snd *Sender
		var rcv *Receiver
		fwd, rev := lossyPath(loop, seed,
			func(p *network.Packet) { rcv.Receive(p) }, func(p *network.Packet) { snd.Receive(p) })
		dataLog, ackLog := keepDeliveries(fwd), keepDeliveries(rev)
		rcv = NewReceiver(1, loop, rev, nil)
		snd = NewSender(SenderConfig{Flow: 1, Clock: loop, Conn: fwd, CC: newCC(loop.Now), MaxWindow: 300})
		loop.Run(runFor)
		var o outcome
		o.stats[0], o.stats[1], o.stats[2], o.stats[3] = snd.Stats()
		o.segsIn, o.rcvNxt = rcv.Segments(), rcv.NextExpected()
		o.dataLog, o.ackLog = *dataLog, *ackLog
		o.srtt, o.inFlightAtTheEnd = snd.SRTT(), snd.InFlight()
		return o
	}
	runMap := func(newCC newCC, seed int64) outcome {
		loop := sim.New()
		var snd *mapSender
		rcv := &mapReceiver{flow: 1, clock: loop, ooo: map[segnum]bool{}}
		fwd, rev := lossyPath(loop, seed,
			func(p *network.Packet) { rcv.Receive(p) }, func(p *network.Packet) { snd.Receive(p) })
		dataLog, ackLog := keepDeliveries(fwd), keepDeliveries(rev)
		rcv.conn = rev
		snd = newMapSender(SenderConfig{Flow: 1, Clock: loop, Conn: fwd, CC: newCC(loop.Now), MaxWindow: 300})
		loop.Run(runFor)
		var o outcome
		o.stats[0], o.stats[1], o.stats[2], o.stats[3] = snd.Stats()
		o.segsIn, o.rcvNxt = rcv.segsIn, rcv.rcvNxt
		o.dataLog, o.ackLog = *dataLog, *ackLog
		o.srtt, o.inFlightAtTheEnd = snd.srtt, snd.inFlight()
		o.belowUna = snd.belowUna
		return o
	}
	sameLog := func(a, b []link.Delivery) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, c := range []struct {
		name string
		new  newCC
	}{
		{"cubic", func(now func() time.Duration) CongestionControl { return NewCubic(now) }},
		{"vegas", func(func() time.Duration) CongestionControl { return NewVegas() }},
		{"reno", func(func() time.Duration) CongestionControl { return NewRenoCC() }},
	} {
		cc := c.name
		belowUna := 0
		for seed := int64(1); seed <= 3; seed++ {
			got, want := runRing(c.new, seed), runMap(c.new, seed)
			belowUna += want.belowUna
			if want.stats[2] < 2 || want.stats[3] == 0 {
				t.Errorf("%s seed %d: %d timeouts, %d fast recoveries; the path should force both",
					cc, seed, want.stats[2], want.stats[3])
			}
			if got.stats != want.stats || got.segsIn != want.segsIn || got.rcvNxt != want.rcvNxt ||
				got.srtt != want.srtt || got.inFlightAtTheEnd != want.inFlightAtTheEnd {
				t.Errorf("%s seed %d: ring endpoints diverged from the map reference:\nring %+v segsIn %d rcvNxt %d srtt %v inflight %d\nmap  %+v segsIn %d rcvNxt %d srtt %v inflight %d",
					cc, seed, got.stats, got.segsIn, got.rcvNxt, got.srtt, got.inFlightAtTheEnd,
					want.stats, want.segsIn, want.rcvNxt, want.srtt, want.inFlightAtTheEnd)
			}
			if !sameLog(got.dataLog, want.dataLog) {
				t.Errorf("%s seed %d: data delivery logs differ (%d vs %d deliveries)", cc, seed, len(got.dataLog), len(want.dataLog))
			}
			if !sameLog(got.ackLog, want.ackLog) {
				t.Errorf("%s seed %d: ACK delivery logs differ (%d vs %d deliveries)", cc, seed, len(got.ackLog), len(want.ackLog))
			}
		}
		t.Logf("%s: %d transmissions below sndUna across seeds", cc, belowUna)
	}
}

// TestSeqRingMatchesMap drives a seqRing and a map with the same random
// window operations (set ahead of base, read anywhere, advance base
// clearing what it passes) and expects the same answers throughout.
func TestSeqRingMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ring seqRing[int]
	ref := map[segnum]int{}
	var base segnum = 1 << 40 // far from zero: index arithmetic must not care
	for step := 0; step < 200_000; step++ {
		switch rng.Intn(4) {
		case 0, 1: // set within a window that sometimes outgrows the ring
			seq := base + segnum(rng.Intn(40+step/500))
			v := rng.Int() | 1
			*ring.at(base, seq) = v
			ref[seq] = v
		case 2: // read around the window, including below base and far ahead
			seq := base - 50 + segnum(rng.Intn(2000))
			if got, want := ring.get(base, seq), ref[seq]; got != want {
				t.Fatalf("step %d: get(%d, %d) = %d, map has %d", step, base, seq, got, want)
			}
		case 3: // advance, occasionally far past everything set
			adv := segnum(rng.Intn(30))
			if rng.Intn(50) == 0 {
				adv = segnum(rng.Intn(5000))
			}
			ring.clearRange(base, base+adv)
			for seq := base; seq < base+adv; seq++ {
				delete(ref, seq)
			}
			base += adv
		}
	}
	if ring.at(base, base-1) != nil {
		t.Error("at() below base should refuse the write")
	}
	if n := len(ring.buf); n&(n-1) != 0 || n == 0 {
		t.Errorf("ring size %d is not a power of two", n)
	}
}

// TestResetKeepsRingStorage: Reset leaves both endpoints' tables empty and
// their storage in place, so a reused world's TCP flows allocate nothing.
func TestResetKeepsRingStorage(t *testing.T) {
	sess := newTCPSession(NewCubic(func() time.Duration { return 0 }), steadyTrace(300, 12*time.Second, 5),
		func(c *link.Config) { c.LossRate, c.Rand = 0.02, rand.New(rand.NewSource(1)) })
	sess.loop.Run(10 * time.Second)
	sndCap, rcvCap := len(sess.snd.segs.buf), len(sess.rcv.ooo.buf)
	if sndCap == 0 || rcvCap == 0 {
		t.Fatalf("tables never grew (sender %d, receiver %d); the run should have used both", sndCap, rcvCap)
	}
	sess.loop.Reset()
	sess.rcv.Reset(1, sess.loop, sess.rev, nil)
	sess.snd.Reset(SenderConfig{Flow: 1, Clock: sess.loop, Conn: sess.fwd, CC: NewRenoCC()})
	if len(sess.snd.segs.buf) != sndCap || len(sess.rcv.ooo.buf) != rcvCap {
		t.Errorf("Reset resized the tables: sender %d -> %d, receiver %d -> %d",
			sndCap, len(sess.snd.segs.buf), rcvCap, len(sess.rcv.ooo.buf))
	}
	for i, st := range sess.snd.segs.buf {
		if st != (segState{}) {
			t.Fatalf("sender table slot %d survived Reset: %+v", i, st)
		}
	}
	for i, held := range sess.rcv.ooo.buf {
		if held {
			t.Fatalf("receiver table slot %d survived Reset", i)
		}
	}
}
