package tcp

import (
	"time"

	"sprout/internal/network"
	"sprout/internal/sim"
)

// SenderConfig parameterizes a bulk TCP sender.
type SenderConfig struct {
	Flow  uint32
	Clock sim.Clock
	Conn  network.Conn
	// CC is the congestion-control policy. Required.
	CC CongestionControl
	// MSS is the on-wire segment size; zero means network.MTU.
	MSS int
	// MaxWindow bounds the effective window in segments, modeling the
	// kernel's receive-buffer autotuning limit (Linux ~4 MB by default,
	// i.e. ~2800 MTU segments). Zero means 2800.
	MaxWindow int
	// Pool, if non-nil, is the packet arena segments draw from (world
	// reuse); nil allocates from the heap.
	Pool *network.Pool
}

// minRTO is the retransmission-timer floor, the Linux default.
const minRTO = 200 * time.Millisecond

func (c SenderConfig) withDefaults() SenderConfig {
	if c.MSS == 0 {
		c.MSS = network.MTU
	}
	if c.MaxWindow == 0 {
		c.MaxWindow = 2800
	}
	return c
}

// Sender is a bulk-transfer TCP sender: an unlimited backlog pushed through
// the congestion window with NewReno loss recovery and RFC 6298 timers.
type Sender struct {
	cfg SenderConfig

	nextSeq segnum // next new segment to transmit
	sndUna  segnum // oldest unacknowledged segment
	dupAcks int

	inRecovery bool
	recoverSeq segnum // nextSeq at the time recovery began
	// segs holds per-segment state for the outstanding window, based at
	// sndUna: the first-transmission time (for RTT samples) and whether
	// the segment was ever retransmitted (Karn's algorithm).
	segs seqRing[segState]

	// RFC 6298 state.
	srtt, rttvar time.Duration
	rto          time.Duration
	minRTT       time.Duration
	rtoTimer     sim.Timer
	timeoutFn    func() // built once so re-arming the RTO does not allocate
	startFn      func() // built once so Reset's kickoff does not allocate
	backoff      int

	// Counters.
	segmentsSent int64
	retxSent     int64
	timeouts     int64
	fastRecov    int64
}

// segState is one outstanding segment's entry in Sender.segs.
type segState struct {
	sentAt time.Duration // valid when sent
	sent   bool          // transmitted as new data (not only as a retransmission)
	retx   bool          // retransmitted, or presumed lost by a timeout
}

// NewSender creates the sender and begins transmitting immediately.
func NewSender(cfg SenderConfig) *Sender {
	s := &Sender{}
	s.timeoutFn = s.onTimeout
	s.startFn = s.trySend
	s.Reset(cfg)
	return s
}

// Reset restores the sender to its freshly constructed state under a new
// configuration (typically with a fresh CC instance), retaining its
// segment table.
// Must be called at a world boundary — clock reset, produced packets
// unreferenced; the initial transmit event is scheduled exactly as
// NewSender schedules it.
func (s *Sender) Reset(cfg SenderConfig) {
	cfg = cfg.withDefaults()
	if cfg.Clock == nil || cfg.Conn == nil || cfg.CC == nil {
		panic("tcp: SenderConfig requires Clock, Conn and CC")
	}
	s.cfg = cfg
	s.nextSeq, s.sndUna = 0, 0
	s.dupAcks = 0
	s.inRecovery = false
	s.recoverSeq = 0
	s.segs.reset()
	s.srtt, s.rttvar = 0, 0
	s.rto = time.Second // RFC 6298 initial RTO
	s.minRTT = time.Hour
	s.rtoTimer.Stop() // no-op after a clock reset (stale handle)
	s.rtoTimer = sim.Timer{}
	s.backoff = 0
	s.segmentsSent, s.retxSent, s.timeouts, s.fastRecov = 0, 0, 0, 0
	s.cfg.Clock.After(0, s.startFn)
}

// Stats returns transmission counters.
func (s *Sender) Stats() (segments, retransmits, timeouts, fastRecoveries int64) {
	return s.segmentsSent, s.retxSent, s.timeouts, s.fastRecov
}

// InFlight returns the number of unacknowledged segments.
func (s *Sender) InFlight() int { return int(s.nextSeq - s.sndUna) }

// SRTT returns the smoothed RTT estimate.
func (s *Sender) SRTT() time.Duration { return s.srtt }

// effectiveWindow caps the congestion window by the receive-buffer model.
func (s *Sender) effectiveWindow() float64 {
	w := s.cfg.CC.Window()
	if max := float64(s.cfg.MaxWindow); w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// trySend transmits segments while the window has room. After a timeout
// rewind, segments below the previous high-water mark are retransmissions
// (Karn's algorithm excludes them from RTT sampling).
func (s *Sender) trySend() {
	now := s.cfg.Clock.Now()
	for float64(s.InFlight()) < s.effectiveWindow() {
		s.transmit(s.nextSeq, now, s.segs.get(s.sndUna, s.nextSeq).retx)
		s.nextSeq++
	}
	s.armRTO()
}

func (s *Sender) transmit(seq segnum, now time.Duration, isRetx bool) {
	pkt := dataPacket(s.cfg.Pool, s.cfg.Flow, seq, s.cfg.MSS, now)
	// After a timeout rewind a cumulative ACK can carry sndUna past
	// nextSeq; segments resent from below sndUna have no table entry.
	st := s.segs.at(s.sndUna, seq)
	if isRetx {
		if st != nil {
			st.retx = true
		}
		s.retxSent++
	} else if st != nil {
		st.sentAt, st.sent = now, true
	}
	s.segmentsSent++
	s.cfg.Conn.Send(pkt)
}

func (s *Sender) armRTO() {
	if s.InFlight() == 0 {
		s.rtoTimer.Stop()
		return
	}
	d := s.rto << s.backoff
	if d > time.Minute {
		d = time.Minute
	}
	s.rtoTimer = s.cfg.Clock.Reschedule(s.rtoTimer, d, s.timeoutFn)
}

func (s *Sender) onTimeout() {
	if s.InFlight() == 0 {
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
	// Go-back-N: everything outstanding is presumed lost; rewind and
	// let slow start resend from the cumulative ACK point. Cumulative
	// ACKs fast-forward over segments the receiver already holds.
	for seq := s.sndUna; seq < s.nextSeq; seq++ {
		s.segs.at(s.sndUna, seq).retx = true
	}
	s.nextSeq = s.sndUna
	s.trySend()
}

// Receive processes an arriving ACK. Attach as the reverse link's handler.
func (s *Sender) Receive(pkt *network.Packet) {
	var h wireHeader
	if err := h.unmarshal(pkt.Payload); err != nil || h.kind != kindAck {
		return
	}
	now := s.cfg.Clock.Now()
	ack := h.ack
	switch {
	case ack > s.sndUna:
		acked := int(ack - s.sndUna)
		// RTT sample from the newest cumulatively ACKed segment that
		// was not retransmitted (Karn's algorithm).
		var rtt time.Duration
		for seq := ack - 1; seq >= s.sndUna; seq-- {
			st := s.segs.get(s.sndUna, seq)
			if st.retx {
				continue
			}
			if st.sent {
				rtt = now - st.sentAt
			}
			break
		}
		s.segs.clearRange(s.sndUna, ack)
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
				// NewReno partial ACK: the next hole is lost too.
				s.transmit(s.sndUna, now, true)
			}
		}
		s.cfg.CC.OnAck(acked, rtt, s.srtt, s.minRTT)
		s.trySend()
	case ack == s.sndUna && s.InFlight() > 0:
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

func (s *Sender) updateRTT(rtt time.Duration) {
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
	s.rto = max(s.srtt+4*s.rttvar, minRTO)
}

// Receiver is the TCP receiving endpoint: cumulative ACKs with duplicate-ACK
// generation for out-of-order arrivals.
type Receiver struct {
	flow    uint32
	clock   sim.Clock
	conn    network.Conn
	pool    *network.Pool
	rcvNxt  segnum
	ooo     seqRing[bool] // segments held above rcvNxt, based at rcvNxt
	acks    int64
	segsIn  int64
	dupsIn  int64
	highest segnum
}

// NewReceiver creates a TCP receiver; conn carries ACKs back to the
// sender, drawn from pool (nil: the heap).
func NewReceiver(flow uint32, clock sim.Clock, conn network.Conn, pool *network.Pool) *Receiver {
	r := &Receiver{}
	r.Reset(flow, clock, conn, pool)
	return r
}

// Reset restores the receiver to its freshly constructed state for a new
// run, retaining its reorder table. Must be called at a world boundary.
func (r *Receiver) Reset(flow uint32, clock sim.Clock, conn network.Conn, pool *network.Pool) {
	if clock == nil || conn == nil {
		panic("tcp: Receiver requires clock and conn")
	}
	r.flow, r.clock, r.conn, r.pool = flow, clock, conn, pool
	r.rcvNxt = 0
	r.ooo.reset()
	r.acks, r.segsIn, r.dupsIn = 0, 0, 0
	r.highest = 0
}

// Segments returns the count of data segments received (including
// duplicates).
func (r *Receiver) Segments() int64 { return r.segsIn }

// NextExpected returns the cumulative in-order high-water mark.
func (r *Receiver) NextExpected() int64 { return r.rcvNxt }

// Receive processes an arriving data segment and emits an ACK. Attach as
// the forward link's delivery handler.
func (r *Receiver) Receive(pkt *network.Packet) {
	var h wireHeader
	if err := h.unmarshal(pkt.Payload); err != nil || h.kind != kindData {
		return
	}
	r.segsIn++
	switch {
	case h.seq == r.rcvNxt:
		r.rcvNxt++
		for r.ooo.get(r.rcvNxt, r.rcvNxt) {
			*r.ooo.at(r.rcvNxt, r.rcvNxt) = false
			r.rcvNxt++
		}
	case h.seq > r.rcvNxt:
		*r.ooo.at(r.rcvNxt, h.seq) = true
	default:
		r.dupsIn++
	}
	r.acks++
	r.conn.Send(ackPacket(r.pool, r.flow, r.rcvNxt, r.clock.Now()))
}
