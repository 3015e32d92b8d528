// Package saturator implements the paper's measurement tool (§4.1): it
// characterizes a cellular link by keeping its queue permanently backlogged
// and recording the instants at which MTU-sized packets actually cross —
// the ground-truth delivery opportunities that become a Cellsim trace.
//
// The sender keeps a window of N packets in flight and adjusts N to hold
// the observed RTT above 750 ms (so the link never starves for offered
// load) but below 3000 ms (so the carrier doesn't start throttling or
// dropping). The receiver timestamps arrivals; the sorted arrival times
// are the trace.
//
// In the paper this runs over a real carrier with a second "feedback
// phone"; here the same logic runs over any Conn/Clock pair — the emulated
// link in tests, or real UDP via cmd/saturator.
package saturator

import (
	"encoding/binary"
	"time"

	"sprout/internal/network"
	"sprout/internal/sim"
	"sprout/internal/trace"
)

// RTT bounds from §4.1.
const (
	// MinRTT is the backlog proof: if packets see more than this much
	// queueing, the link is not starving for offered load.
	MinRTT = 750 * time.Millisecond
	// MaxRTT avoids carrier throttling.
	MaxRTT = 3000 * time.Millisecond
)

// initialWindow is the starting packets-in-flight target.
const initialWindow = 10

// wire format: kind(1) + seq(8) + echoSeq(8).
const (
	kindProbe = 1
	kindEcho  = 2
	headerLen = 17
)

func appendMarshal(dst []byte, kind byte, seq, echo int64) []byte {
	var buf [headerLen]byte
	buf[0] = kind
	binary.BigEndian.PutUint64(buf[1:], uint64(seq))
	binary.BigEndian.PutUint64(buf[9:], uint64(echo))
	return append(dst, buf[:]...)
}

func unmarshal(b []byte) (kind byte, seq, echo int64, ok bool) {
	if len(b) < headerLen {
		return 0, 0, 0, false
	}
	return b[0], int64(binary.BigEndian.Uint64(b[1:])), int64(binary.BigEndian.Uint64(b[9:])), true
}

// Sender saturates the link under test. It sends MTU probes on the data
// path and adjusts its window from echo feedback (which, as in the paper,
// should travel a separate low-delay path).
type Sender struct {
	clock sim.Clock
	conn  network.Conn
	flow  uint32

	window   int // packets in flight target
	inFlight int
	nextSeq  int64
	sentAt   map[int64]time.Duration

	pumpTimer  sim.Timer
	pumpFn     func() // built once so the refill timers do not allocate
	pumpOnceFn func()

	rttEWMA time.Duration

	sent, echoes int64
}

// SenderConfig configures a saturator sender.
type SenderConfig struct {
	Clock sim.Clock
	Conn  network.Conn
	Flow  uint32
}

// NewSender starts saturating immediately.
func NewSender(cfg SenderConfig) *Sender {
	if cfg.Clock == nil || cfg.Conn == nil {
		panic("saturator: SenderConfig requires Clock and Conn")
	}
	s := &Sender{
		clock:  cfg.Clock,
		conn:   cfg.Conn,
		flow:   cfg.Flow,
		window: initialWindow,
		sentAt: make(map[int64]time.Duration),
	}
	s.pumpFn = s.pump
	s.pumpOnceFn = s.pumpOnce
	s.clock.After(0, s.pumpFn)
	return s
}

// probe builds one MTU probe packet.
func (s *Sender) probe(now time.Duration) *network.Packet {
	return &network.Packet{
		Flow:    s.flow,
		Seq:     s.nextSeq,
		Size:    network.MTU,
		Payload: appendMarshal(nil, kindProbe, s.nextSeq, 0),
		SentAt:  now,
	}
}

// Window returns the current packets-in-flight target.
func (s *Sender) Window() int { return s.window }

// RTT returns the smoothed observed round-trip time.
func (s *Sender) RTT() time.Duration { return s.rttEWMA }

// Stats returns probe and echo counts.
func (s *Sender) Stats() (sent, echoes int64) { return s.sent, s.echoes }

// pump tops the window up; it reschedules itself so the saturator recovers
// even if every in-flight packet is lost.
func (s *Sender) pump() {
	s.pumpTimer = s.clock.Reschedule(s.pumpTimer, 100*time.Millisecond, s.pumpFn)
	now := s.clock.Now()
	for s.inFlight < s.window {
		pkt := s.probe(now)
		s.sentAt[s.nextSeq] = now
		s.nextSeq++
		s.inFlight++
		s.sent++
		s.conn.Send(pkt)
	}
	// Drop RTT samples for packets that will never return (lost): age
	// out anything beyond 2x MaxRTT so inFlight cannot leak upward.
	for seq, at := range s.sentAt {
		if now-at > 2*MaxRTT {
			delete(s.sentAt, seq)
			s.inFlight--
		}
	}
}

// Receive processes echoes from the receiver (attach to the feedback
// path's delivery handler).
func (s *Sender) Receive(pkt *network.Packet) {
	kind, _, echo, ok := unmarshal(pkt.Payload)
	if !ok || kind != kindEcho {
		return
	}
	at, known := s.sentAt[echo]
	if !known {
		return
	}
	delete(s.sentAt, echo)
	s.inFlight--
	s.echoes++
	rtt := s.clock.Now() - at
	if s.rttEWMA == 0 {
		s.rttEWMA = rtt
	} else {
		s.rttEWMA = (7*s.rttEWMA + rtt) / 8
	}
	// §4.1 control law: keep the observed RTT inside [750 ms, 3000 ms]
	// by walking the window.
	switch {
	case s.rttEWMA < MinRTT:
		s.window++
	case s.rttEWMA > MaxRTT && s.window > 2:
		s.window--
	}
	s.clock.After(0, s.pumpOnceFn)
}

// pumpOnce tops up without rescheduling (echo-clocked refill).
func (s *Sender) pumpOnce() {
	now := s.clock.Now()
	for s.inFlight < s.window {
		pkt := s.probe(now)
		s.sentAt[s.nextSeq] = now
		s.nextSeq++
		s.inFlight++
		s.sent++
		s.conn.Send(pkt)
	}
}

// Receiver records probe arrival times — the ground truth of when the link
// chose to deliver — and echoes each probe on the feedback path.
type Receiver struct {
	clock sim.Clock
	conn  network.Conn
	flow  uint32

	arrivals []time.Duration
	received int64
}

// NewReceiver creates the recording endpoint; conn carries echoes back
// (ideally over a separate, unloaded path, like the paper's feedback
// phone).
func NewReceiver(flow uint32, clock sim.Clock, conn network.Conn) *Receiver {
	if clock == nil || conn == nil {
		panic("saturator: Receiver requires clock and conn")
	}
	return &Receiver{clock: clock, conn: conn, flow: flow}
}

// Received returns the number of probes recorded.
func (r *Receiver) Received() int64 { return r.received }

// Receive processes one arriving probe.
func (r *Receiver) Receive(pkt *network.Packet) {
	kind, seq, _, ok := unmarshal(pkt.Payload)
	if !ok || kind != kindProbe {
		return
	}
	r.received++
	r.arrivals = append(r.arrivals, r.clock.Now())
	r.conn.Send(&network.Packet{
		Flow:    r.flow,
		Seq:     seq,
		Size:    100, // small feedback packet
		Payload: appendMarshal(nil, kindEcho, 0, seq),
		SentAt:  r.clock.Now(),
	})
}

// Trace exports the recorded arrivals as a Cellsim trace, rebased to start
// at zero.
func (r *Receiver) Trace(name string) *trace.Trace {
	t := &trace.Trace{Name: name}
	if len(r.arrivals) == 0 {
		return t
	}
	base := r.arrivals[0]
	t.Opportunities = make([]time.Duration, len(r.arrivals))
	for i, a := range r.arrivals {
		t.Opportunities[i] = a - base
	}
	return t
}
