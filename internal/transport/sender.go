package transport

import (
	"time"

	"sprout/internal/network"
	"sprout/internal/protocol"
	"sprout/internal/sim"
)

// SenderConfig parameterizes a Sprout sender.
type SenderConfig struct {
	// Flow identifies this session.
	Flow uint32
	// Clock supplies time and timers. Required.
	Clock sim.Clock
	// Conn carries packets toward the receiver. Required.
	Conn network.Conn
	// Source provides application data; nil means an infinite backlog.
	Source Source
	// Tick is the cadence at which the sender re-derives its window and
	// advances through the forecast. Zero means 20 ms (the paper's τ).
	// An idle sender heartbeats once per tick, so the receiver can tell
	// idleness from an outage (§3.2).
	Tick time.Duration
	// LookaheadTicks is how far into the forecast the window reaches:
	// bytes expected to drain within Lookahead·Tick. Zero means 5
	// (100 ms, the interactivity bound of §3.5).
	LookaheadTicks int
	// Pool, if non-nil, is the packet arena outgoing packets draw from
	// (world reuse); nil allocates from the heap.
	Pool *network.Pool
}

func (c SenderConfig) withDefaults() SenderConfig {
	if c.Tick == 0 {
		c.Tick = 20 * time.Millisecond
	}
	if c.LookaheadTicks == 0 {
		c.LookaheadTicks = 5
	}
	if c.Source == nil {
		c.Source = BulkSource{}
	}
	return c
}

// Sender is the Sprout sending endpoint.
type Sender struct {
	cfg SenderConfig

	bytesSent uint64 // wire bytes sent so far (sequence space)

	// sentLog holds (time, seq-before-send) pairs of recent sends, used
	// to derive the throwaway number.
	sentLog   []sentRecord
	throwaway uint64

	// Latest forecast state (§3.5).
	haveForecast  bool
	forecast      []uint32      // cumulative bytes per tick from stamp
	forecastTick  time.Duration // receiver's tick duration
	forecastStamp time.Duration // local time the forecast arrived
	forecastPos   int           // ticks of the forecast already consumed
	queueEst      int64         // estimated bytes in the bottleneck queue

	lastSendAt  time.Duration
	pending     pendingPacket // buffered final packet of the current flight
	havePending bool
	hbTimer     sim.Timer // one-shot heartbeat, rescheduled on every send
	tickTimer   sim.Timer // periodic window re-evaluation, re-armed in place

	// tickFn and hbFn are the timer callbacks, built once in NewSender so
	// re-arming a timer does not allocate a fresh method value per firing.
	tickFn func()
	hbFn   func()

	// Counters.
	packetsSent   int64
	heartbeats    int64
	feedbacksSeen int64
	probesSent    int64

	hdrBuf     []byte
	fcParseBuf []uint32 // scratch for parsing arriving feedback headers
}

type sentRecord struct {
	at  time.Duration
	seq uint64
}

// probeHeadroom is the queue-estimate ceiling (in MTUs) below which the
// bootstrap probe may fire: it must exceed the couple of packets that are
// merely in flight over the path RTT, while still suppressing probes when a
// genuine queue is standing.
//
// The probe is one packet per tick, sent when the sender has no usable
// window — at connection start, or after an idle period has decayed the
// forecast — so the feedback loop can bootstrap. The paper's evaluation
// always starts saturated and explicitly leaves startup-from-idle
// unoptimized (§7); one packet per tick is the minimal probe that restarts
// inference.
const probeHeadroom = 4

// NewSender creates the sender and starts its tick and heartbeat timers.
func NewSender(cfg SenderConfig) *Sender {
	s := &Sender{
		hdrBuf:     make([]byte, 0, protocol.HeaderSize),
		fcParseBuf: make([]uint32, 0, protocol.MaxForecastTicks),
	}
	s.tickFn = s.tick
	s.hbFn = s.heartbeat
	s.Reset(cfg)
	return s
}

// Reset restores the sender to its freshly constructed state under a new
// configuration, retaining every buffer, so a pooled experiment world can
// reuse one sender across runs with no allocation. It must be called at a
// world boundary: the clock has been reset (any old timer handles are
// stale) and no packet this sender produced is still referenced. The tick
// and heartbeat timers are re-armed in the same order NewSender arms them,
// so a reused sender consumes the same event-queue priorities as a fresh
// one — reused worlds stay byte-identical.
func (s *Sender) Reset(cfg SenderConfig) {
	cfg = cfg.withDefaults()
	if cfg.Clock == nil || cfg.Conn == nil {
		panic("transport: SenderConfig requires Clock and Conn")
	}
	s.cfg = cfg
	s.bytesSent = 0
	s.sentLog = s.sentLog[:0]
	s.throwaway = 0
	s.haveForecast = false
	s.forecast = s.forecast[:0]
	s.forecastTick, s.forecastStamp = 0, 0
	s.forecastPos = 0
	s.queueEst = 0
	s.lastSendAt = 0
	s.pending = pendingPacket{}
	s.havePending = false
	s.packetsSent, s.heartbeats, s.feedbacksSeen, s.probesSent = 0, 0, 0, 0
	s.tickTimer.Stop() // no-ops after a clock reset (stale handles)
	s.hbTimer.Stop()
	s.tickTimer = s.cfg.Clock.After(cfg.Tick, s.tickFn)
	s.hbTimer = s.cfg.Clock.After(cfg.Tick, s.hbFn)
}

// BytesSent returns the total wire bytes sent (the sequence number).
func (s *Sender) BytesSent() uint64 { return s.bytesSent }

// PacketsSent returns the number of data packets sent.
func (s *Sender) PacketsSent() int64 { return s.packetsSent }

// Heartbeats returns the number of heartbeat packets sent.
func (s *Sender) Heartbeats() int64 { return s.heartbeats }

// FeedbacksReceived returns the number of forecast updates processed.
func (s *Sender) FeedbacksReceived() int64 { return s.feedbacksSeen }

// QueueEstimate returns the sender's current estimate of bytes in the
// bottleneck queue.
func (s *Sender) QueueEstimate() int64 { return s.queueEst }

// Window returns the current safe-to-send window in bytes (may be
// negative when the estimated queue exceeds the forecast drain).
func (s *Sender) Window() int64 {
	s.advanceForecast()
	return s.window()
}

// Poke triggers an immediate window evaluation. Sources whose data arrives
// asynchronously (e.g. the tunnel ingress) call it so fresh client packets
// can ride an already-open window without waiting for the next tick.
func (s *Sender) Poke() { s.maybeSend() }

// ForecastTotal returns the most recent forecast's cumulative deliverable
// bytes at the full horizon (160 ms), or 0 before the first forecast. The
// tunnel uses it to bound its total backlog (§4.3).
func (s *Sender) ForecastTotal() int64 {
	if !s.haveForecast || len(s.forecast) == 0 {
		return 0
	}
	return int64(s.forecast[len(s.forecast)-1])
}

// Receive processes a packet arriving from the receiver (feedback). It is
// attached as the delivery handler of the reverse link.
func (s *Sender) Receive(pkt *network.Packet) {
	var h protocol.Header
	h.Forecast = s.fcParseBuf[:0] // scratch; copied into s.forecast below
	if err := h.Unmarshal(pkt.Payload); err != nil {
		return
	}
	if !h.HasForecast() {
		return
	}
	s.feedbacksSeen++
	now := s.cfg.Clock.Now()
	s.haveForecast = true
	s.forecast = append(s.forecast[:0], h.Forecast...)
	s.forecastTick = h.TickDuration
	if s.forecastTick <= 0 {
		s.forecastTick = s.cfg.Tick
	}
	s.forecastStamp = now
	s.forecastPos = 0
	// §3.5: estimate of queue occupancy is bytes sent minus bytes the
	// receiver has received or written off, floored at zero.
	est := int64(s.bytesSent) - int64(h.RecvTotal)
	if est < 0 {
		est = 0
	}
	s.queueEst = est
	s.maybeSend()
}

// tick fires every Tick: advance through the forecast and send what the
// window allows. The tick timer is re-armed in place, so the steady-state
// cadence allocates nothing.
func (s *Sender) tick() {
	s.tickTimer = sim.Reschedule(s.cfg.Clock, s.tickTimer, s.cfg.Tick, s.tickFn)
	s.maybeSend()
}

// heartbeat keeps the receiver informed while idle. It fires exactly one
// tick after the most recent transmission, so the sender never breaks the
// time-to-next promise carried on its packets: every declared gap is
// covered by either the next flight or a heartbeat.
func (s *Sender) heartbeat() {
	s.heartbeats++
	s.sendPacket(nil, 0, protocol.FlagHeartbeat, s.cfg.Tick)
}

// rescheduleHeartbeat pushes the idle keepalive to one tick after the
// packet just sent, re-arming the standing timer in place.
func (s *Sender) rescheduleHeartbeat() {
	s.hbTimer = sim.Reschedule(s.cfg.Clock, s.hbTimer, s.cfg.Tick, s.hbFn)
}

// advanceForecast walks the sender's position in the 8-tick forecast
// forward to the current time, decrementing the queue estimate by each
// consumed tick's forecast drain (§3.5).
func (s *Sender) advanceForecast() {
	if !s.haveForecast {
		return
	}
	now := s.cfg.Clock.Now()
	cur := int((now - s.forecastStamp) / s.forecastTick)
	if cur > len(s.forecast) {
		cur = len(s.forecast)
	}
	for s.forecastPos < cur {
		drained := int64(s.cumulative(s.forecastPos+1)) - int64(s.cumulative(s.forecastPos))
		s.forecastPos++
		s.queueEst -= drained
		if s.queueEst < 0 {
			s.queueEst = 0
		}
	}
}

// cumulative returns the forecast cumulative bytes drained by tick i
// (i = 0 means none; indexes beyond the horizon clamp to the last entry,
// matching "the sender may look ahead further and further into the
// forecast, until it reaches 160 ms").
func (s *Sender) cumulative(i int) uint32 {
	if i <= 0 || len(s.forecast) == 0 {
		return 0
	}
	if i > len(s.forecast) {
		i = len(s.forecast)
	}
	return s.forecast[i-1]
}

// window returns the bytes safe to send right now: the forecast drain over
// the next LookaheadTicks, minus the estimated current queue occupancy.
func (s *Sender) window() int64 {
	if !s.haveForecast {
		return 0
	}
	ahead := s.cumulative(s.forecastPos + s.cfg.LookaheadTicks)
	cur := s.cumulative(s.forecastPos)
	return int64(ahead) - int64(cur) - s.queueEst
}

// maybeSend transmits as many packets as the window allows, plus a probe
// when the window is unusable and the queue is believed empty.
func (s *Sender) maybeSend() {
	s.advanceForecast()
	w := s.window()
	sent := 0
	const maxPayload = network.MTU - protocol.HeaderSize
	for w >= int64(protocol.HeaderSize) {
		data, wireLen := s.cfg.Source.NextPayload(maxPayload)
		if wireLen == 0 {
			break
		}
		size := int64(protocol.HeaderSize + wireLen)
		if size > w {
			break
		}
		w -= size
		s.sendPacket(data, wireLen, 0, 0)
		sent++
	}
	if sent == 0 && s.queueEst <= probeHeadroom*network.MTU {
		// Bootstrap/restart probe: the forecast allows nothing, but we
		// believe the queue is empty, so a small probe is safe and
		// keeps the inference fed.
		if data, wireLen := s.cfg.Source.NextPayload(maxPayload); wireLen > 0 {
			s.sendPacket(data, wireLen, 0, 0)
			s.probesSent++
			sent++
		}
	}
	if sent > 0 {
		s.markFlightEnd()
	}
}

// pendingPacket buffers the most recent data packet so the flight's final
// packet can carry the time-to-next marking (§3.2: "for a flight of
// several packets, the time-to-next will be zero for all but the last
// packet"). The Conn consumes packets synchronously, so exactly one packet
// is held back: when another follows in the same flight it is flushed with
// TTN = 0; when the flight ends, markFlightEnd patches the held packet's
// header with the declared gap before hand-off.
type pendingPacket struct {
	pkt *network.Packet
	hdr protocol.Header
}

func (s *Sender) sendPacket(data []byte, wireLen int, flags uint8, ttn time.Duration) {
	now := s.cfg.Clock.Now()
	// Flush any buffered packet with TTN=0 (it was not the flight end).
	s.flushPending(0)
	h := protocol.Header{
		Flags:      flags,
		Flow:       s.cfg.Flow,
		Seq:        s.bytesSent,
		PayloadLen: uint32(wireLen),
		Throwaway:  s.computeThrowaway(now),
		TimeToNext: ttn,
	}
	pkt := s.cfg.Pool.Get()
	payload, err := h.Marshal(pkt.Payload[:0])
	if err != nil {
		panic("transport: header marshal failed: " + err.Error())
	}
	if len(data) > 0 {
		payload = append(payload, data...)
	}
	pkt.Flow = s.cfg.Flow
	pkt.Seq = int64(h.Seq)
	pkt.Size = protocol.HeaderSize + wireLen
	pkt.Payload = payload
	pkt.SentAt = now
	s.sentLog = append(s.sentLog, sentRecord{at: now, seq: s.bytesSent})
	s.bytesSent += uint64(pkt.Size)
	s.queueEst += int64(pkt.Size) // §3.5: every byte sent increments the estimate
	s.lastSendAt = now
	s.rescheduleHeartbeat()
	if flags&protocol.FlagHeartbeat != 0 {
		// Heartbeats carry their TTN directly and are never buffered.
		s.cfg.Conn.Send(pkt)
		return
	}
	s.packetsSent++
	s.pending = pendingPacket{pkt: pkt, hdr: h}
	s.havePending = true
}

// flushPending sends the buffered packet, patching its time-to-next.
func (s *Sender) flushPending(ttn time.Duration) {
	if !s.havePending {
		return
	}
	p := s.pending
	s.pending = pendingPacket{}
	s.havePending = false
	if ttn > 0 {
		p.hdr.TimeToNext = ttn
		payload, err := p.hdr.Marshal(s.hdrBuf[:0])
		if err == nil {
			copy(p.pkt.Payload[:protocol.HeaderSize], payload)
		}
	}
	s.cfg.Conn.Send(p.pkt)
}

// markFlightEnd declares the gap until the sender's next opportunity on the
// final packet of the burst.
func (s *Sender) markFlightEnd() {
	s.flushPending(s.cfg.Tick)
}

// computeThrowaway returns the sequence number of the most recent packet
// sent more than reorderWindow before now, pruning older log entries.
func (s *Sender) computeThrowaway(now time.Duration) uint64 {
	cut := now - reorderWindow
	i := 0
	for i < len(s.sentLog) && s.sentLog[i].at <= cut {
		s.throwaway = s.sentLog[i].seq
		i++
	}
	if i > 0 {
		s.sentLog = append(s.sentLog[:0], s.sentLog[i:]...)
	}
	return s.throwaway
}
