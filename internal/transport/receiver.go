package transport

import (
	"time"

	"sprout/internal/core"
	"sprout/internal/network"
	"sprout/internal/protocol"
	"sprout/internal/sim"
	"sprout/internal/stats"
)

// ReceiverConfig parameterizes a Sprout receiver.
type ReceiverConfig struct {
	// Flow identifies this session.
	Flow uint32
	// Clock supplies time and timers. Required.
	Clock sim.Clock
	// Conn carries feedback packets back toward the sender. Required.
	Conn network.Conn
	// Forecaster is the link model: Sprout's Bayesian
	// core.DeliveryForecaster, or core.EWMAForecaster for Sprout-EWMA.
	// Nil builds a default Bayesian forecaster.
	Forecaster core.Forecaster
	// Deliver, if non-nil, receives each data packet's payload beyond
	// the header (used by the tunnel).
	Deliver func(payload []byte)
	// LiteralSkip applies the paper's literal §3.2 rule: ticks whose
	// newest packet declared a pending time-to-next are skipped outright
	// instead of contributing a censored lower-bound observation. Kept
	// for the ablation table in ablation_test.go; the default (false) is
	// the information-preserving censored update (DESIGN.md §6.1),
	// without which underflowed periods leave the estimate frozen.
	LiteralSkip bool
	// Pool, if non-nil, is the packet arena feedback packets draw from
	// (world reuse); nil allocates from the heap.
	Pool *network.Pool
}

func (c ReceiverConfig) withDefaults() ReceiverConfig {
	if c.Forecaster == nil {
		c.Forecaster = core.NewDeliveryForecaster(core.NewModel(core.Params{}))
	}
	return c
}

// Receiver is the Sprout receiving endpoint: it observes packet arrivals,
// runs the inference tick, and feeds forecasts back to the sender.
type Receiver struct {
	cfg ReceiverConfig

	recvSet stats.IntervalSet // received-or-lost byte accounting (§3.4)

	bytesThisTick int64
	highestSeq    uint64
	seenAny       bool
	lastTTN       time.Duration // time-to-next declared by the newest packet
	expectedNext  time.Duration // when the sender's declared next packet is due (with jitter slack)

	feedbackSeq   uint64 // sequence space of the feedback direction
	forecastBuf   []float64
	fcWireBuf     []uint32 // scratch for the outgoing forecast encoding
	fcParseBuf    []uint32 // scratch for parsing arriving headers
	feedbackCount int64

	tickTimer sim.Timer
	tickFn    func() // built once so re-arming does not allocate

	// Counters.
	packetsReceived int64
	bytesReceived   int64
	parseErrors     int64
	ticksObserved   int64
	ticksCensored   int64
	ticksSkipped    int64
}

// NewReceiver creates the receiver and starts its inference tick.
func NewReceiver(cfg ReceiverConfig) *Receiver {
	r := &Receiver{
		fcWireBuf:  make([]uint32, 0, protocol.MaxForecastTicks),
		fcParseBuf: make([]uint32, 0, protocol.MaxForecastTicks),
	}
	r.tickFn = r.tick
	r.Reset(cfg)
	return r
}

// Reset restores the receiver to its freshly constructed state under a new
// configuration, retaining every buffer. The forecaster in cfg is Reset
// too (back to its prior), so passing a retained forecaster reuses its
// buffers across runs. Like Sender.Reset, it must be called at a world
// boundary (clock reset, no produced packets referenced); the inference
// tick is re-armed exactly as NewReceiver arms it, preserving event-queue
// priorities so reused worlds stay byte-identical.
func (r *Receiver) Reset(cfg ReceiverConfig) {
	cfg = cfg.withDefaults()
	if cfg.Clock == nil || cfg.Conn == nil {
		panic("transport: ReceiverConfig requires Clock and Conn")
	}
	r.cfg = cfg
	r.cfg.Forecaster.Reset()
	r.recvSet.Reset()
	r.bytesThisTick = 0
	r.highestSeq = 0
	r.seenAny = false
	r.lastTTN, r.expectedNext = 0, 0
	r.feedbackSeq = 0
	r.forecastBuf = r.forecastBuf[:0]
	r.feedbackCount = 0
	r.packetsReceived, r.bytesReceived, r.parseErrors = 0, 0, 0
	r.ticksObserved, r.ticksCensored, r.ticksSkipped = 0, 0, 0
	r.tickTimer.Stop() // no-op after a clock reset (stale handle)
	r.tickTimer = r.cfg.Clock.After(r.cfg.Forecaster.TickDuration(), r.tickFn)
}

// RecvTotal returns the bytes received or written off as lost.
func (r *Receiver) RecvTotal() uint64 { return uint64(r.recvSet.Total()) }

// PacketsReceived returns the count of parsed data packets.
func (r *Receiver) PacketsReceived() int64 { return r.packetsReceived }

// BytesReceived returns the wire bytes actually received.
func (r *Receiver) BytesReceived() int64 { return r.bytesReceived }

// TickStats returns how many inference ticks applied an exact observation,
// a censored (at-least) observation, or skipped entirely.
func (r *Receiver) TickStats() (observed, censored, skipped int64) {
	return r.ticksObserved, r.ticksCensored, r.ticksSkipped
}

// FeedbacksSent returns the number of forecast packets sent.
func (r *Receiver) FeedbacksSent() int64 { return r.feedbackCount }

// Forecaster returns the underlying link model.
func (r *Receiver) Forecaster() core.Forecaster { return r.cfg.Forecaster }

// Receive processes an arriving packet. Attach it as the delivery handler
// of the forward link.
func (r *Receiver) Receive(pkt *network.Packet) {
	var h protocol.Header
	h.Forecast = r.fcParseBuf[:0] // scratch; nothing below retains the slice
	if err := h.Unmarshal(pkt.Payload); err != nil {
		r.parseErrors++
		return
	}
	now := r.cfg.Clock.Now()
	r.packetsReceived++
	r.bytesReceived += int64(pkt.Size)
	r.bytesThisTick += int64(pkt.Size)

	// Received-or-lost accounting: this packet's bytes are received;
	// everything below its throwaway number is written off (§3.4).
	r.recvSet.Add(int64(h.Seq), int64(h.Seq)+int64(pkt.Size))
	r.recvSet.AdvanceFloor(int64(h.Throwaway))

	// Track the sender's declared next transmission from the
	// newest-in-sequence packet (§3.2). The declaration is about *send*
	// time; the follow-up packet's arrival additionally suffers the
	// link's service jitter, so one tick of slack is added before an
	// empty tick is treated as hard evidence of an outage. Without the
	// slack, ordinary jitter around the heartbeat interval produces
	// false exact-zero observations that drag the posterior into the
	// outage state while the sender is merely idle.
	if !r.seenAny || h.Seq >= r.highestSeq {
		r.seenAny = true
		r.highestSeq = h.Seq
		r.lastTTN = h.TimeToNext
		r.expectedNext = now + h.TimeToNext + r.cfg.Forecaster.TickDuration()
	}

	if r.cfg.Deliver != nil && len(pkt.Payload) > protocol.HeaderSize {
		r.cfg.Deliver(pkt.Payload[protocol.HeaderSize:])
	}
}

// tick runs the per-tick inference update (§3.2) and periodic feedback.
// The tick timer is re-armed in place so the cadence allocates nothing.
func (r *Receiver) tick() {
	r.tickTimer = r.cfg.Clock.Reschedule(r.tickTimer, r.cfg.Forecaster.TickDuration(), r.tickFn)
	now := r.cfg.Clock.Now()

	observed := float64(r.bytesThisTick) / network.MTU
	switch {
	case !r.seenAny:
		// Nothing has ever arrived: the flow has not started, so an
		// empty tick says nothing about the link.
		r.cfg.Forecaster.Tick(0, core.ObsSkip)
		r.ticksSkipped++
	case r.bytesThisTick > 0 && r.lastTTN == 0:
		// Packets arrived and the newest one was mid-flight: the
		// bottleneck queue was backlogged, so the count is exactly
		// what the link's service process delivered.
		r.cfg.Forecaster.Tick(observed, core.ObsExact)
		r.ticksObserved++
	case r.bytesThisTick > 0:
		// The newest packet ended its flight (nonzero time-to-next):
		// the queue has drained, so the count only lower-bounds what
		// the link could have delivered (§3.2's underflow case).
		if r.cfg.LiteralSkip {
			r.cfg.Forecaster.Tick(0, core.ObsSkip)
			r.ticksSkipped++
			break
		}
		r.cfg.Forecaster.Tick(observed, core.ObsAtLeast)
		r.ticksCensored++
	case now < r.expectedNext:
		// Empty tick, but the sender declared it would be quiet (plus
		// one tick of arrival-jitter slack): queue underflow, not an
		// outage. Pure skip.
		r.cfg.Forecaster.Tick(0, core.ObsSkip)
		r.ticksSkipped++
	default:
		// Empty tick with the sender overdue: the link delivered
		// nothing it should have. Hard evidence of an outage.
		r.cfg.Forecaster.Tick(0, core.ObsExact)
		r.ticksObserved++
	}
	r.bytesThisTick = 0
	r.sendFeedback(now)
}

// sendFeedback emits a forecast packet toward the sender (§3.4), once per
// tick. In a bidirectional session this rides on data packets; in a
// one-way transfer it is a small dedicated packet (the paper piggybacks
// the forecast on every outgoing packet; at one per tick the control
// traffic is under 4 kB/s).
func (r *Receiver) sendFeedback(now time.Duration) {
	r.forecastBuf = r.cfg.Forecaster.Forecast(r.forecastBuf[:0])
	fc := r.fcWireBuf[:0] // scratch; Marshal copies it into the payload
	for _, pkts := range r.forecastBuf {
		b := pkts * network.MTU
		if b < 0 {
			b = 0
		}
		fc = append(fc, uint32(b))
	}
	r.fcWireBuf = fc[:0]
	h := protocol.Header{
		Flags:        protocol.FlagForecast,
		Flow:         r.cfg.Flow,
		Seq:          r.feedbackSeq,
		RecvTotal:    r.RecvTotal(),
		TickDuration: r.cfg.Forecaster.TickDuration(),
		Forecast:     fc,
	}
	pkt := r.cfg.Pool.Get()
	payload, err := h.Marshal(pkt.Payload[:0])
	if err != nil {
		r.cfg.Pool.Put(pkt)
		return
	}
	pkt.Flow = r.cfg.Flow
	pkt.Seq = int64(r.feedbackSeq)
	pkt.Size = protocol.HeaderSize
	pkt.Payload = payload
	pkt.SentAt = now
	r.feedbackSeq += uint64(pkt.Size)
	r.feedbackCount++
	r.cfg.Conn.Send(pkt)
}
