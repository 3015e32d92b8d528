package transport

import (
	"math/rand"
	"testing"
	"time"

	"sprout/internal/core"
	"sprout/internal/link"
	"sprout/internal/network"
	"sprout/internal/sim"
	"sprout/internal/trace"
)

// steadyTrace returns a trace delivering `rate` MTU packets per second with
// Poisson spacing, for duration d.
func steadyTrace(rate float64, d time.Duration, seed int64) *trace.Trace {
	m := trace.LinkModel{Name: "steady", MeanRate: rate, Sigma: 0.001, Reversion: 1, MaxRate: rate * 2}
	return m.Generate(d, rand.New(rand.NewSource(seed)))
}

type session struct {
	loop     *sim.Loop
	fwd, rev *link.Link
	snd      *Sender
	rcv      *Receiver
}

// newSession wires sender -> fwd link -> receiver and
// receiver -> rev link -> sender, with 20 ms propagation each way.
func newSession(fwdTrace, revTrace *trace.Trace, fc core.Forecaster) *session {
	loop := sim.New()
	s := &session{loop: loop}
	s.fwd = link.New(loop, link.Config{
		Trace:            fwdTrace,
		PropagationDelay: 20 * time.Millisecond,
	}, func(p *network.Packet) { s.rcv.Receive(p) })
	s.fwd.RecordDeliveries(true)
	s.rev = link.New(loop, link.Config{
		Trace:            revTrace,
		PropagationDelay: 20 * time.Millisecond,
	}, func(p *network.Packet) { s.snd.Receive(p) })
	s.rcv = NewReceiver(ReceiverConfig{
		Clock: loop, Conn: s.rev, Forecaster: fc,
	})
	s.snd = NewSender(SenderConfig{Clock: loop, Conn: s.fwd})
	return s
}

func TestSproutSteadyLinkThroughputAndDelay(t *testing.T) {
	rate := 300.0 // packets/s ≈ 3.6 Mbps
	dur := 60 * time.Second
	sess := newSession(steadyTrace(rate, dur+5*time.Second, 1), steadyTrace(100, dur+5*time.Second, 2), nil)
	sess.loop.Run(dur)

	// Throughput after a 10 s warmup.
	var bytes int64
	var maxDelay, sumDelay time.Duration
	n := 0
	for _, d := range sess.fwd.Deliveries() {
		if d.DeliveredAt < 10*time.Second {
			continue
		}
		bytes += int64(d.Size)
		delay := d.DeliveredAt - d.SentAt
		sumDelay += delay
		if delay > maxDelay {
			maxDelay = delay
		}
		n++
	}
	if n == 0 {
		t.Fatal("no deliveries after warmup")
	}
	gotRate := float64(bytes) * 8 / (dur - 10*time.Second).Seconds()
	capacity := rate * 1500 * 8
	util := gotRate / capacity
	if util < 0.35 {
		t.Errorf("utilization = %.2f (%.0f kbps of %.0f), want >= 0.35", util, gotRate/1000, capacity/1000)
	}
	avgDelay := sumDelay / time.Duration(n)
	// Propagation is 20 ms; Sprout targets <= 100 ms queueing with 95%
	// probability, so average delay must be well under 120 ms.
	if avgDelay > 120*time.Millisecond {
		t.Errorf("average packet delay = %v, want <= 120ms", avgDelay)
	}
	t.Logf("steady link: util=%.2f avgDelay=%v maxDelay=%v", util, avgDelay, maxDelay)
}

func TestSproutBoundsQueueDuringOutage(t *testing.T) {
	// Forward trace: 300 pkt/s for 20 s, a 5 s outage, then recovery.
	var ops []time.Duration
	add := func(from, to time.Duration, rate float64) {
		step := time.Duration(float64(time.Second) / rate)
		for ts := from; ts < to; ts += step {
			ops = append(ops, ts)
		}
	}
	add(0, 20*time.Second, 300)
	add(25*time.Second, 50*time.Second, 300)
	fwd := &trace.Trace{Name: "outage", Opportunities: ops}
	sess := newSession(fwd, steadyTrace(100, 55*time.Second, 3), nil)
	sess.loop.Run(45 * time.Second)

	// Count bytes Sprout transmitted *during* the outage (allowing a
	// 300 ms reaction time): the cautious forecast must shut the window
	// almost immediately, leaving only heartbeats and a handful of
	// straggler packets (the whole point of the forecast; Figure 1).
	var sentDuringOutage int64
	for _, d := range sess.fwd.Deliveries() {
		if d.SentAt >= 20300*time.Millisecond && d.SentAt < 25*time.Second {
			sentDuringOutage += int64(d.Size)
		}
	}
	// 4.7 s of heartbeats is ~18 kB; allow a generous margin for tail
	// flights. A non-adaptive sender would have sent hundreds of kB.
	if sentDuringOutage > 60_000 {
		t.Errorf("bytes sent during outage = %d, want < 60000 (Sprout throttles)", sentDuringOutage)
	}
	// And Sprout must resume: deliveries must continue after recovery.
	var after int64
	for _, d := range sess.fwd.Deliveries() {
		if d.DeliveredAt > 30*time.Second {
			after += int64(d.Size)
		}
	}
	if after == 0 {
		t.Error("no deliveries after outage recovery")
	}
}

func TestHeartbeatsWhenIdle(t *testing.T) {
	loop := sim.New()
	var sentPkts []*network.Packet
	snd := NewSender(SenderConfig{
		Clock:  loop,
		Conn:   ConnFunc(func(p *network.Packet) { sentPkts = append(sentPkts, p) }),
		Source: emptySource{},
	})
	loop.Run(time.Second)
	if snd.Heartbeats() < 40 {
		t.Errorf("heartbeats in 1s idle = %d, want ~50", snd.Heartbeats())
	}
	if snd.PacketsSent() != 0 {
		t.Errorf("data packets = %d, want 0", snd.PacketsSent())
	}
	for _, p := range sentPkts {
		if p.Size != 76 { // header-only
			t.Fatalf("heartbeat size = %d, want header-only", p.Size)
		}
	}
}

type emptySource struct{}

func (emptySource) NextPayload(int) ([]byte, int) { return nil, 0 }

func TestThrowawayWritesOffLosses(t *testing.T) {
	// 20% forward loss: the receiver's RecvTotal must still track the
	// sender's byte count closely thanks to the throwaway numbers.
	loop := sim.New()
	var rcv *Receiver
	fwd := link.New(loop, link.Config{
		Trace:            steadyTrace(300, 65*time.Second, 4),
		PropagationDelay: 20 * time.Millisecond,
		LossRate:         0.2,
		Rand:             rand.New(rand.NewSource(5)),
	}, func(p *network.Packet) { rcv.Receive(p) })
	var snd *Sender
	rev := link.New(loop, link.Config{
		Trace:            steadyTrace(100, 65*time.Second, 6),
		PropagationDelay: 20 * time.Millisecond,
	}, func(p *network.Packet) { snd.Receive(p) })
	rcv = NewReceiver(ReceiverConfig{Clock: loop, Conn: rev})
	snd = NewSender(SenderConfig{Clock: loop, Conn: fwd})
	loop.Run(60 * time.Second)

	sent := snd.BytesSent()
	total := rcv.RecvTotal()
	if sent == 0 {
		t.Fatal("nothing sent")
	}
	// RecvTotal lags by at most in-flight data plus the reorder window;
	// with 20% loss it must still cover > 95% of sent bytes.
	if float64(total) < float64(sent)*0.95 {
		t.Errorf("RecvTotal = %d of %d sent (%.1f%%), want > 95%%",
			total, sent, 100*float64(total)/float64(sent))
	}
	if rcv.BytesReceived() >= int64(sent) {
		t.Errorf("BytesReceived %d should be below sent %d under loss", rcv.BytesReceived(), sent)
	}
}

func TestFeedbackLoopEstablishes(t *testing.T) {
	sess := newSession(steadyTrace(200, 15*time.Second, 7), steadyTrace(100, 15*time.Second, 8), nil)
	sess.loop.Run(10 * time.Second)
	if sess.snd.FeedbacksReceived() < 100 {
		t.Errorf("feedbacks received = %d, want hundreds", sess.snd.FeedbacksReceived())
	}
	if sess.rcv.FeedbacksSent() < 100 {
		t.Errorf("feedbacks sent = %d", sess.rcv.FeedbacksSent())
	}
	if sess.snd.PacketsSent() < 100 {
		t.Errorf("data packets sent = %d, want many", sess.snd.PacketsSent())
	}
	obs, cens, skip := sess.rcv.TickStats()
	if obs == 0 {
		t.Error("no observed ticks")
	}
	t.Logf("ticks observed=%d censored=%d skipped=%d", obs, cens, skip)
}

func TestEWMAVariantRunsAndIsFaster(t *testing.T) {
	// Sprout-EWMA should achieve at least as much throughput as Sprout
	// on the same variable link (its defining property, §5.3).
	m, _ := trace.CanonicalLink("Verizon-LTE-down")
	dur := 60 * time.Second
	mk := func(fc core.Forecaster) int64 {
		fwd := m.Generate(dur+5*time.Second, rand.New(rand.NewSource(9)))
		rev := steadyTrace(100, dur+5*time.Second, 10)
		sess := newSession(fwd, rev, fc)
		sess.loop.Run(dur)
		var bytes int64
		for _, d := range sess.fwd.Deliveries() {
			if d.DeliveredAt >= 10*time.Second {
				bytes += int64(d.Size)
			}
		}
		return bytes
	}
	sprout := mk(core.NewDeliveryForecaster(core.NewModel(core.Params{})))
	ewma := mk(core.NewEWMAForecaster())
	if ewma < sprout {
		t.Errorf("Sprout-EWMA bytes = %d < Sprout bytes = %d; EWMA should be at least as fast", ewma, sprout)
	}
	t.Logf("sprout=%d ewma=%d (ratio %.2f)", sprout, ewma, float64(ewma)/float64(sprout))
}

func TestSenderWindowAccounting(t *testing.T) {
	loop := sim.New()
	var out []*network.Packet
	snd := NewSender(SenderConfig{
		Clock: loop,
		Conn:  ConnFunc(func(p *network.Packet) { out = append(out, p) }),
	})
	// Hand-deliver a feedback packet: 30 kB drain forecast over 8 ticks,
	// receiver has everything so far.
	loop.Run(100 * time.Millisecond)
	fb := feedbackPacket(t, snd.BytesSent(), []uint32{3750, 7500, 11250, 15000, 18750, 22500, 26250, 30000})
	before := len(out)
	snd.Receive(fb)
	// Window = cumulative at tick 5 (18750) - 0 queue = 18750 bytes ->
	// 12 full MTU packets.
	sent := len(out) - before
	if sent < 11 || sent > 13 {
		t.Errorf("sent %d packets on 18750-byte window, want ~12", sent)
	}
	if snd.QueueEstimate() != int64(sent*1500) {
		t.Errorf("queue estimate = %d, want %d", snd.QueueEstimate(), sent*1500)
	}
}

func feedbackPacket(t *testing.T, recvTotal uint64, fc []uint32) *network.Packet {
	t.Helper()
	h := protocolHeader(recvTotal, fc)
	payload, err := h.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	return &network.Packet{Size: len(payload), Payload: payload}
}
