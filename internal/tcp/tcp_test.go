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

func steadyTrace(rate float64, d time.Duration, seed int64) *trace.Trace {
	m := trace.LinkModel{Name: "steady", MeanRate: rate, Sigma: 0.001, Reversion: 1, MaxRate: rate * 2}
	return m.Generate(d, rand.New(rand.NewSource(seed)))
}

type tcpSession struct {
	loop     *sim.Loop
	fwd, rev *link.Link
	log      *[]link.Delivery // fwd's deliveries
	snd      *Sender
	rcv      *Receiver
}

// keepDeliveries returns the log an OnDelivery observer on l appends to.
func keepDeliveries(l *link.Link) *[]link.Delivery {
	log := new([]link.Delivery)
	l.OnDelivery(func(d link.Delivery) { *log = append(*log, d) })
	return log
}

func newTCPSession(cc CongestionControl, fwdTrace *trace.Trace, fwdCfg func(*link.Config)) *tcpSession {
	loop := sim.New()
	s := &tcpSession{loop: loop}
	fcfg := link.Config{Trace: fwdTrace, PropagationDelay: 20 * time.Millisecond}
	if fwdCfg != nil {
		fwdCfg(&fcfg)
	}
	s.fwd = link.New(loop, fcfg, func(p *network.Packet) { s.rcv.Receive(p) })
	s.log = keepDeliveries(s.fwd)
	s.rev = link.New(loop, link.Config{
		Trace:            steadyTrace(500, fwdTrace.Duration()+5*time.Second, 77),
		PropagationDelay: 20 * time.Millisecond,
	}, func(p *network.Packet) { s.snd.Receive(p) })
	s.rcv = NewReceiver(1, loop, s.rev, nil)
	s.snd = NewSender(SenderConfig{Flow: 1, Clock: loop, Conn: s.fwd, CC: cc})
	return s
}

func TestWireRoundTrip(t *testing.T) {
	h := wireHeader{kind: kindData, flow: 9, seq: 12345, ack: 678}
	buf := h.marshal(nil)
	var got wireHeader
	if err := got.unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("round trip: %+v != %+v", got, h)
	}
	if err := got.unmarshal(buf[:10]); err == nil {
		t.Error("expected error on short buffer")
	}
}

func TestRenoSlowStartThenAvoidance(t *testing.T) {
	r := NewRenoCC()
	if r.Window() != initialWindow {
		t.Fatalf("initial window = %v", r.Window())
	}
	r.ssthresh = 20
	for i := 0; i < 10; i++ {
		r.OnAck(1, 0, 0, 0)
	}
	if r.Window() != 20 {
		t.Errorf("after slow start to ssthresh: cwnd = %v, want 20", r.Window())
	}
	w := r.Window()
	r.OnAck(int(w), 0, 0, 0) // one RTT of ACKs in CA
	if r.Window() < w+0.9 || r.Window() > w+1.1 {
		t.Errorf("CA growth per RTT = %v, want ~1", r.Window()-w)
	}
	before := r.Window()
	r.OnLoss()
	if got := r.Window(); got < before/2-0.01 || got > before/2+0.01 {
		t.Errorf("after loss: cwnd = %v, want %v", got, before/2)
	}
	r.OnTimeout()
	if r.Window() != 1 {
		t.Errorf("after timeout: cwnd = %v, want 1", r.Window())
	}
}

func TestCubicGrowsAndBacksOff(t *testing.T) {
	now := time.Duration(0)
	c := NewCubic(func() time.Duration { return now })
	c.ssthresh = 10 // leave slow start quickly
	srtt := 50 * time.Millisecond
	for i := 0; i < 20; i++ {
		c.OnAck(1, srtt, srtt, srtt)
	}
	w1 := c.Window()
	c.OnLoss()
	w2 := c.Window()
	if w2 >= w1 {
		t.Errorf("loss did not reduce window: %v -> %v", w1, w2)
	}
	if w2 < w1*0.65 || w2 > w1*0.75 {
		t.Errorf("cubic beta backoff = %v of %v, want ~0.7", w2, w1)
	}
	// Window regrows toward wMax over time.
	for i := 0; i < 400; i++ {
		now += 10 * time.Millisecond
		c.OnAck(1, srtt, srtt, srtt)
	}
	if c.Window() <= w2 {
		t.Errorf("cubic did not regrow: %v", c.Window())
	}
}

func TestVegasKeepsSmallQueue(t *testing.T) {
	v := NewVegas()
	v.ssthresh = 1 // straight to CA
	minRTT := 40 * time.Millisecond
	// RTT equal to base: Vegas should increase.
	w := v.Window()
	v.OnAck(int(w)+1, minRTT, minRTT, minRTT)
	if v.Window() != w+1 {
		t.Errorf("no-queue ack should grow window by 1: %v -> %v", w, v.Window())
	}
	// Large queueing delay: decrease.
	w = v.Window()
	v.OnAck(int(w)+1, 400*time.Millisecond, 400*time.Millisecond, minRTT)
	if v.Window() != w-1 {
		t.Errorf("queued ack should shrink window by 1: %v -> %v", w, v.Window())
	}
}

func TestCompoundDelayWindowRetreats(t *testing.T) {
	c := NewCompound()
	minRTT := 40 * time.Millisecond
	// Empty queue: slow start grows cwnd past ~16 segments, after which
	// the binomial increment alpha*win^k - 1 turns positive and dwnd
	// grows.
	for i := 0; i < 8; i++ {
		c.OnAck(int(c.Window())+1, minRTT, minRTT, minRTT)
	}
	if c.dwnd <= 0 {
		t.Fatalf("dwnd did not grow: %v", c.dwnd)
	}
	grown := c.dwnd
	// Standing queue: dwnd retreats.
	for i := 0; i < 10; i++ {
		c.OnAck(int(c.Window())+1, time.Second, time.Second, minRTT)
	}
	if c.dwnd >= grown {
		t.Errorf("dwnd did not retreat: %v -> %v", grown, c.dwnd)
	}
}

func TestLEDBATTargetsDelay(t *testing.T) {
	l := NewLEDBAT()
	minRTT := 40 * time.Millisecond
	// Below target: grow.
	w := l.Window()
	l.OnAck(10, minRTT+20*time.Millisecond, 0, minRTT)
	if l.Window() <= w {
		t.Errorf("below-target ack should grow window")
	}
	// Above target: shrink.
	w = l.Window()
	l.OnAck(10, minRTT+300*time.Millisecond, 0, minRTT)
	if l.Window() >= w {
		t.Errorf("above-target ack should shrink window")
	}
}

func TestTCPTransfersReliably(t *testing.T) {
	// Basic integration: Reno over a steady link delivers a contiguous
	// stream with high utilization.
	sess := newTCPSession(NewRenoCC(), steadyTrace(200, 35*time.Second, 1), nil)
	sess.loop.Run(30 * time.Second)
	if sess.rcv.NextExpected() < 4000 {
		t.Errorf("delivered %d contiguous segments in 30s at 200/s, want > 4000", sess.rcv.NextExpected())
	}
	segs, retx, timeouts, _ := sess.snd.Stats()
	t.Logf("segments=%d retx=%d timeouts=%d inflight=%d", segs, retx, timeouts, sess.snd.InFlight())
}

func TestCubicBuildsStandingQueueOnUnboundedBuffer(t *testing.T) {
	// The paper's headline observation (Figure 1, §5.2): on a deep-buffer
	// cellular link, Cubic's delays reach many seconds because nothing
	// ever signals it to slow down.
	loop := sim.New()
	var rcv *Receiver
	fwd := link.New(loop, link.Config{
		Trace:            steadyTrace(100, 65*time.Second, 2),
		PropagationDelay: 20 * time.Millisecond,
	}, func(p *network.Packet) { rcv.Receive(p) })
	fwdLog := keepDeliveries(fwd)
	var snd *Sender
	rev := link.New(loop, link.Config{
		Trace:            steadyTrace(500, 65*time.Second, 3),
		PropagationDelay: 20 * time.Millisecond,
	}, func(p *network.Packet) { snd.Receive(p) })
	rcv = NewReceiver(1, loop, rev, nil)
	snd = NewSender(SenderConfig{Flow: 1, Clock: loop, Conn: fwd, CC: NewCubic(loop.Now)})
	loop.Run(60 * time.Second)

	var worst time.Duration
	for _, d := range *fwdLog {
		if delay := d.DeliveredAt - d.SentAt; delay > worst {
			worst = delay
		}
	}
	if worst < 2*time.Second {
		t.Errorf("Cubic worst-case delay = %v, want multi-second standing queue", worst)
	}
}

func TestVegasKeepsDelayLowerThanCubic(t *testing.T) {
	run := func(cc CongestionControl) time.Duration {
		sess := newTCPSession(cc, steadyTrace(100, 45*time.Second, 4), nil)
		sess.loop.Run(40 * time.Second)
		var sum time.Duration
		var n int
		for _, d := range *sess.log {
			if d.DeliveredAt > 10*time.Second {
				sum += d.DeliveredAt - d.SentAt
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / time.Duration(n)
	}
	loop := sim.New()
	_ = loop
	cubicDelay := run(NewCubic(func() time.Duration { return 0 }))
	vegasDelay := run(NewVegas())
	if vegasDelay >= cubicDelay {
		t.Errorf("Vegas avg delay %v should be below Cubic %v", vegasDelay, cubicDelay)
	}
	t.Logf("avg delay: cubic=%v vegas=%v", cubicDelay, vegasDelay)
}

func TestTCPRecoversFromLoss(t *testing.T) {
	sess := newTCPSession(NewRenoCC(), steadyTrace(200, 65*time.Second, 5), func(c *link.Config) {
		c.LossRate = 0.02
		c.Rand = rand.New(rand.NewSource(6))
	})
	sess.loop.Run(60 * time.Second)
	if sess.rcv.NextExpected() < 2000 {
		t.Errorf("contiguous segments under 2%% loss = %d, want progress", sess.rcv.NextExpected())
	}
	_, retx, _, fastRecov := sess.snd.Stats()
	if retx == 0 || fastRecov == 0 {
		t.Errorf("expected retransmissions (%d) and fast recoveries (%d) under loss", retx, fastRecov)
	}
}

func TestTCPTimeoutRecovery(t *testing.T) {
	// A trace with a 3-second outage: the sender must RTO and resume.
	var ops []time.Duration
	for ts := 10 * time.Millisecond; ts < 5*time.Second; ts += 10 * time.Millisecond {
		ops = append(ops, ts)
	}
	for ts := 8 * time.Second; ts < 20*time.Second; ts += 10 * time.Millisecond {
		ops = append(ops, ts)
	}
	sess := newTCPSession(NewRenoCC(), &trace.Trace{Name: "outage", Opportunities: ops}, nil)
	sess.loop.Run(15 * time.Second)
	_, _, timeouts, _ := sess.snd.Stats()
	var lastDelivery time.Duration
	for _, d := range *sess.log {
		if d.DeliveredAt > lastDelivery {
			lastDelivery = d.DeliveredAt
		}
	}
	if lastDelivery < 9*time.Second {
		t.Errorf("no deliveries after outage (last at %v); timeouts=%d", lastDelivery, timeouts)
	}
}

func TestMaxWindowCapsQueue(t *testing.T) {
	sess := newTCPSession(NewCubic(func() time.Duration { return 0 }),
		steadyTrace(50, 35*time.Second, 7), nil)
	sess.snd.cfg.MaxWindow = 100
	sess.loop.Run(30 * time.Second)
	if got := sess.snd.InFlight(); got > 101 {
		t.Errorf("in flight = %d, exceeds MaxWindow", got)
	}
}

func TestCCNames(t *testing.T) {
	ccs := []CongestionControl{
		NewRenoCC(), NewCubic(func() time.Duration { return 0 }),
		NewVegas(), NewCompound(), NewLEDBAT(),
	}
	names := []string{"reno", "cubic", "vegas", "compound", "ledbat"}
	for i, cc := range ccs {
		if cc.Window() <= 0 {
			t.Errorf("%s initial window = %v", names[i], cc.Window())
		}
	}
}
