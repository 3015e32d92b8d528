package app

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

type appSession struct {
	loop *sim.Loop
	fwd  *link.Link
	log  *[]link.Delivery // fwd's deliveries
	snd  *Sender
	rcv  *Receiver
}

// keepDeliveries returns the log an OnDelivery observer on l appends to.
func keepDeliveries(l *link.Link) *[]link.Delivery {
	log := new([]link.Delivery)
	l.OnDelivery(func(d link.Delivery) { *log = append(*log, d) })
	return log
}

func newAppSession(p Profile, fwdTrace *trace.Trace) *appSession {
	loop := sim.New()
	s := &appSession{loop: loop}
	s.fwd = link.New(loop, link.Config{
		Trace:            fwdTrace,
		PropagationDelay: 20 * time.Millisecond,
	}, func(pkt *network.Packet) { s.rcv.Receive(pkt) })
	s.log = keepDeliveries(s.fwd)
	rev := link.New(loop, link.Config{
		Trace:            steadyTrace(200, fwdTrace.Duration()+5*time.Second, 42),
		PropagationDelay: 20 * time.Millisecond,
	}, func(pkt *network.Packet) { s.snd.Receive(pkt) })
	s.rcv = NewReceiver(1, p, loop, rev, nil)
	s.snd = NewSender(1, p, loop, s.fwd, nil)
	return s
}

func TestReportRoundTrip(t *testing.T) {
	r := report{maxSeq: 12345, received: 678, relDelay: 250 * time.Millisecond}
	got, ok := parseReport(r.appendTo(nil))
	if !ok || got != r {
		t.Errorf("round trip: %+v (ok=%v), want %+v", got, ok, r)
	}
	if _, ok := parseReport([]byte{kindMedia, 0}); ok {
		t.Error("parseReport accepted a media packet")
	}
}

func TestProfilesSane(t *testing.T) {
	for _, p := range []Profile{Skype(), Hangout(), Facetime()} {
		if p.MinRate <= 0 || p.MaxRate <= p.StartRate || p.StartRate < p.MinRate {
			t.Errorf("%s: rate ordering broken: %+v", p.Name, p)
		}
		if p.Decrease <= 0 || p.Decrease >= 1 || p.Increase <= 1 {
			t.Errorf("%s: adaptation factors broken", p.Name)
		}
		if p.LagReports < 1 {
			t.Errorf("%s: lag reports = %d", p.Name, p.LagReports)
		}
	}
	if Skype().MaxRate <= Facetime().MaxRate {
		t.Error("Skype ceiling should exceed Facetime (paper footnote 8)")
	}
}

func TestSenderPacesAtRate(t *testing.T) {
	loop := sim.New()
	var count int
	snd := NewSender(1, Skype(), loop, connFunc(func(p *network.Packet) { count++ }), nil)
	_ = snd
	loop.Run(10 * time.Second)
	// 500 kb/s at 1500-byte packets = ~41.7 pkt/s.
	want := int(Skype().StartRate / float64(Skype().PacketSize*8) * 10)
	if count < want-5 || count > want+5 {
		t.Errorf("sent %d packets in 10s, want ~%d", count, want)
	}
}

type connFunc func(*network.Packet)

func (f connFunc) Send(p *network.Packet) { f(p) }

func TestAppRampsUpOnCleanLink(t *testing.T) {
	// A fat steady link: the app should ramp from StartRate toward
	// MaxRate.
	sess := newAppSession(Skype(), steadyTrace(800, 70*time.Second, 1))
	sess.loop.Run(60 * time.Second)
	if got := sess.snd.rate; got < 1_500_000 {
		t.Errorf("rate after 60s on clean 9.6 Mb/s link = %.0f, want near the 2 Mb/s ceiling", got)
	}
	if sess.snd.Decreases() > 3 {
		t.Errorf("unexpected decreases on clean link: %d", sess.snd.Decreases())
	}
}

func TestAppRespectsCeiling(t *testing.T) {
	sess := newAppSession(Facetime(), steadyTrace(800, 70*time.Second, 2))
	sess.loop.Run(60 * time.Second)
	if got := sess.snd.rate; got > Facetime().MaxRate {
		t.Errorf("rate %v exceeds ceiling %v", got, Facetime().MaxRate)
	}
}

func TestAppBacksOffOnCongestion(t *testing.T) {
	// A slow link (300 kb/s) that the app's start rate already exceeds:
	// delay builds, reports turn congested, rate must come down — but
	// only after the reaction lag.
	sess := newAppSession(Skype(), steadyTrace(25, 70*time.Second, 3))
	sess.loop.Run(60 * time.Second)
	if sess.snd.Decreases() == 0 {
		t.Fatal("no rate decreases despite overloaded link")
	}
	if got := sess.snd.rate; got > 600_000 {
		t.Errorf("rate after sustained congestion = %.0f, want throttled", got)
	}
}

func TestAppBuildsStandingQueue(t *testing.T) {
	// The headline dysfunction (Figure 1): on a link whose capacity
	// collapses, the app keeps sending at the old rate for seconds,
	// building a large queue. Trace: 4 Mb/s for 20 s, then 200 kb/s.
	var ops []time.Duration
	for ts := 3 * time.Millisecond; ts < 20*time.Second; ts += 3 * time.Millisecond {
		ops = append(ops, ts)
	}
	for ts := 20 * time.Second; ts < 70*time.Second; ts += 60 * time.Millisecond {
		ops = append(ops, ts)
	}
	sess := newAppSession(Skype(), &trace.Trace{Name: "cliff", Opportunities: ops})
	sess.loop.Run(60 * time.Second)
	var worst time.Duration
	for _, d := range *sess.log {
		if delay := d.DeliveredAt - d.SentAt; delay > worst {
			worst = delay
		}
	}
	if worst < time.Second {
		t.Errorf("worst delay after capacity cliff = %v, want multi-second standing queue", worst)
	}
}

func TestAppLossTriggersBackoff(t *testing.T) {
	loop := sim.New()
	var snd *Sender
	var rcv *Receiver
	fwd := link.New(loop, link.Config{
		Trace:            steadyTrace(800, 65*time.Second, 4),
		PropagationDelay: 20 * time.Millisecond,
		LossRate:         0.10,
		Rand:             rand.New(rand.NewSource(5)),
	}, func(p *network.Packet) { rcv.Receive(p) })
	rev := link.New(loop, link.Config{
		Trace:            steadyTrace(200, 65*time.Second, 6),
		PropagationDelay: 20 * time.Millisecond,
	}, func(p *network.Packet) { snd.Receive(p) })
	rcv = NewReceiver(1, Skype(), loop, rev, nil)
	snd = NewSender(1, Skype(), loop, fwd, nil)
	loop.Run(60 * time.Second)
	if snd.Decreases() == 0 {
		t.Error("10% loss should trigger rate decreases")
	}
	if snd.rate > 2_000_000 {
		t.Errorf("rate %.0f too high under 10%% loss", snd.rate)
	}
}
