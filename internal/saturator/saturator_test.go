package saturator

import (
	"math/rand"
	"testing"
	"time"

	"sprout/internal/link"
	"sprout/internal/network"
	"sprout/internal/sim"
	"sprout/internal/trace"
)

func TestWireRoundTrip(t *testing.T) {
	buf := appendMarshal(nil, kindProbe, 42, 7)
	kind, seq, echo, ok := unmarshal(buf)
	if !ok || kind != kindProbe || seq != 42 || echo != 7 {
		t.Errorf("round trip: %v %v %v %v", kind, seq, echo, ok)
	}
	if _, _, _, ok := unmarshal(buf[:5]); ok {
		t.Error("short buffer accepted")
	}
}

// saturatorSession wires the saturator across an emulated link under test,
// with an ideal (fast, uncongested) feedback path as in the paper's
// feedback-phone setup.
func saturatorSession(t *testing.T, groundTruth *trace.Trace, dur time.Duration) (*Sender, *Receiver) {
	t.Helper()
	loop := sim.New()
	var rcv *Receiver
	var snd *Sender
	fwd := link.New(loop, link.Config{
		Trace:            groundTruth,
		PropagationDelay: 20 * time.Millisecond,
	}, func(p *network.Packet) { rcv.Receive(p) })
	// Feedback path: fat and fast.
	fbModel := trace.LinkModel{Name: "fb", MeanRate: 2000, Sigma: 1, Reversion: 1, MaxRate: 3000}
	fb := link.New(loop, link.Config{
		Trace:            fbModel.Generate(dur+5*time.Second, rand.New(rand.NewSource(99))),
		PropagationDelay: 10 * time.Millisecond,
	}, func(p *network.Packet) { snd.Receive(p) })
	rcv = NewReceiver(1, loop, fb)
	snd = NewSender(SenderConfig{Clock: loop, Conn: fwd, Flow: 1})
	loop.Run(dur)
	return snd, rcv
}

func TestSaturatorKeepsLinkBacklogged(t *testing.T) {
	m, _ := trace.CanonicalLink("TMobile-3G-down")
	ground := m.Generate(70*time.Second, rand.New(rand.NewSource(1)))
	snd, rcv := saturatorSession(t, ground, 60*time.Second)

	// The recorded trace should capture nearly every ground-truth
	// delivery opportunity in the measured interval: compare recorded
	// arrival count against ground-truth opportunities over the same
	// window (skip the first 10 s of ramp).
	recorded := rcv.Trace("measured")
	groundCount := 0
	for _, op := range ground.Opportunities {
		if op >= 10*time.Second && op < 60*time.Second {
			groundCount++
		}
	}
	recCount := 0
	// The recorded trace is rebased; count arrivals in the same span by
	// using the receiver's raw count minus the ramp. Approximate: total
	// recorded should be >= 90% of all ground opportunities up to 60s
	// minus queue drain effects.
	recCount = int(rcv.Received())
	total := 0
	for _, op := range ground.Opportunities {
		if op < 60*time.Second {
			total++
		}
	}
	if float64(recCount) < 0.85*float64(total) {
		t.Errorf("recorded %d of %d ground-truth opportunities (%.0f%%); link was not kept saturated",
			recCount, total, 100*float64(recCount)/float64(total))
	}
	if groundCount == 0 || recorded.Count() == 0 {
		t.Fatal("empty traces")
	}
	// RTT control: smoothed RTT must sit inside the band.
	if rtt := snd.RTT(); rtt < MinRTT/2 || rtt > MaxRTT*2 {
		t.Errorf("smoothed RTT = %v, want roughly within [%v, %v]", rtt, MinRTT, MaxRTT)
	}
	t.Logf("window=%d rtt=%v recorded=%d/%d", snd.Window(), snd.RTT(), recCount, total)
}

func TestSaturatorRecordedRateMatchesGroundTruth(t *testing.T) {
	m, _ := trace.CanonicalLink("Verizon-3G-down")
	ground := m.Generate(70*time.Second, rand.New(rand.NewSource(2)))
	_, rcv := saturatorSession(t, ground, 60*time.Second)
	rec := rcv.Trace("measured")
	groundRate := float64(ground.Slice(10*time.Second, 60*time.Second).Count()) / 50
	recRate := float64(rec.Count()) / 60
	if recRate < groundRate*0.8 || recRate > groundRate*1.2 {
		t.Errorf("recorded rate %.1f pkt/s vs ground %.1f pkt/s", recRate, groundRate)
	}
}

func TestSaturatorWindowGrowsOnFastLink(t *testing.T) {
	// On a fast link the initial window of 10 cannot push RTT to 750 ms;
	// the controller must grow it until it can.
	m := trace.LinkModel{Name: "fast", MeanRate: 400, Sigma: 10, Reversion: 1, MaxRate: 600}
	ground := m.Generate(70*time.Second, rand.New(rand.NewSource(3)))
	snd, _ := saturatorSession(t, ground, 60*time.Second)
	// 750 ms of backlog at 400 pkt/s is ~300 packets.
	if snd.Window() < 150 {
		t.Errorf("window = %d, want several hundred to sustain 750ms backlog", snd.Window())
	}
}

func TestSaturatorSurvivesOutage(t *testing.T) {
	// A 5 s outage mid-run: the saturator must not deadlock (the pump
	// timer refills even when echoes stop) and must record the recovery.
	var ops []time.Duration
	for ts := 10 * time.Millisecond; ts < 20*time.Second; ts += 10 * time.Millisecond {
		ops = append(ops, ts)
	}
	for ts := 25 * time.Second; ts < 60*time.Second; ts += 10 * time.Millisecond {
		ops = append(ops, ts)
	}
	ground := &trace.Trace{Name: "outage", Opportunities: ops}
	_, rcv := saturatorSession(t, ground, 55*time.Second)
	rec := rcv.Trace("measured")
	// The recorded trace must contain a gap of roughly the outage
	// length.
	var maxGap time.Duration
	for _, g := range rec.Interarrivals() {
		if g > maxGap {
			maxGap = g
		}
	}
	if maxGap < 4*time.Second {
		t.Errorf("max recorded gap = %v, want ~5s outage", maxGap)
	}
	// And deliveries resumed after it.
	if rec.Duration() < 35*time.Second {
		t.Errorf("recording stopped at %v; saturator deadlocked in outage", rec.Duration())
	}
}

func TestReceiverTraceRebased(t *testing.T) {
	loop := sim.New()
	var echoes []*network.Packet
	rcv := NewReceiver(1, loop, connFunc(func(p *network.Packet) { echoes = append(echoes, p) }))
	loop.After(100*time.Millisecond, func() {
		rcv.Receive(&network.Packet{Payload: appendMarshal(nil, kindProbe, 0, 0)})
	})
	loop.After(150*time.Millisecond, func() {
		rcv.Receive(&network.Packet{Payload: appendMarshal(nil, kindProbe, 1, 0)})
	})
	loop.Run(time.Second)
	tr := rcv.Trace("t")
	if tr.Count() != 2 || tr.Opportunities[0] != 0 || tr.Opportunities[1] != 50*time.Millisecond {
		t.Errorf("trace = %v", tr.Opportunities)
	}
	if len(echoes) != 2 {
		t.Errorf("echoes = %d", len(echoes))
	}
}

type connFunc func(*network.Packet)

func (f connFunc) Send(p *network.Packet) { f(p) }
