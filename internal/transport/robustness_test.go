package transport

import (
	"math/rand"
	"testing"
	"time"

	"sprout/internal/link"
	"sprout/internal/network"
	"sprout/internal/sim"
)

// TestSproutSurvivesLossyFeedback puts 20% loss on the reverse (forecast)
// path: the sender must keep working off stale forecasts without stalling,
// since feedback arrives every tick and the forecast covers 160 ms.
func TestSproutSurvivesLossyFeedback(t *testing.T) {
	loop := sim.New()
	var rcv *Receiver
	var snd *Sender
	fwd := link.New(loop, link.Config{
		Trace:            steadyTrace(300, 65*time.Second, 1),
		PropagationDelay: 20 * time.Millisecond,
	}, func(p *network.Packet) { rcv.Receive(p) })
	fwdLog := keepDeliveries(fwd)
	rev := link.New(loop, link.Config{
		Trace:            steadyTrace(100, 65*time.Second, 2),
		PropagationDelay: 20 * time.Millisecond,
		LossRate:         0.2,
		Rand:             rand.New(rand.NewSource(3)),
	}, func(p *network.Packet) { snd.Receive(p) })
	rcv = NewReceiver(ReceiverConfig{Clock: loop, Conn: rev})
	snd = NewSender(SenderConfig{Clock: loop, Conn: fwd})
	loop.Run(60 * time.Second)

	var bytes int64
	for _, d := range *fwdLog {
		if d.DeliveredAt > 10*time.Second {
			bytes += int64(d.Size)
		}
	}
	kbps := float64(bytes) * 8 / 50 / 1000
	if kbps < 1000 {
		t.Errorf("throughput with 20%% feedback loss = %.0f kbps, want > 1000", kbps)
	}
	if snd.FeedbacksReceived() < 500 {
		t.Errorf("feedbacks received = %d", snd.FeedbacksReceived())
	}
}

// TestSproutTotalFeedbackBlackoutStopsSender cuts the reverse path
// entirely mid-run: within the forecast horizon the sender must fall back
// to heartbeats/probes only, never blasting blind.
func TestSproutTotalFeedbackBlackoutStopsSender(t *testing.T) {
	loop := sim.New()
	var rcv *Receiver
	var snd *Sender
	blackout := false
	fwd := link.New(loop, link.Config{
		Trace:            steadyTrace(300, 45*time.Second, 4),
		PropagationDelay: 20 * time.Millisecond,
	}, func(p *network.Packet) { rcv.Receive(p) })
	fwdLog := keepDeliveries(fwd)
	rev := link.New(loop, link.Config{
		Trace:            steadyTrace(100, 45*time.Second, 5),
		PropagationDelay: 20 * time.Millisecond,
	}, func(p *network.Packet) {
		if !blackout {
			snd.Receive(p)
		}
	})
	rcv = NewReceiver(ReceiverConfig{Clock: loop, Conn: rev})
	snd = NewSender(SenderConfig{Clock: loop, Conn: fwd})
	loop.After(20*time.Second, func() { blackout = true })
	loop.Run(40 * time.Second)

	// Sent rate after the blackout (plus the 160 ms forecast tail) must
	// collapse to probe/heartbeat levels: well under 100 kbps versus
	// multi-Mbps before.
	var before, after int64
	for _, d := range *fwdLog {
		switch {
		case d.SentAt > 5*time.Second && d.SentAt < 20*time.Second:
			before += int64(d.Size)
		case d.SentAt > 21*time.Second:
			after += int64(d.Size)
		}
	}
	beforeKbps := float64(before) * 8 / 15 / 1000
	afterKbps := float64(after) * 8 / 19 / 1000
	if beforeKbps < 1000 {
		t.Fatalf("setup: pre-blackout rate %.0f kbps too low", beforeKbps)
	}
	if afterKbps > 200 {
		t.Errorf("sender kept sending %.0f kbps blind after feedback blackout", afterKbps)
	}
}

// TestReceiverIgnoresCorruptPackets feeds garbage and truncated packets.
func TestReceiverIgnoresCorruptPackets(t *testing.T) {
	loop := sim.New()
	rcv := NewReceiver(ReceiverConfig{
		Clock: loop,
		Conn:  network.ConnFunc(func(p *network.Packet) {}),
	})
	rcv.Receive(&network.Packet{Payload: []byte{0xFF, 0x01}, Size: 2})
	rcv.Receive(&network.Packet{Payload: nil, Size: 0})
	bad := make([]byte, 76)
	bad[0] = 99 // wrong version
	rcv.Receive(&network.Packet{Payload: bad, Size: 76})
	if rcv.PacketsReceived() != 0 {
		t.Errorf("corrupt packets were counted: %d", rcv.PacketsReceived())
	}
	if rcv.parseErrors != 3 {
		t.Errorf("parseErrors = %d, want 3", rcv.parseErrors)
	}
}

// TestSenderConfidenceSweepViaConfig verifies lower confidence raises the
// achieved rate on the same link (the §5.5 mechanism, unit scale).
func TestSenderConfidenceSweepViaConfig(t *testing.T) {
	run := func(conf float64) float64 {
		loop := sim.New()
		var rcv *Receiver
		var snd *Sender
		fwd := link.New(loop, link.Config{
			Trace:            steadyTrace(200, 35*time.Second, 6),
			PropagationDelay: 20 * time.Millisecond,
		}, func(p *network.Packet) { rcv.Receive(p) })
		fwdLog := keepDeliveries(fwd)
		rev := link.New(loop, link.Config{
			Trace:            steadyTrace(100, 35*time.Second, 7),
			PropagationDelay: 20 * time.Millisecond,
		}, func(p *network.Packet) { snd.Receive(p) })
		fc := newForecasterWithConfidence(conf)
		rcv = NewReceiver(ReceiverConfig{Clock: loop, Conn: rev, Forecaster: fc})
		snd = NewSender(SenderConfig{Clock: loop, Conn: fwd})
		loop.Run(30 * time.Second)
		var bytes int64
		for _, d := range *fwdLog {
			if d.DeliveredAt > 8*time.Second {
				bytes += int64(d.Size)
			}
		}
		return float64(bytes)
	}
	cautious := run(0.95)
	bold := run(0.25)
	if bold <= cautious {
		t.Errorf("25%% confidence (%v bytes) should beat 95%% (%v bytes)", bold, cautious)
	}
}
