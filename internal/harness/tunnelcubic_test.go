package harness

import (
	"testing"
	"time"

	"sprout/internal/link"
	"sprout/internal/metrics"
	"sprout/internal/network"
	"sprout/internal/scenario"
	"sprout/internal/sim"
	"sprout/internal/tcp"
	"sprout/internal/trace"
	"sprout/internal/tunnel"
)

// tunnelOnlyCubic runs a single Cubic bulk flow through SproutTunnel and
// reports its throughput, isolating head-drop/retransmission dynamics from
// round-robin competition.
func tunnelOnlyCubic(t *testing.T, dur, skip time.Duration) (kbps float64, timeouts, drops int64) {
	t.Helper()
	opt := Options{Duration: dur, Skip: skip}.withDefaults()
	pair := trace.CanonicalNetworks()[0]
	data, fb := scenario.GenerateTracePair(pair, "down", opt.Duration, opt.Seed)

	loop := sim.New()
	// Side A sends on session 1 over fwd; side B answers on session 2.
	var a, b *tunnel.Endpoint
	fwd := link.New(loop, link.Config{Trace: data, PropagationDelay: 20 * time.Millisecond},
		func(p *network.Packet) { b.Receive(p) })
	rev := link.New(loop, link.Config{Trace: fb, PropagationDelay: 20 * time.Millisecond},
		func(p *network.Packet) { a.Receive(p) })
	var tcpRcv *tcp.Receiver
	var tcpSnd *tcp.Sender
	a = tunnel.New(tunnel.Config{Clock: loop, Conn: fwd, Send: 1, Recv: 2,
		Deliver: func(p *network.Packet) { tcpSnd.Receive(p) }})
	b = tunnel.New(tunnel.Config{Clock: loop, Conn: rev, Send: 2, Recv: 1,
		Deliver: func(p *network.Packet) { tcpRcv.Receive(p) }})
	var deliveries []link.Delivery
	b.Egress.OnDelivery(func(d link.Delivery) { deliveries = append(deliveries, d) })
	tcpRcv = tcp.NewReceiver(flowCubic, loop, network.ConnFunc(b.Ingress.Submit))
	tcpSnd = tcp.NewSender(tcp.SenderConfig{
		Flow: flowCubic, Clock: loop, Conn: network.ConnFunc(a.Ingress.Submit),
		CC: tcp.NewCubic(loop.Now), MSS: scenario.TunnelClientMSS,
	})
	for ts := time.Second; ts <= 15*time.Second; ts += time.Second {
		loop.Run(ts)
		segs, retx, to, fr := tcpSnd.Stats()
		t.Logf("t=%v next=%d segs=%d retx=%d to=%d fr=%d inflight=%d blogDown=%d blogUp=%d winDown=%d winUp=%d fcDown=%d",
			ts, tcpRcv.NextExpected(), segs, retx, to, fr, tcpSnd.InFlight(),
			a.Ingress.Backlog(), b.Ingress.Backlog(), a.Sender.Window(), b.Sender.Window(), a.Sender.ForecastTotal())
	}
	loop.Run(opt.Duration)
	kbps = metrics.Throughput(deliveries, opt.Skip, opt.Duration) / 1000
	_, _, to, _ := tcpSnd.Stats()
	return kbps, to, a.Ingress.HeadDrops()
}

func TestTunnelCubicAlone(t *testing.T) {
	kbps, timeouts, drops := tunnelOnlyCubic(t, 60*time.Second, 15*time.Second)
	t.Logf("cubic alone via tunnel: %.0f kbps, timeouts=%d, headDrops=%d", kbps, timeouts, drops)
	// A lone bulk TCP through the tunnel should achieve a large share of
	// the link (the paper's tunneled Cubic kept multi-Mb/s throughput).
	if kbps < 1500 {
		t.Errorf("tunneled solo cubic = %.0f kbps, want > 1500", kbps)
	}
}
