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
	"sprout/internal/transport"
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
	const sessDown, sessUp = 1, 2
	var rcvDown, rcvUp *transport.Receiver
	var sndDown, sndUp *transport.Sender
	fwd := link.New(loop, link.Config{Trace: data, PropagationDelay: 20 * time.Millisecond},
		func(p *network.Packet) {
			if p.Flow == sessDown {
				rcvDown.Receive(p)
			} else {
				sndUp.Receive(p)
			}
		})
	rev := link.New(loop, link.Config{Trace: fb, PropagationDelay: 20 * time.Millisecond},
		func(p *network.Packet) {
			if p.Flow == sessDown {
				sndDown.Receive(p)
			} else {
				rcvUp.Receive(p)
			}
		})
	ingressDown := tunnel.NewIngress()
	ingressUp := tunnel.NewIngress()
	var tcpRcv *tcp.Receiver
	var tcpSnd *tcp.Sender
	egressDown := tunnel.NewEgress(loop, func(p *network.Packet) { tcpRcv.Receive(p) })
	egressDown.RecordDeliveries(true)
	egressUp := tunnel.NewEgress(loop, func(p *network.Packet) { tcpSnd.Receive(p) })
	rcvDown = transport.NewReceiver(transport.ReceiverConfig{Flow: sessDown, Clock: loop, Conn: rev, Deliver: egressDown.Deliver})
	sndDown = transport.NewSender(transport.SenderConfig{Flow: sessDown, Clock: loop, Conn: fwd, Source: ingressDown})
	ingressDown.Bind(sndDown)
	rcvUp = transport.NewReceiver(transport.ReceiverConfig{Flow: sessUp, Clock: loop, Conn: fwd, Deliver: egressUp.Deliver})
	sndUp = transport.NewSender(transport.SenderConfig{Flow: sessUp, Clock: loop, Conn: rev, Source: ingressUp})
	ingressUp.Bind(sndUp)
	tcpRcv = tcp.NewReceiver(flowCubic, loop, network.ConnFunc(func(p *network.Packet) { ingressUp.Submit(p) }))
	tcpSnd = tcp.NewSender(tcp.SenderConfig{
		Flow: flowCubic, Clock: loop,
		Conn: network.ConnFunc(func(p *network.Packet) { ingressDown.Submit(p) }),
		CC:   tcp.NewCubic(loop.Now), MSS: scenario.TunnelClientMSS,
	})
	for ts := time.Second; ts <= 15*time.Second; ts += time.Second {
		loop.Run(ts)
		segs, retx, to, fr := tcpSnd.Stats()
		t.Logf("t=%v next=%d segs=%d retx=%d to=%d fr=%d inflight=%d blogDown=%d blogUp=%d winDown=%d winUp=%d fcDown=%d",
			ts, tcpRcv.NextExpected(), segs, retx, to, fr, tcpSnd.InFlight(),
			ingressDown.Backlog(), ingressUp.Backlog(), sndDown.Window(), sndUp.Window(), sndDown.ForecastTotal())
	}
	loop.Run(opt.Duration)
	kbps = metrics.Throughput(egressDown.TakeDeliveries(), opt.Skip, opt.Duration) / 1000
	_, _, to, _ := tcpSnd.Stats()
	return kbps, to, ingressDown.HeadDrops()
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
