// Package e2e tests the live stack end to end: Sprout endpoints speaking
// over real UDP sockets on localhost, through an in-process real-time
// Cellsim relay shaping the path with a cellular trace, and the two sides
// of SproutTunnel on loopback — the same pieces cmd/sproutcat,
// cmd/cellsim and cmd/sprouttunnel assemble.
//
// Wall-clock tests are inherently jittery; assertions are deliberately
// loose (floors well under what a run delivers, not percentages).
package e2e

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"sprout/internal/link"
	"sprout/internal/network"
	"sprout/internal/realtime"
	"sprout/internal/trace"
	"sprout/internal/transport"
	"sprout/internal/udp"
)

// relay is an in-process cellsim: two UDP sockets bridged by trace-shaped
// links.
type relay struct {
	a, b *udp.Conn
}

func newRelay(t *testing.T, clock *realtime.Clock, down, up *trace.Trace) *relay {
	t.Helper()
	a, err := udp.Listen(clock, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := udp.Listen(clock, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &relay{a: a, b: b}
	var downLink, upLink *link.Link
	clock.Do(func() {
		downLink = link.New(clock, link.Config{
			Trace:            down,
			PropagationDelay: 10 * time.Millisecond,
		}, func(p *network.Packet) { b.Send(p) })
		upLink = link.New(clock, link.Config{
			Trace:            up,
			PropagationDelay: 10 * time.Millisecond,
		}, func(p *network.Packet) { a.Send(p) })
	})
	go r.a.Serve(func(p *network.Packet) { downLink.Send(p) })
	go r.b.Serve(func(p *network.Packet) { upLink.Send(p) })
	t.Cleanup(func() { a.Close(); b.Close() })
	return r
}

func TestLiveSproutOverUDPThroughCellsim(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	clock := realtime.New(t.Context())
	// A calm 3 Mb/s link for 30 s of trace (the test runs ~3 s).
	m := trace.LinkModel{Name: "calm", MeanRate: 250, Sigma: 20, Reversion: 1, MaxRate: 400}
	down := m.Generate(30*time.Second, rand.New(rand.NewSource(1)))
	up := m.Generate(30*time.Second, rand.New(rand.NewSource(2)))
	r := newRelay(t, clock, down, up)

	// Receiver side dials cellsim port B; sender dials port A.
	rcvConn, err := udp.Dial(clock, r.b.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rcvConn.Close()
	sndConn, err := udp.Dial(clock, r.a.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer sndConn.Close()

	var rcv *transport.Receiver
	var snd *transport.Sender
	clock.Do(func() {
		rcv = transport.NewReceiver(transport.ReceiverConfig{Clock: clock, Conn: rcvConn})
	})
	go rcvConn.Serve(rcv.Receive)
	clock.Do(func() {
		snd = transport.NewSender(transport.SenderConfig{Clock: clock, Conn: sndConn})
	})
	go sndConn.Serve(snd.Receive)

	// The relay learns each side's address from its first datagram; the
	// receiver speaks only after its first tick, the sender immediately.
	time.Sleep(3 * time.Second)

	var sent uint64
	var got int64
	var feedbacks int64
	clock.Do(func() {
		sent = snd.BytesSent()
		got = rcv.BytesReceived()
		feedbacks = snd.FeedbacksReceived()
	})
	kbps := float64(got) * 8 / 3 / 1000
	t.Logf("live 3s: sent=%dB received=%dB (%.0f kbps) feedbacks=%d",
		sent, got, kbps, feedbacks)
	// The flow delivers 1.5–2.0 Mb/s here, and 2.1 Mb/s on a virtual loop:
	// the driver's late wakes cost the rest (DESIGN.md §2).
	if kbps < 1000 {
		t.Errorf("received %d bytes in 3 s (%.0f kbps) over a 3 Mb/s path, want at least 1 Mb/s", got, kbps)
	}
	if feedbacks < 20 {
		t.Errorf("sender saw %d feedbacks, want dozens", feedbacks)
	}
	if sent < uint64(got) {
		t.Errorf("accounting: sent %d < received %d", sent, got)
	}
}

func TestLiveRelayShapesRate(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	clock := realtime.New(t.Context())
	// A very slow link: 20 pkt/s = 240 kb/s. Blasting 2 Mb/s through it
	// for 2 s must deliver roughly 2 s worth of its capacity, proving
	// the relay enforces the trace.
	m := trace.LinkModel{Name: "slow", MeanRate: 20, Sigma: 1, Reversion: 1, MaxRate: 30}
	down := m.Generate(30*time.Second, rand.New(rand.NewSource(3)))
	up := m.Generate(30*time.Second, rand.New(rand.NewSource(4)))
	r := newRelay(t, clock, down, up)

	src, err := udp.Dial(clock, r.a.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := udp.Dial(clock, r.b.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	var received atomic.Int64
	go dst.Serve(func(p *network.Packet) { received.Add(int64(p.Size)) })
	// Register dst with the relay so it learns the address.
	dst.Send(&network.Packet{Size: 10, Payload: []byte("hi")})

	stop := time.After(2 * time.Second)
	payload := make([]byte, 1400)
blast:
	for {
		select {
		case <-stop:
			break blast
		default:
			src.Send(&network.Packet{Size: 1500, Payload: payload})
			time.Sleep(5 * time.Millisecond) // ~2.4 Mb/s offered
		}
	}
	time.Sleep(500 * time.Millisecond) // drain
	kbps := float64(received.Load()) * 8 / 2.5 / 1000
	t.Logf("offered ~2400 kbps, delivered %.0f kbps (trace mean 240)", kbps)
	if kbps > 600 {
		t.Errorf("relay failed to shape: %.0f kbps through a 240 kb/s trace", kbps)
	}
	if kbps < 50 {
		t.Errorf("relay over-throttled: %.0f kbps", kbps)
	}
}
