package e2e

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"sprout/internal/network"
	"sprout/internal/protocol"
	"sprout/internal/realtime"
	"sprout/internal/tunnel"
	"sprout/internal/udp"
)

// tunnelSide is one side of a live tunnel, as one cmd/sprouttunnel
// process holds it: its own clock, socket and endpoint, and the client
// datagrams its egress delivered, per flow in arrival order.
type tunnelSide struct {
	name  string
	clock *realtime.Clock
	ep    *tunnel.Endpoint

	mu  sync.Mutex
	got map[uint32][]string
}

func newTunnelSide(t *testing.T, name string, clock *realtime.Clock, sock *udp.Conn, send, recv uint32) *tunnelSide {
	t.Helper()
	s := &tunnelSide{name: name, clock: clock, got: map[uint32][]string{}}
	clock.Do(func() {
		s.ep = tunnel.New(tunnel.Config{Clock: clock, Conn: sock, Send: send, Recv: recv, Deliver: func(p *network.Packet) {
			s.mu.Lock()
			s.got[p.Flow] = append(s.got[p.Flow], string(p.Payload))
			s.mu.Unlock()
		}})
	})
	go sock.Serve(s.ep.Receive)
	t.Cleanup(func() { sock.Close() })
	return s
}

// submit hands one client datagram to the side's ingress.
func (s *tunnelSide) submit(flow uint32, payload string) {
	s.clock.Do(func() {
		s.ep.Ingress.Submit(&network.Packet{Flow: flow, Size: len(payload), Payload: []byte(payload), SentAt: s.clock.Now()})
	})
}

// read runs fn on the side's clock and returns its result.
func read[T any](s *tunnelSide, fn func(*tunnel.Endpoint) T) T {
	var v T
	s.clock.Do(func() { v = fn(s.ep) })
	return v
}

// waitFor polls cond every millisecond until it holds or d has passed.
func waitFor(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestLiveTunnelOverUDP runs SproutTunnel's two sides over loopback UDP,
// each on its own real-time clock and socket: side A carries two client
// flows to side B and B one back. Live datagrams carry no Packet.Flow, so
// each side must route them by the session id in their Sprout headers.
// Every client datagram a side's sender sends must arrive within 3 s, on
// its flow, in order and intact; a datagram of a foreign session must be
// dropped.
func TestLiveTunnelOverUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	const sessAB, sessBA = 1, 2 // Sprout sessions A→B and B→A
	clockB := realtime.New(t.Context())
	sockB, err := udp.Listen(clockB, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctxA, stopA := context.WithCancel(t.Context())
	clockA := realtime.New(ctxA)
	sockA, err := udp.Dial(clockA, sockB.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	b := newTunnelSide(t, "B", clockB, sockB, sessBA, sessAB)
	a := newTunnelSide(t, "A", clockA, sockA, sessAB, sessBA)

	// B learns A's address from A's first datagram; until then what B
	// sends is lost. A forecast from A's receiver reaching B's sender
	// shows that B has heard from A.
	if !waitFor(2*time.Second, func() bool {
		return read(b, func(ep *tunnel.Endpoint) int64 { return ep.Sender.FeedbacksReceived() }) > 0
	}) {
		t.Fatal("B's sender heard no forecast from A in 2 s")
	}

	const n = 50
	sent := map[*tunnelSide]map[uint32][]string{a: {}, b: {}} // by receiving side
	for i := range n {
		for _, f := range []struct {
			from, to *tunnelSide
			flow     uint32
		}{{a, b, 10}, {a, b, 11}, {b, a, 10}} {
			payload := fmt.Sprintf("%s flow %d datagram %02d", f.from.name, f.flow, i)
			f.from.submit(f.flow, payload)
			sent[f.to][f.flow] = append(sent[f.to][f.flow], payload)
		}
	}

	// Each data packet a side's sender sends carries one client datagram,
	// and each must arrive. A sender can also take a datagram from its
	// ingress and then find it too large for the window: it is lost there,
	// a known fault logged below; nothing else may lose one.
	type direction struct{ from, to *tunnelSide }
	type tally struct{ sent, backlog, drops int64 }
	sender := func(d direction) tally {
		return read(d.from, func(ep *tunnel.Endpoint) tally {
			return tally{ep.Sender.PacketsSent(), int64(ep.Ingress.Backlog()), ep.Ingress.HeadDrops()}
		})
	}
	arrived := func(d direction) int64 {
		d.to.mu.Lock()
		defer d.to.mu.Unlock()
		var got int
		for _, g := range d.to.got {
			got += len(g)
		}
		return int64(got)
	}
	dirs := []direction{{a, b}, {b, a}}
	if !waitFor(3*time.Second, func() bool {
		for _, d := range dirs {
			if tl := sender(d); tl.backlog > 0 || arrived(d) < tl.sent {
				return false
			}
		}
		return true
	}) {
		t.Error("not every client datagram left its ingress and arrived within 3 s")
	}
	for _, d := range dirs {
		tl, got, want := sender(d), arrived(d), int64(len(sent[d.to])*n)
		if got != tl.sent {
			t.Errorf("%s→%s: %d client datagrams arrived of %d sent", d.from.name, d.to.name, got, tl.sent)
		}
		if lost := want - tl.sent - tl.backlog - tl.drops; lost > 0 || tl.drops > 0 {
			t.Logf("%s→%s: of %d client datagrams %d were head-dropped and %d lost at the sender", d.from.name, d.to.name, want, tl.drops, lost)
		}
		d.to.mu.Lock()
		for flow, w := range sent[d.to] {
			if got := d.to.got[flow]; len(got) == 0 || !inOrder(got, w) {
				t.Errorf("%s got %d datagrams of flow %d (%q...), want a nonempty in-order run of the %d sent", d.to.name, len(got), flow, head(got), len(w))
			}
		}
		for flow := range d.to.got {
			if _, ok := sent[d.to][flow]; !ok {
				t.Errorf("%s got a datagram of flow %d, which sent none its way", d.to.name, flow)
			}
		}
		d.to.mu.Unlock()
	}

	// Quiet A, then send B a datagram of a foreign session and, after it,
	// one of A's session: B's socket hands them over in order, so once the
	// second is counted the first has been routed, and only the second may
	// reach B's receiver.
	stopA()
	sockA.Close()
	time.Sleep(50 * time.Millisecond)
	before := read(b, func(ep *tunnel.Endpoint) int64 { return ep.Receiver.PacketsReceived() })
	raw, err := net.Dial("udp", sockB.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	for _, flow := range []uint32{99, sessAB} {
		hdr, _ := (&protocol.Header{Flow: flow, Seq: 1 << 40}).Marshal(nil)
		if _, err := raw.Write(hdr); err != nil {
			t.Fatal(err)
		}
	}
	counted := func() int64 {
		return read(b, func(ep *tunnel.Endpoint) int64 { return ep.Receiver.PacketsReceived() }) - before
	}
	if !waitFor(time.Second, func() bool { return counted() > 0 }) {
		t.Fatal("B's receiver never counted the datagram of its own session")
	}
	if got := counted(); got != 1 {
		t.Errorf("B's receiver counted %d datagrams after a foreign one and one of its session, want 1", got)
	}
}

func head(s []string) []string { return s[:min(len(s), 2)] }

// inOrder reports whether got is want with some elements left out: each
// datagram intact, none twice, none out of order.
func inOrder(got, want []string) bool {
	for _, g := range got {
		i := slices.Index(want, g)
		if i < 0 {
			return false
		}
		want = want[i+1:]
	}
	return true
}
