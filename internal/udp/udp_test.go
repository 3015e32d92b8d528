package udp

import (
	"testing"
	"time"

	"sprout/internal/network"
	"sprout/internal/realtime"
)

func TestDatagramRoundTrip(t *testing.T) {
	clock := realtime.New()
	server, err := Listen(clock, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := Dial(clock, server.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	got := make(chan *network.Packet, 1)
	go server.Serve(func(p *network.Packet) { got <- p })

	client.Send(&network.Packet{Size: 100, Payload: []byte("hello")})
	select {
	case p := <-got:
		if p.Size != 100 {
			t.Errorf("size = %d, want 100 (padded)", p.Size)
		}
		if string(p.Payload[:5]) != "hello" {
			t.Errorf("payload prefix = %q", p.Payload[:5])
		}
		for _, b := range p.Payload[5:] {
			if b != 0 {
				t.Error("padding not zeroed")
				break
			}
		}
	case <-time.After(2 * time.Second):
		t.Fatal("datagram never arrived")
	}
}

// received returns a handler that passes each datagram's payload to a
// channel of the given capacity, dropping what does not fit.
func received(n int) (network.Handler, chan string) {
	ch := make(chan string, n)
	return func(p *network.Packet) {
		select {
		case ch <- string(p.Payload):
		default:
		}
	}, ch
}

// next returns the next payload from ch, failing the test after two
// seconds without one.
func next(t *testing.T, ch chan string, what string) string {
	t.Helper()
	select {
	case s := <-ch:
		return s
	case <-time.After(2 * time.Second):
		t.Fatal(what)
		return ""
	}
}

func TestListenerLearnsPeer(t *testing.T) {
	clock := realtime.New()
	server, err := Listen(clock, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := Dial(clock, server.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	atClient, fromServer := received(4)
	go client.Serve(atClient)
	atServer, fromClient := received(4)
	go server.Serve(atServer)

	// Client speaks first; server learns the peer and can reply.
	client.Send(&network.Packet{Size: 3, Payload: []byte("syn")})
	if got := next(t, fromClient, "server never heard client"); got != "syn" {
		t.Errorf("server heard %q, want \"syn\"", got)
	}
	server.Send(&network.Packet{Size: 3, Payload: []byte("ack")})
	if got := next(t, fromServer, "client never heard server reply"); got != "ack" {
		t.Errorf("client heard %q, want \"ack\"", got)
	}
}

func TestCloseUnblocksServe(t *testing.T) {
	clock := realtime.New()
	conn, err := Listen(clock, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- conn.Serve(func(*network.Packet) {}) }()
	time.Sleep(50 * time.Millisecond)
	conn.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Serve returned nil after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not unblock on Close")
	}
}

// TestSendWithoutPeerDrops: a send before the peer is known is dropped,
// not held for the peer learned later: the peer's first datagram is the
// one sent after it spoke.
func TestSendWithoutPeerDrops(t *testing.T) {
	clock := realtime.New()
	conn, err := Listen(clock, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Send(&network.Packet{Size: 1, Payload: []byte("x")}) // must not panic

	peer, err := Dial(clock, conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	atPeer, fromConn := received(4)
	go peer.Serve(atPeer)
	atConn, fromPeer := received(4)
	go conn.Serve(atConn)
	peer.Send(&network.Packet{Size: 3, Payload: []byte("syn")})
	next(t, fromPeer, "conn never heard its peer")
	conn.Send(&network.Packet{Size: 3, Payload: []byte("ack")})
	if got := next(t, fromConn, "peer never heard conn"); got != "ack" {
		t.Errorf("peer's first datagram is %q, want \"ack\"", got)
	}
}
