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

	fromServer := make(chan struct{}, 1)
	go client.Serve(func(p *network.Packet) { fromServer <- struct{}{} })
	atServer := make(chan struct{}, 1)
	go server.Serve(func(p *network.Packet) {
		select {
		case atServer <- struct{}{}:
		default:
		}
	})

	// Server has no peer yet: its sends drop silently.
	server.Send(&network.Packet{Size: 10, Payload: []byte("x")})
	// Client speaks first; server learns the peer and can reply.
	client.Send(&network.Packet{Size: 10, Payload: []byte("syn")})
	select {
	case <-atServer:
	case <-time.After(2 * time.Second):
		t.Fatal("server never heard client")
	}
	server.Send(&network.Packet{Size: 10, Payload: []byte("ack")})
	select {
	case <-fromServer:
	case <-time.After(2 * time.Second):
		t.Fatal("client never heard server reply")
	}
	sent, recv := client.sent.Load(), client.received.Load()
	if sent == 0 || recv == 0 {
		t.Errorf("client stats sent=%d recv=%d", sent, recv)
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

func TestSendWithoutPeerDrops(t *testing.T) {
	clock := realtime.New()
	conn, err := Listen(clock, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Send(&network.Packet{Size: 10, Payload: []byte("x")}) // must not panic
	sent := conn.sent.Load()
	if sent != 0 {
		t.Errorf("sent = %d without a peer", sent)
	}
}
