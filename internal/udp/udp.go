// Package udp adapts the Sprout endpoints to real UDP sockets, making the
// transport usable outside the simulator (cmd/sproutcat). A Conn satisfies
// the transport/tcp/app Conn interfaces: Send writes one datagram per
// packet, padding to the packet's declared wire size so on-path traffic
// shaping sees the same byte profile the emulator accounts.
package udp

import (
	"fmt"
	"net"
	"sync/atomic"

	"sprout/internal/network"
	"sprout/internal/realtime"
)

// Conn is a UDP adapter bound to one peer.
type Conn struct {
	sock  *net.UDPConn
	clock *realtime.Clock

	// peer is the destination address; for a listening endpoint it is
	// learned from the first inbound datagram.
	peer atomic.Pointer[net.UDPAddr]
}

// Dial creates a connected adapter sending to addr.
func Dial(clock *realtime.Clock, addr string) (*Conn, error) {
	peer, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udp: resolve %q: %w", addr, err)
	}
	sock, err := net.ListenUDP("udp", nil)
	if err != nil {
		return nil, fmt.Errorf("udp: listen: %w", err)
	}
	c := &Conn{sock: sock, clock: clock}
	c.peer.Store(peer)
	return c, nil
}

// Listen creates an adapter bound to laddr whose peer is learned from the
// first inbound datagram (the rendezvous style of the original sprout).
func Listen(clock *realtime.Clock, laddr string) (*Conn, error) {
	a, err := net.ResolveUDPAddr("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("udp: resolve %q: %w", laddr, err)
	}
	sock, err := net.ListenUDP("udp", a)
	if err != nil {
		return nil, fmt.Errorf("udp: listen %q: %w", laddr, err)
	}
	return &Conn{sock: sock, clock: clock}, nil
}

// LocalAddr returns the bound address.
func (c *Conn) LocalAddr() net.Addr { return c.sock.LocalAddr() }

// Send implements the endpoint Conn interface. The datagram is padded to
// pkt.Size bytes (headers first, zero padding after), so the wire profile
// matches the emulator's byte accounting.
func (c *Conn) Send(pkt *network.Packet) {
	peer := c.peer.Load()
	if peer == nil {
		return // no peer yet; drop (UDP semantics)
	}
	buf := pkt.Payload
	if pkt.Size > len(buf) {
		padded := make([]byte, pkt.Size)
		copy(padded, buf)
		buf = padded
	}
	_, _ = c.sock.WriteToUDP(buf, peer) // a failed write is a lost datagram (UDP semantics)
}

// Serve reads datagrams and hands them to handler inside the clock's
// serialization lock, until the socket closes. It blocks; run it on its own
// goroutine.
func (c *Conn) Serve(handler network.Handler) error {
	buf := make([]byte, 64*1024)
	for {
		n, from, err := c.sock.ReadFromUDP(buf)
		if err != nil {
			return err
		}
		if c.peer.Load() == nil {
			c.peer.Store(from)
		}
		payload := make([]byte, n)
		copy(payload, buf[:n])
		pkt := &network.Packet{
			Size:    n,
			Payload: payload,
			SentAt:  c.clock.Now(), // receive-side stamp; senders embed their own timing in headers
		}
		c.clock.Do(func() { handler(pkt) })
	}
}

// Close closes the socket, unblocking Serve.
func (c *Conn) Close() error { return c.sock.Close() }
