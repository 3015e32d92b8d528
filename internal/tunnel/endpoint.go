package tunnel

import (
	"sprout/internal/network"
	"sprout/internal/protocol"
	"sprout/internal/sim"
	"sprout/internal/transport"
)

// Config wires one side of the tunnel. Clock and Conn, which carries both
// of the side's sessions toward the far side, are required.
type Config struct {
	Clock sim.Clock
	Conn  network.Conn
	// Send is the Sprout session this side's client traffic leaves on,
	// Recv the far side's, whose client packets go to Deliver (may be
	// nil; it must not keep a packet once it returns).
	Send, Recv uint32
	Deliver    network.Handler
	// Pool, if non-nil, is the arena every packet of this side comes from.
	Pool *network.Pool
}

// Endpoint is one side of SproutTunnel: client packets enter through
// Ingress.Submit and ride session Send; session Recv's leave through Egress.
type Endpoint struct {
	Ingress  *Ingress
	Egress   *Egress
	Sender   *transport.Sender
	Receiver *transport.Receiver

	send, recv uint32
}

// New builds one side of the tunnel. The receiver is built before the
// sender: each arms a timer at construction and the event loop breaks
// timestamp ties by insertion order, so the order is part of the
// determinism contract (DESIGN.md §4).
func New(cfg Config) *Endpoint {
	e := &Endpoint{
		Ingress: newIngress(cfg.Pool),
		Egress:  newEgress(cfg.Clock, cfg.Deliver, cfg.Pool),
		send:    cfg.Send,
		recv:    cfg.Recv,
	}
	e.Receiver = transport.NewReceiver(transport.ReceiverConfig{
		Flow: cfg.Recv, Clock: cfg.Clock, Conn: cfg.Conn, Deliver: e.Egress.deliver, Pool: cfg.Pool,
	})
	e.Sender = transport.NewSender(transport.SenderConfig{
		Flow: cfg.Send, Clock: cfg.Clock, Conn: cfg.Conn, Source: e.Ingress, Pool: cfg.Pool,
	})
	e.Ingress.sender = e.Sender
	return e
}

// Receive routes a packet from the far side by the session id in its
// Sprout header, not by Packet.Flow, so it serves socket datagrams too: the
// far side's data to the receiver, its forecasts to the sender. Any other
// packet is dropped.
func (e *Endpoint) Receive(p *network.Packet) {
	flow, ok := protocol.FlowOf(p.Payload)
	switch {
	case ok && flow == e.recv:
		e.Receiver.Receive(p)
	case ok && flow == e.send:
		e.Sender.Receive(p)
	}
}
