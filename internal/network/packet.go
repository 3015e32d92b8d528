// Package network defines the packet type and addressing shared by the
// emulated links, protocol endpoints, and the tunnel. It is deliberately
// tiny: links move Packets, endpoints produce and consume them.
package network

import "time"

// MTU is the maximum packet size in bytes, matching the paper's MTU-sized
// packets and the per-opportunity byte budget of the trace format.
const MTU = 1500

// Packet is one datagram in flight. The network treats the payload as
// opaque; protocol headers are serialized into Payload by internal/protocol.
// Size is the wire size (headers + padding), which is what consumes link
// capacity; Payload may be shorter than Size.
type Packet struct {
	// Flow distinguishes independent flows sharing a link (used by the
	// tunnel and the competing-traffic experiments).
	Flow uint32
	// Seq is an opaque per-flow identifier carried for logging.
	Seq int64
	// Size is the number of bytes the packet occupies on the wire.
	Size int
	// Payload is the serialized protocol header (and any real payload).
	Payload []byte
	// SentAt is the virtual time the packet left the sending endpoint.
	SentAt time.Duration
	// EnqueuedAt is stamped by the link when the packet joins the
	// bottleneck queue; AQMs use it to compute sojourn time.
	EnqueuedAt time.Duration
}

// Handler consumes delivered packets.
type Handler func(pkt *Packet)

// Conn carries packets toward a peer: an emulated link, a tunnel ingress,
// a UDP socket adapter, or any function via ConnFunc.
type Conn interface {
	Send(pkt *Packet)
}

// ConnFunc adapts a function to Conn.
type ConnFunc func(pkt *Packet)

// Send implements Conn.
func (f ConnFunc) Send(pkt *Packet) { f(pkt) }
