package link

import "sprout/internal/network"

// FIFO is the bottleneck queue of an emulated link: a first-in first-out
// packet queue with byte accounting. Cellular base stations in the paper
// maintain one deep FIFO per user (§2.1); this is that queue.
//
// It is backed by a power-of-two ring, so a steady-state link (pushes and
// pops balanced) never reallocates: the head-sliced append queue it
// replaces leaked capacity on every wrap and reallocated periodically.
type FIFO struct {
	q     ring[*network.Packet]
	bytes int
}

// Len returns the number of queued packets.
func (f *FIFO) Len() int { return f.q.len() }

// Bytes returns the number of queued bytes.
func (f *FIFO) Bytes() int { return f.bytes }

// Push appends a packet to the tail.
func (f *FIFO) Push(p *network.Packet) {
	f.q.push(p)
	f.bytes += p.Size
}

// Pop removes and returns the head packet, or nil.
func (f *FIFO) Pop() *network.Packet {
	if f.q.empty() {
		return nil
	}
	p := f.q.pop()
	f.bytes -= p.Size
	return p
}

// Reset empties the queue, dropping all packet references while keeping the
// ring storage for reuse. It neither releases nor reads the packets: it runs
// at a world boundary, where Pool.Reset hands the arena on to any world.
func (f *FIFO) Reset() {
	f.q.reset()
	f.bytes = 0
}
