package network

import "sync"

// poolBlock is how many packets the pool allocates at once; poolPayloadCap
// is the payload capacity each of them carries inline, next to its
// metadata, so a queued packet is 96 contiguous bytes. 32 bytes holds the
// headers that sit in deep queues — an app scheme's 9-byte media and
// 25-byte report formats, TCP's 21-byte header, the saturator's 17. A
// packet whose payload outgrows it (Sprout's 76-byte header plus forecast,
// a frame the tunnel egress reconstructs) keeps the buffer append grew for
// it: that arena slot carries the larger buffer through every later reuse
// and allocates no more.
const (
	poolBlock      = 64
	poolPayloadCap = 32
)

// pooled is one arena element: a packet and the storage its fresh Payload
// points into.
type pooled struct {
	Packet
	buf [poolPayloadCap]byte
}

// deadSize marks a released packet. No live packet has a negative wire
// size, so a second Put — or a write to a packet after its release that
// happens to touch Size — is caught at the next Put or Get.
const deadSize = -1

// Pool is the packet arena of one simulation world: it holds what is in
// flight, not everything a run ever sent. Endpoints draw every wire packet
// from it with Get; whoever takes a packet out of the network hands it
// back with Put, and the next Get reuses it (LIFO, so a recycled packet is
// cache-warm). The arena therefore grows to a run's high-water mark of
// simultaneously live packets and no further, whatever the run's duration.
// Reset hands the blocks to a process-wide stock that every pool's Get
// draws on first, so a process's arenas hold the most packets live at once
// across its pools, and a *reused* world (engine worker-state reuse)
// allocates nothing at all.
//
// The ownership rule: a packet belongs to whoever holds it — the endpoint
// that built it until Conn.Send, then the network. The component that
// takes it out of the network releases it, exactly once: a link or tower
// after its delivery handler returns and at every drop site, the tunnel
// ingress once the packet is copied into a frame, the tunnel egress after
// its handler returns. A delivery handler must therefore not keep pkt or
// pkt.Payload after it returns. Put marks the packet dead (Size -1,
// payload truncated); releasing a dead packet panics, and so does Get when
// a free-list packet is no longer dead.
//
// Reset reclaims everything at a world boundary, after the run's last
// event. Components may still point at packets then, until their own Reset
// paths (link, tower, FIFO) forget those pointers: without Put, since a
// release followed by Pool.Reset handing the same arena slot out again
// would put one packet in two hands, and without reading through them,
// since another worker's pool may already be writing the block. Pools are
// not safe for concurrent use; each engine worker owns its own.
//
// A nil *Pool is valid: Get allocates from the heap, Put does nothing and
// the garbage collector reclaims the packet, so components take an
// optional pool without branching at every call site (and handlers of
// pool-less links, as in the realtime tools, may keep or re-send what
// they are given).
type Pool struct {
	blocks [][]pooled
	used   int       // arena packets handed out since the last Reset
	free   []*Packet // released packets awaiting reuse, LIFO
}

// Get returns a packet with zeroed metadata and an empty payload (retained
// capacity): the most recently released one if any, else the next from the
// arena. On a nil pool it allocates from the heap.
func (p *Pool) Get() *Packet {
	if p == nil {
		return &Packet{}
	}
	var pkt *Packet
	if n := len(p.free); n > 0 {
		pkt = p.free[n-1]
		p.free = p.free[:n-1]
		if pkt.Size != deadSize {
			panic("network: packet written after its release")
		}
	} else {
		bi, pi := p.used/poolBlock, p.used%poolBlock
		if bi == len(p.blocks) {
			stock.Lock()
			if n := len(stock.blocks); n > 0 {
				p.blocks = append(p.blocks, stock.blocks[n-1])
				stock.blocks[n-1], stock.blocks = nil, stock.blocks[:n-1]
			}
			stock.Unlock()
		}
		if bi == len(p.blocks) {
			block := make([]pooled, poolBlock)
			for i := range block {
				block[i].Payload = block[i].buf[:0]
			}
			p.blocks = append(p.blocks, block)
		}
		pkt = &p.blocks[bi][pi].Packet
		p.used++
	}
	pkt.Flow, pkt.Seq, pkt.Size = 0, 0, 0
	pkt.SentAt, pkt.EnqueuedAt = 0, 0
	pkt.Payload = pkt.Payload[:0]
	return pkt
}

// Put releases a packet that has left the network; the caller must not
// touch it again. Releasing the same packet twice panics. A packet that
// did not come from this pool (a scheme that ignores the arena) is adopted
// into the free list like any other. On a nil pool Put does nothing.
func (p *Pool) Put(pkt *Packet) {
	if p == nil {
		return
	}
	if pkt.Size == deadSize {
		panic("network: packet released twice")
	}
	pkt.Size = deadSize
	pkt.Payload = pkt.Payload[:0]
	p.free = append(p.free, pkt)
}

// Reset reclaims every packet at once, live or released, and hands the
// blocks (each packet keeping its payload capacity) to the stock, last
// first, so a lone pool reuses its storage in the order it carved it. See
// the type comment for when this is safe.
func (p *Pool) Reset() {
	if p != nil {
		stock.Lock()
		for i := len(p.blocks) - 1; i >= 0; i-- {
			stock.blocks = append(stock.blocks, p.blocks[i])
		}
		stock.Unlock()
		clear(p.blocks)
		p.blocks, p.used, p.free = p.blocks[:0], 0, p.free[:0]
	}
}

// stock holds the blocks Reset handed back; its mutex orders one world's
// last write to a block before the next world's first.
var stock struct {
	sync.Mutex
	blocks [][]pooled
}

// InUse returns the live count: packets handed out and not yet released.
func (p *Pool) InUse() int {
	if p == nil {
		return 0
	}
	return p.used - len(p.free)
}

// HighWater returns the most packets live at once since the last Reset:
// a Get that finds no released packet takes the next arena packet, so the
// arena packets handed out since then are that peak.
func (p *Pool) HighWater() int {
	if p == nil {
		return 0
	}
	return p.used
}
