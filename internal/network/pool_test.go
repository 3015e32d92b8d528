package network

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestPoolRoundTrip: Get hands out clean packets, Put makes them the next
// Get's result (LIFO), and the arena grows only when nothing is free.
func TestPoolRoundTrip(t *testing.T) {
	var p Pool
	a := p.Get()
	a.Flow, a.Seq, a.Size = 7, 42, MTU
	a.SentAt, a.EnqueuedAt = time.Second, 2*time.Second
	a.Payload = append(a.Payload, "header"...)
	b := p.Get()
	b.Size = 100
	if a == b {
		t.Fatal("two live packets share storage")
	}
	if got := p.InUse(); got != 2 {
		t.Errorf("InUse = %d with two packets out, want 2", got)
	}
	if got := p.HighWater(); got != 2 || len(p.blocks) != 1 {
		t.Errorf("HighWater = %d in %d blocks after two Gets, want 2 in one", got, len(p.blocks))
	}

	p.Put(a)
	if a.Size != deadSize || len(a.Payload) != 0 {
		t.Errorf("released packet not marked dead: Size %d, payload %q", a.Size, a.Payload)
	}
	p.Put(b)
	if got := p.InUse(); got != 0 {
		t.Errorf("InUse = %d after releasing everything, want 0", got)
	}
	if got := p.Get(); got != b {
		t.Error("Get did not return the most recently released packet")
	}
	got := p.Get()
	if got != a {
		t.Error("Get did not return the earlier released packet second")
	}
	if !clean(got) {
		t.Errorf("recycled packet not clean: %+v", got)
	}

	// A run that keeps at most two packets live never grows the arena,
	// however many it sends.
	p.Put(a)
	p.Put(b)
	for i := 0; i < 10*poolBlock; i++ {
		x, y := p.Get(), p.Get()
		p.Put(x)
		p.Put(y)
	}
	if got := p.HighWater(); got != 2 || len(p.blocks) != 1 {
		t.Errorf("HighWater = %d in %d blocks after %d recycled sends, want 2 in one", got, len(p.blocks), 20*poolBlock)
	}
	// Holding more than a block live does.
	for i := 0; i < poolBlock+1; i++ {
		p.Get()
	}
	if got, want := p.HighWater(), poolBlock+1; got != want || len(p.blocks) != 2 {
		t.Errorf("HighWater = %d in %d blocks with %d live, want %d in two", got, len(p.blocks), want, want)
	}
}

// clean reports whether the packet is as Get promises: zeroed metadata and
// an empty payload.
func clean(p *Packet) bool {
	return p.Flow == 0 && p.Seq == 0 && p.Size == 0 &&
		p.SentAt == 0 && p.EnqueuedAt == 0 && len(p.Payload) == 0
}

// TestPoolReset: Reset reclaims live and released packets alike, and a
// lone pool hands the same storage out again, in the same order.
func TestPoolReset(t *testing.T) {
	var p Pool
	first := p.Get()
	first.Size = 1
	live := p.Get() // still live at the boundary
	live.Size, live.Seq = 2, 9
	released := p.Get()
	p.Put(released)

	p.Reset()
	if got := p.InUse(); got != 0 {
		t.Errorf("InUse = %d after Reset, want 0", got)
	}
	if got := p.HighWater(); got != 0 || len(p.blocks) != 0 {
		t.Errorf("HighWater = %d in %d blocks after Reset, want 0 in none", got, len(p.blocks))
	}
	for i, want := range []*Packet{first, live, released} {
		pkt := p.Get()
		if pkt != want {
			t.Fatalf("Get %d after Reset is not the packet the pool first carved there", i)
		}
		if !clean(pkt) {
			t.Errorf("packet %d after Reset not clean: %+v", i, pkt)
		}
	}
	if got := p.HighWater(); got != 3 || len(p.blocks) != 1 {
		t.Errorf("HighWater = %d in %d blocks, want 3 in one: the re-run must not grow the arena", got, len(p.blocks))
	}
}

// TestPoolElementLayout pins what a queued packet costs: 96 bytes, metadata
// and inline payload buffer together (a field added to Packet fails this),
// with every fresh packet's payload storage inside its own arena element —
// across a block boundary too — and nowhere else.
func TestPoolElementLayout(t *testing.T) {
	if got := unsafe.Sizeof(pooled{}); got != 96 {
		t.Fatalf("arena element is %d bytes, want 96", got)
	}
	var p Pool
	for i := 0; i < poolBlock+2; i++ {
		pkt := p.Get()
		el := &p.blocks[i/poolBlock][i%poolBlock]
		if pkt != &el.Packet {
			t.Fatalf("packet %d is not arena element %d's", i, i)
		}
		if cap(pkt.Payload) != poolPayloadCap {
			t.Fatalf("packet %d: fresh payload capacity %d, want %d", i, cap(pkt.Payload), poolPayloadCap)
		}
		pkt.Payload = pkt.Payload[:poolPayloadCap]
		if &pkt.Payload[0] != &el.buf[0] {
			t.Fatalf("packet %d: payload storage lies outside its own element", i)
		}
	}
}

// TestPoolKeepsGrownPayload: a payload that outgrew the inline buffer
// keeps the buffer append grew for it, on the same arena slot, through
// Put/Get and through Reset.
func TestPoolKeepsGrownPayload(t *testing.T) {
	var p Pool
	pkt := p.Get()
	big := bytes.Repeat([]byte{0xab}, 4*poolPayloadCap)
	pkt.Payload = append(pkt.Payload, big...)
	grown := cap(pkt.Payload)
	p.Put(pkt)
	again := p.Get()
	if again != pkt || cap(again.Payload) != grown || len(again.Payload) != 0 {
		t.Errorf("recycled packet lost its grown payload: cap %d, want %d (len %d)",
			cap(again.Payload), grown, len(again.Payload))
	}
	p.Reset()
	if after := p.Get(); after != pkt || cap(after.Payload) != grown {
		t.Errorf("Reset lost the grown payload: cap %d, want %d", cap(after.Payload), grown)
	}
}

// TestPoolNil: a nil pool is plain heap allocation with no-op release.
func TestPoolNil(t *testing.T) {
	var p *Pool
	pkt := p.Get()
	if pkt == nil || !clean(pkt) {
		t.Fatalf("nil pool Get = %+v, want a zero heap packet", pkt)
	}
	pkt.Size = MTU
	p.Put(pkt)
	p.Put(pkt) // no pool, no ownership to violate
	if pkt.Size != MTU {
		t.Error("nil pool Put touched the packet")
	}
	p.Reset()
	if p.InUse() != 0 || p.HighWater() != 0 {
		t.Error("nil pool reports packets")
	}
}

// TestPoolMisuseIsLoud: a double release panics, and so does handing out a
// released packet that somebody wrote to afterwards.
func TestPoolMisuseIsLoud(t *testing.T) {
	var p Pool
	pkt := p.Get()
	pkt.Size = 40
	p.Put(pkt)
	mustPanic(t, "second Put of one packet", func() { p.Put(pkt) })

	pkt.Size = 40 // use after release
	mustPanic(t, "Get of a packet written after its release", func() { p.Get() })
}

// TestPoolAdoptsForeignPackets: a heap packet from a scheme that ignores
// the arena is recycled like any other once the network releases it.
func TestPoolAdoptsForeignPackets(t *testing.T) {
	var p Pool
	heap := &Packet{Size: MTU, Payload: []byte("x")}
	p.Put(heap)
	if got := p.Get(); got != heap || !clean(got) {
		t.Errorf("adopted packet not recycled clean: %+v", got)
	}
	if got := p.HighWater(); got != 0 || len(p.blocks) != 0 {
		t.Errorf("HighWater = %d in %d blocks, want 0 in none: adoption must not grow the arena", got, len(p.blocks))
	}
}

// TestPoolWarmCycleAllocs: a warm Get+Put cycle allocates nothing.
func TestPoolWarmCycleAllocs(t *testing.T) {
	var p Pool
	held := make([]*Packet, 0, 8)
	cycle := func() {
		for i := 0; i < cap(held); i++ {
			pkt := p.Get()
			pkt.Size = MTU
			pkt.Payload = append(pkt.Payload, "0123456789abcdef"...)
			held = append(held, pkt)
		}
		for _, pkt := range held {
			p.Put(pkt)
		}
		held = held[:0]
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("warm Get+Put cycle allocates %.1f times, want 0", avg)
	}
}

// TestPoolBlocksMoveBetweenPools: Reset hands a pool's blocks to the
// process-wide stock, so another pool's Gets reuse that storage without
// allocating, and the pool that gave it back takes other blocks from then
// on: no packet is ever live in two pools.
func TestPoolBlocksMoveBetweenPools(t *testing.T) {
	const n = 10 * poolBlock
	var a, b Pool
	fromA := map[*Packet]bool{}
	for i := 0; i < n; i++ {
		fromA[a.Get()] = true
	}
	a.Reset()

	b.blocks = make([][]pooled, 0, n/poolBlock) // B's block list is not the arena
	got := make([]*Packet, 0, n)
	warmup := true
	allocs := testing.AllocsPerRun(1, func() {
		if warmup { // AllocsPerRun's uncounted first call: B's first Gets are the measured run
			warmup = false
			return
		}
		for i := 0; i < n; i++ {
			got = append(got, b.Get())
		}
	})
	if allocs != 0 {
		t.Errorf("B's %d Gets after A's Reset allocate %.0f times, want 0", n, allocs)
	}
	inB := map[*Packet]bool{}
	for i, pkt := range got {
		if !fromA[pkt] || inB[pkt] {
			t.Fatalf("B's Get %d is not a fresh packet of the storage A gave back", i)
		}
		inB[pkt] = true
	}
	for i := 0; i < n; i++ {
		if pkt := a.Get(); inB[pkt] {
			t.Fatalf("A's Get %d after its Reset returns a packet live in B", i)
		}
	}
}

// TestPoolConcurrentResets: pools on several goroutines cycle Get, Put and
// Reset to different high-water marks, so blocks move between them through
// the stock the whole time. Each stamps the packets it holds and checks
// the stamps before it lets them go; a block in two pools' hands at once
// shows up as a foreign stamp here, and as a data race under -race.
func TestPoolConcurrentResets(t *testing.T) {
	const workers, cycles = 4, 60
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var p Pool
			var held []*Packet
			stamp := func(pkt *Packet, c, i int) {
				pkt.Flow, pkt.Seq = uint32(g), int64(c<<32|i)
				pkt.Payload = append(pkt.Payload[:0], byte(g), byte(c), byte(i))
			}
			for c := 0; c < cycles; c++ {
				n := (g+1)*poolBlock + (c%3)*poolBlock/2 + c
				for i := 0; i < n; i++ {
					pkt := p.Get()
					stamp(pkt, c, i)
					held = append(held, pkt)
					if i%3 == 2 { // recycle through the free list too
						p.Put(held[i-1])
						held[i-1] = p.Get()
						stamp(held[i-1], c, i-1)
					}
				}
				runtime.Gosched()
				for i, pkt := range held {
					if pkt.Flow != uint32(g) || pkt.Seq != int64(c<<32|i) ||
						!bytes.Equal(pkt.Payload, []byte{byte(g), byte(c), byte(i)}) {
						errs <- fmt.Errorf("goroutine %d, cycle %d: packet %d carries flow %d seq %#x payload %v, not its own stamp",
							g, c, i, pkt.Flow, pkt.Seq, pkt.Payload)
						return
					}
					if i%2 == 0 {
						p.Put(pkt)
					}
				}
				held = held[:0]
				p.Reset()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
