package network

import (
	"bytes"
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
	if got := p.Allocated(); got != poolBlock {
		t.Errorf("Allocated = %d after two Gets, want one block of %d", got, poolBlock)
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
	if got := p.Allocated(); got != poolBlock {
		t.Errorf("Allocated = %d after %d recycled sends, want %d", got, 20*poolBlock, poolBlock)
	}
	// Holding more than a block live does.
	for i := 0; i < poolBlock+1; i++ {
		p.Get()
	}
	if got, want := p.Allocated(), 2*poolBlock; got != want {
		t.Errorf("Allocated = %d with %d live, want %d", got, poolBlock+1, want)
	}
}

// clean reports whether the packet is as Get promises: zeroed metadata and
// an empty payload.
func clean(p *Packet) bool {
	return p.Flow == 0 && p.Seq == 0 && p.Size == 0 &&
		p.SentAt == 0 && p.EnqueuedAt == 0 && len(p.Payload) == 0
}

// TestPoolReset: Reset reclaims live and released packets alike, keeps the
// arena, and hands the same storage out again.
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
	if got := p.Allocated(); got != poolBlock {
		t.Errorf("Allocated = %d after Reset, want the retained block of %d", got, poolBlock)
	}
	seen := map[*Packet]bool{}
	for i := 0; i < 3; i++ {
		pkt := p.Get()
		if seen[pkt] {
			t.Fatal("one packet handed out twice after Reset")
		}
		seen[pkt] = true
		if !clean(pkt) {
			t.Errorf("packet %d after Reset not clean: %+v", i, pkt)
		}
	}
	if !seen[first] || !seen[live] || !seen[released] {
		t.Error("Reset did not hand the same arena storage out again")
	}
	if got := p.Allocated(); got != poolBlock {
		t.Errorf("Allocated = %d, want %d: the re-run must not grow the arena", got, poolBlock)
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
	if p.InUse() != 0 || p.Allocated() != 0 {
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
	if got := p.Allocated(); got != 0 {
		t.Errorf("Allocated = %d, want 0: adoption must not grow the arena", got)
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
