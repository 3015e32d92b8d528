package link

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"sprout/internal/network"
	"sprout/internal/sim"
	"sprout/internal/trace"
)

// TestLinkDeliverySteadyStateAllocs: once the arrival ring, bottleneck
// FIFO and event arena have warmed up, carrying a packet across the link —
// Send, propagation delay, enqueue, delivery opportunity, handler — must
// not allocate.
func TestLinkDeliverySteadyStateAllocs(t *testing.T) {
	ops := make([]time.Duration, 10_000)
	for i := range ops {
		ops[i] = time.Duration(i) * time.Millisecond
	}
	tr := &trace.Trace{Name: "alloc", Opportunities: ops}
	loop := sim.New()
	delivered := 0
	l := New(loop, Config{Trace: tr, PropagationDelay: 5 * time.Millisecond},
		func(p *network.Packet) { delivered++ })

	pkt := &network.Packet{Size: network.MTU, Payload: make([]byte, 0)}
	step := func() {
		pkt.SentAt = loop.Now()
		l.Send(pkt)
		// Drain until the packet has crossed (arrival + opportunity).
		for before := delivered; delivered == before; {
			if !loop.Step() {
				t.Fatal("loop drained without delivering")
			}
		}
	}
	for i := 0; i < 64; i++ { // warm rings and arena
		step()
	}
	allocs := testing.AllocsPerRun(500, step)
	if allocs != 0 {
		t.Errorf("steady-state link delivery allocates %v allocs/op, want 0", allocs)
	}
	if delivered == 0 {
		t.Fatal("no packets delivered")
	}
}

// TestLinkProcessSteadyStateAllocs is the streaming counterpart of the
// test above: a link driven by an on-demand DeliveryProcess (here the §3.1
// model itself) must also carry packets with zero steady-state
// allocations — the pull path adds no per-opportunity garbage, and neither
// does the packet arena: every packet is drawn from a pool and released by
// the link.
func TestLinkProcessSteadyStateAllocs(t *testing.T) {
	m, ok := trace.CanonicalLink("Verizon-LTE-down")
	if !ok {
		t.Fatal("canonical link missing")
	}
	loop := sim.New()
	var pool network.Pool
	delivered := 0
	l := New(loop, Config{
		Process:          m.Process(),
		ProcessSeed:      7,
		PropagationDelay: 5 * time.Millisecond,
		Pool:             &pool,
	}, func(p *network.Packet) { delivered++ })

	step := func() {
		pkt := pool.Get() // the link releases it on delivery
		pkt.Size = network.MTU
		pkt.SentAt = loop.Now()
		l.Send(pkt)
		for before := delivered; delivered == before; {
			if !loop.Step() {
				t.Fatal("loop drained without delivering")
			}
		}
	}
	for i := 0; i < 2000; i++ { // warm rings, arena and model-step buffers
		step()
	}
	allocs := testing.AllocsPerRun(500, step)
	if allocs != 0 {
		t.Errorf("steady-state process-driven delivery allocates %v allocs/op, want 0", allocs)
	}
	if pool.InUse() != 0 || pool.HighWater() != 1 {
		t.Errorf("pool holds %d live packets, high-water %d; want 0 of 1", pool.InUse(), pool.HighWater())
	}
}

// TestLinkProcessMatchesTrace: driving a link from Loop(Replay(trace)) is
// byte-identical to handing it the materialized trace — the two Config
// forms share one scheduling path.
func TestLinkProcessMatchesTrace(t *testing.T) {
	m, _ := trace.CanonicalLink("TMobile-3G-down")
	tr := m.Generate(3*time.Second, rand.New(rand.NewSource(5)))

	run := func(cfg Config) []Delivery {
		loop := sim.New()
		l := New(loop, cfg, nil)
		log := keepDeliveries(l)
		var seq int64
		var send func()
		var tm sim.Timer
		send = func() {
			p := &network.Packet{Size: 900, Seq: seq, SentAt: loop.Now()}
			seq++
			l.Send(p)
			tm = loop.Reschedule(tm, 7*time.Millisecond, send)
		}
		send()
		loop.Run(10 * time.Second) // outlasts the trace: exercises the wrap
		return *log
	}

	proc := trace.NewLoop(trace.NewReplay(tr))
	fromTrace := run(Config{Trace: tr, PropagationDelay: 5 * time.Millisecond})
	fromProc := run(Config{Process: proc, PropagationDelay: 5 * time.Millisecond})
	if len(fromTrace) != len(fromProc) {
		t.Fatalf("delivery counts differ: trace %d, process %d", len(fromTrace), len(fromProc))
	}
	for i := range fromTrace {
		if fromTrace[i] != fromProc[i] {
			t.Fatalf("delivery %d differs: trace %+v, process %+v", i, fromTrace[i], fromProc[i])
		}
	}
}

// TestStreamingTraceMemoryO1 is the acceptance check for unbounded-duration
// runs: a ten-virtual-minute streaming run must allocate a small constant
// amount of heap — far below the materialized []time.Duration it replaces —
// because opportunities are pulled one at a time and never retained.
func TestStreamingTraceMemoryO1(t *testing.T) {
	m, _ := trace.CanonicalLink("Verizon-LTE-down")
	loop := sim.New()
	New(loop, Config{
		Process:     m.Process(),
		ProcessSeed: 11,
	}, nil)

	// Warm: run one virtual minute so every buffer reaches steady state.
	loop.Run(1 * time.Minute)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	loop.Run(11 * time.Minute) // ten more virtual minutes
	runtime.ReadMemStats(&after)
	streamed := after.TotalAlloc - before.TotalAlloc

	// The materialized equivalent: ~420 opportunities/s for 10 minutes,
	// 8 bytes each — about 2 MB of trace alone.
	materialized := uint64(10*60) * uint64(m.MeanRate) * 8
	if streamed > materialized/4 {
		t.Errorf("10-minute streaming run allocated %d B, want O(1) (materialized trace alone would be ~%d B)",
			streamed, materialized)
	}
	if streamed > 256<<10 {
		t.Errorf("10-minute streaming run allocated %d B, want under 256 KiB", streamed)
	}
}

// TestFIFOSteadyStateAllocs: balanced push/pop must never reallocate the
// ring (the previous slice-backed queue leaked capacity on every pop).
func TestFIFOSteadyStateAllocs(t *testing.T) {
	var q FIFO
	pkt := &network.Packet{Size: 100}
	for i := 0; i < 32; i++ {
		q.Push(pkt)
	}
	allocs := testing.AllocsPerRun(10_000, func() {
		q.Push(pkt)
		q.Pop()
	})
	if allocs != 0 {
		t.Errorf("FIFO push/pop allocates %v allocs/op, want 0", allocs)
	}
}
