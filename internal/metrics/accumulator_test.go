package metrics

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"sprout/internal/link"
	"sprout/internal/trace"
)

// randomLog builds a random delivery log in DeliveredAt order, with
// interleaved flows and deliveries straddling the metric window.
func randomLog(rng *rand.Rand, n int, flows []uint32) []link.Delivery {
	log := make([]link.Delivery, 0, n)
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		at += time.Duration(rng.Intn(40)) * time.Millisecond
		sent := at - time.Duration(20+rng.Intn(500))*time.Millisecond
		if sent < 0 {
			sent = 0
		}
		log = append(log, link.Delivery{
			SentAt:      sent,
			DeliveredAt: at,
			Size:        100 + rng.Intn(1400),
			Flow:        flows[rng.Intn(len(flows))],
		})
	}
	return log
}

func testTrace() *trace.Trace {
	tr := &trace.Trace{Name: "acc-test"}
	for at := time.Duration(0); at < 10*time.Second; at += 7 * time.Millisecond {
		tr.Opportunities = append(tr.Opportunities, at)
	}
	return tr
}

// TestAccumulatorMatchesSlicePath asserts the streaming accumulator is
// bit-identical to the retained-log primitives, per flow and in aggregate,
// across random logs and windows.
func TestAccumulatorMatchesSlicePath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := testTrace()
	flows := []uint32{1, 2, 7}
	var a Accumulator
	for trial := 0; trial < 50; trial++ {
		log := randomLog(rng, 30+rng.Intn(400), flows)
		from := time.Duration(rng.Intn(2000)) * time.Millisecond
		to := from + time.Duration(1+rng.Intn(8000))*time.Millisecond
		prop := 20 * time.Millisecond

		a.Start(from, to, flows)
		for _, d := range log {
			a.Observe(d)
		}
		got := a.Evaluate(tr, prop)
		want := func() Result {
			var b Accumulator
			b.Start(from, to, nil)
			for _, d := range log {
				b.Observe(d)
			}
			return b.Evaluate(tr, prop)
		}()
		if got != want {
			t.Fatalf("trial %d: per-flow accumulator aggregate %+v != plain %+v", trial, got, want)
		}
		// Against the slice primitives.
		if tput := Throughput(log, from, to); got.ThroughputBps != tput {
			t.Fatalf("trial %d: throughput %v != slice %v", trial, got.ThroughputBps, tput)
		}
		if d95 := EndToEndDelay(log, from, to, 0.95); got.Delay95 != d95 {
			t.Fatalf("trial %d: delay95 %v != slice %v", trial, got.Delay95, d95)
		}
		if md := MeanDelay(log, from, to); got.MeanDelay != md {
			t.Fatalf("trial %d: mean delay %v != slice %v", trial, got.MeanDelay, md)
		}
		if om := OmniscientDelay(tr, prop, from, to, 0.95); got.Omniscient95 != om {
			t.Fatalf("trial %d: omniscient %v != slice %v", trial, got.Omniscient95, om)
		}
		if agg := a.Delay95(); agg != got.Delay95 {
			t.Fatalf("trial %d: Delay95 accessor %v != %v", trial, agg, got.Delay95)
		}
		for i := range flows {
			flow, tput, d95 := a.Flow(i)
			sub := FilterFlow(log, flow)
			if wt := Throughput(sub, from, to); tput != wt {
				t.Fatalf("trial %d flow %d: throughput %v != filtered %v", trial, flow, tput, wt)
			}
			if wd := EndToEndDelay(sub, from, to, 0.95); d95 != wd {
				t.Fatalf("trial %d flow %d: delay95 %v != filtered %v", trial, flow, d95, wd)
			}
		}
	}
}

// randomTrace builds a random opportunity schedule with bursts, gaps and
// duplicate instants, long enough to straddle any test window.
func randomTrace(rng *rand.Rand, name string) *trace.Trace {
	tr := &trace.Trace{Name: name}
	at := time.Duration(0)
	for at < 12*time.Second {
		at += time.Duration(rng.Intn(60)) * time.Millisecond // 0 = duplicate instant
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			tr.Opportunities = append(tr.Opportunities, at)
		}
	}
	return tr
}

// TestStreamingOpportunitiesMatchSlicePath asserts the online
// omniscient/capacity stream is bit-identical to the materialized-trace
// path: feeding the trace's opportunity instants one at a time through
// ObserveOpportunity and finishing with EvaluateStreaming equals
// Evaluate(tr) on every field, across random traces, logs and windows.
func TestStreamingOpportunitiesMatchSlicePath(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	flows := []uint32{1, 2, 7}
	for trial := 0; trial < 50; trial++ {
		tr := randomTrace(rng, "streamed")
		log := randomLog(rng, 30+rng.Intn(400), flows)
		from := time.Duration(rng.Intn(2000)) * time.Millisecond
		to := from + time.Duration(1+rng.Intn(8000))*time.Millisecond
		prop := time.Duration(rng.Intn(40)) * time.Millisecond

		var a Accumulator
		a.Start(from, to, flows)
		a.TrackOpportunities(prop)
		li, oi := 0, 0
		// Interleave deliveries and opportunities in time order, the way
		// a live run produces them (relative order of same-instant events
		// must not matter for the result).
		for li < len(log) || oi < tr.Count() {
			if oi >= tr.Count() || (li < len(log) && log[li].DeliveredAt <= tr.Opportunities[oi]) {
				a.Observe(log[li])
				li++
			} else {
				a.ObserveOpportunity(tr.Opportunities[oi])
				oi++
			}
		}
		got := a.EvaluateStreaming()

		var b Accumulator
		b.Start(from, to, flows)
		for _, d := range log {
			b.Observe(d)
		}
		want := b.Evaluate(tr, prop)
		if got != want {
			t.Fatalf("trial %d: streaming %+v != materialized %+v", trial, got, want)
		}
	}
}

// TestAccumulatorSingleFlowUsesAggregate pins the historical single-flow
// fast path: with one tracked flow, the flow's metrics are the aggregate
// stream's (the whole log is that flow's log).
func TestAccumulatorSingleFlowUsesAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	log := randomLog(rng, 200, []uint32{3})
	var a Accumulator
	a.Start(time.Second, 5*time.Second, []uint32{3})
	for _, d := range log {
		a.Observe(d)
	}
	flow, tput, d95 := a.Flow(0)
	if flow != 3 {
		t.Fatalf("flow id = %d", flow)
	}
	if want := Throughput(log, time.Second, 5*time.Second); tput != want {
		t.Errorf("throughput %v != %v", tput, want)
	}
	if want := EndToEndDelay(log, time.Second, 5*time.Second, 0.95); d95 != want {
		t.Errorf("delay95 %v != %v", d95, want)
	}
}

// TestAccumulatorFlowWindows: a flow given its own window by SetFlowWindow
// (a churned cell user's lifetime) is measured over that window clipped to
// the run's, exactly as the slice primitives measure its filtered log,
// while the aggregate and the other flows keep the run window. A lone
// tracked flow with a window of its own stops sharing the aggregate's
// stream.
func TestAccumulatorFlowWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tr := testTrace()
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	var a Accumulator
	for trial := 0; trial < 50; trial++ {
		flows := []uint32{1, 2, 7}[:1+trial%3]
		log := randomLog(rng, 30+rng.Intn(400), flows)
		from, to := ms(rng.Intn(2000)), ms(3000+rng.Intn(5000))
		// The first flow outlives the run at both ends, the last (the
		// first too, when it is alone) lives inside it.
		windows := make([][2]time.Duration, len(flows))
		for i := range windows {
			windows[i] = [2]time.Duration{from, to}
		}
		windows[0] = [2]time.Duration{from - ms(500), to + ms(500)}
		in := ms(rng.Intn(9000))
		windows[len(flows)-1] = [2]time.Duration{in, in + ms(rng.Intn(3000))}

		a.Start(from, to, flows)
		for i, w := range windows {
			if w != [2]time.Duration{from, to} {
				a.SetFlowWindow(i, w[0], w[1])
			}
		}
		for _, d := range log {
			a.Observe(d)
		}
		got := a.Evaluate(tr, 20*time.Millisecond)
		if tput := Throughput(log, from, to); got.ThroughputBps != tput {
			t.Fatalf("trial %d: aggregate throughput %v != slice %v", trial, got.ThroughputBps, tput)
		}
		if d95 := EndToEndDelay(log, from, to, 0.95); got.Delay95 != d95 {
			t.Fatalf("trial %d: aggregate delay95 %v != slice %v", trial, got.Delay95, d95)
		}
		for i, w := range windows {
			wf, wt := max(from, w[0]), min(to, w[1])
			wt = max(wt, wf)
			flow, tput, d95 := a.Flow(i)
			sub := FilterFlow(log, flow)
			if want := Throughput(sub, wf, wt); tput != want {
				t.Fatalf("trial %d flow %d over [%v, %v): throughput %v != filtered %v", trial, flow, wf, wt, tput, want)
			}
			if want := EndToEndDelay(sub, wf, wt, 0.95); d95 != want {
				t.Fatalf("trial %d flow %d over [%v, %v): delay95 %v != filtered %v", trial, flow, wf, wt, d95, want)
			}
		}
	}
}

// TestAccumulatorDelay95NotCarriedOver: the percentile fixed when a run's
// streams are sealed belongs to that run — a reused accumulator whose next
// run delivers nothing reports no delay, in aggregate and per flow.
func TestAccumulatorDelay95NotCarriedOver(t *testing.T) {
	flows := []uint32{1, 2}
	var a Accumulator
	a.Start(0, 10*time.Second, flows)
	for _, d := range randomLog(rand.New(rand.NewSource(9)), 300, flows) {
		a.Observe(d)
	}
	if a.Delay95() == 0 {
		t.Fatal("first run measured no delay")
	}
	a.Start(0, 10*time.Second, flows)
	if got := a.Delay95(); got != 0 {
		t.Errorf("aggregate Delay95 = %v on a run with no deliveries", got)
	}
	for i := range flows {
		if _, _, got := a.Flow(i); got != 0 {
			t.Errorf("flow %d delay95 = %v on a run with no deliveries", i, got)
		}
	}
}

// TestAccumulatorObserveAllocs asserts steady-state Observe is
// allocation-free once the accumulator's buffers have warmed up (the
// world-reuse contract: a reused accumulator adds nothing to the per-packet
// cost).
func TestAccumulatorObserveAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	flows := []uint32{1, 2}
	log := randomLog(rng, 2000, flows)
	var a Accumulator
	warm := func() {
		a.Start(0, 10*time.Second, flows)
		for _, d := range log {
			a.Observe(d)
		}
		a.Delay95()
	}
	warm() // grow segment buffers once
	if avg := testing.AllocsPerRun(20, warm); avg > 0 {
		t.Errorf("warmed accumulator run allocates %.1f times, want 0", avg)
	}
}

// TestAccumulatorGrowsWithoutCopies: a fresh accumulator fed a million
// in-window deliveries and a million opportunities allocates at most 17
// bytes per segment it stores (each is 16): its segment streams grow in
// chunks, never by copying what they hold, as a slice grown by append
// would (88 bytes a segment). Fed again after Start, it allocates nothing.
func TestAccumulatorGrowsWithoutCopies(t *testing.T) {
	const n = 1_000_000
	var a Accumulator
	feed := func() {
		a.Start(0, time.Hour, nil)
		a.TrackOpportunities(20 * time.Millisecond)
		for i := range n {
			at := time.Duration(i+1) * time.Millisecond
			a.ObserveOpportunity(at)
			a.Observe(link.Delivery{SentAt: at - 20*time.Millisecond - time.Duration(i%50)*time.Millisecond, DeliveredAt: at, Size: 1500})
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	feed()
	runtime.ReadMemStats(&after)
	segs := a.Segments()
	if segs < 2*n-100 {
		t.Fatalf("the accumulator stores %d segments, want about %d", segs, 2*n)
	}
	perSeg := float64(after.TotalAlloc-before.TotalAlloc) / float64(segs)
	t.Logf("%d segments, %.2f bytes allocated a segment", segs, perSeg)
	if perSeg > 17 {
		t.Errorf("a fresh accumulator allocates %.2f bytes a stored segment, want at most 17", perSeg)
	}
	if allocs := testing.AllocsPerRun(1, feed); allocs != 0 {
		t.Errorf("a reused accumulator allocates %.0f times, want 0", allocs)
	}
}

// TestOpportunityWindowIsHalfOpen: the capacity window is [from, to), as
// the delivery window is. An opportunity at exactly to changes neither the
// utilization nor the omniscient bound EvaluateStreaming reports; one at
// exactly from counts.
func TestOpportunityWindowIsHalfOpen(t *testing.T) {
	from, to := time.Second, 3*time.Second
	log := randomLog(rand.New(rand.NewSource(17)), 300, []uint32{1})
	run := func(ops ...time.Duration) Result {
		var a Accumulator
		a.Start(from, to, nil)
		a.TrackOpportunities(20 * time.Millisecond)
		for _, d := range log {
			a.Observe(d)
		}
		for _, at := range ops {
			a.ObserveOpportunity(at)
		}
		return a.EvaluateStreaming()
	}
	ms := time.Millisecond
	base := run(500*ms, 1500*ms, 2000*ms)
	if base.Utilization == 0 {
		t.Fatal("the log delivers nothing in the window")
	}
	atTo := run(500*ms, 1500*ms, 2000*ms, to)
	if atTo.Utilization != base.Utilization || atTo.Omniscient95 != base.Omniscient95 {
		t.Errorf("an opportunity at to moved the window's metrics: utilization %v -> %v, omniscient %v -> %v",
			base.Utilization, atTo.Utilization, base.Omniscient95, atTo.Omniscient95)
	}
	if atFrom := run(500*ms, from, 1500*ms, 2000*ms); atFrom.Utilization == base.Utilization {
		t.Errorf("an opportunity at from is not counted: utilization %v both ways", base.Utilization)
	}
}
