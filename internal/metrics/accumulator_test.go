package metrics

import (
	"math/rand"
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
