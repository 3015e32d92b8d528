package scenario

import (
	"context"
	"reflect"
	"testing"
	"time"

	"sprout/internal/trace"
)

// shortSpecs trims the testdata durations so the end-to-end sweep stays
// fast while still exercising loss, multi-flow, heterogeneous groups and
// the tunnel.
func shortSpecs(t *testing.T) []Spec {
	t.Helper()
	specs, err := LoadFile("testdata/never-ran.json")
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		specs[i].Duration = Duration(20 * time.Second)
		specs[i].Skip = Duration(5 * time.Second)
	}
	return specs
}

// TestScenarioFileEndToEnd runs the shipped scenario file — combinations
// the hard-coded harness never offered (vegas under loss, multi-flow
// cubic-codel, sprout competing with ledbat, a tunneled app) — and sanity
// checks each result.
func TestScenarioFileEndToEnd(t *testing.T) {
	specs := shortSpecs(t)
	if len(specs) != 4 {
		t.Fatalf("testdata file has %d scenarios, want 4", len(specs))
	}
	results, stats, err := RunAll(context.Background(), specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != len(specs) {
		t.Errorf("completed %d of %d jobs", stats.Completed, len(specs))
	}

	vegas := results[0]
	if vegas.Spec.Loss != 0.05 || vegas.Spec.Link != "T-Mobile 3G (UMTS)" || vegas.Spec.Direction != "up" {
		t.Errorf("vegas spec not honoured: %+v", vegas.Spec)
	}
	if vegas.Metrics.ThroughputBps <= 0 {
		t.Error("vegas under loss delivered nothing")
	}

	multi := results[1]
	if len(multi.Flows) != 3 {
		t.Fatalf("multi-flow cubic-codel: %d flows, want 3", len(multi.Flows))
	}
	for _, f := range multi.Flows {
		if f.ThroughputBps <= 0 {
			t.Errorf("cubic-codel flow %d delivered nothing", f.Flow)
		}
	}
	if multi.JainIndex <= 0 || multi.JainIndex > 1 {
		t.Errorf("Jain index %v outside (0, 1]", multi.JainIndex)
	}

	mixed := results[2]
	if len(mixed.Flows) != 3 {
		t.Fatalf("sprout vs ledbat: %d flows, want 3", len(mixed.Flows))
	}
	schemes := map[string]int{}
	for _, f := range mixed.Flows {
		schemes[f.Scheme]++
	}
	if schemes["sprout"] != 2 || schemes["ledbat"] != 1 {
		t.Errorf("mixed groups = %v, want 2 sprout + 1 ledbat", schemes)
	}

	tun := results[3]
	if !tun.Spec.Tunnel {
		t.Error("tunnel flag lost")
	}
	if len(tun.Flows) != 1 || tun.Flows[0].ThroughputBps <= 0 {
		t.Errorf("tunneled hangout flows = %+v, want one delivering flow", tun.Flows)
	}
}

// TestRunAllDeterministicAcrossWorkers proves the scenario path inherits
// the engine's determinism contract: the same specs produce deeply equal
// results at one worker and at four.
func TestRunAllDeterministicAcrossWorkers(t *testing.T) {
	specs := shortSpecs(t)
	serial, _, err := RunAll(context.Background(), specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := RunAll(context.Background(), specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("results differ between 1 and 4 workers")
	}
}

// TestRunUnknowns verifies Run rejects unresolvable specs.
func TestRunUnknowns(t *testing.T) {
	if _, err := Run(Spec{Scheme: "nope", Link: "Verizon LTE"}, nil); err == nil {
		t.Error("unknown scheme ran")
	}
	if _, err := Run(Spec{Scheme: "sprout", Link: "nope"}, nil); err == nil {
		t.Error("unknown link ran")
	}
}

// TestCoDelOverride checks the tri-state CoDel control: forcing the AQM
// onto plain cubic must cut its self-inflicted delay, and forcing it off
// cubic-codel must restore the bufferbloat.
func TestCoDelOverride(t *testing.T) {
	run := func(scheme string, codel *bool) Result {
		t.Helper()
		res, err := Run(Spec{
			Scheme: scheme, Link: "Verizon LTE", CoDel: codel,
			Duration: Duration(30 * time.Second), Skip: Duration(8 * time.Second),
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	tru, fls := true, false
	plain := run("cubic", nil)
	forcedOn := run("cubic", &tru)
	forcedOff := run("cubic-codel", &fls)
	if forcedOn.Metrics.SelfInflicted95 >= plain.Metrics.SelfInflicted95 {
		t.Errorf("cubic with forced CoDel: delay %v not below plain cubic %v",
			forcedOn.Metrics.SelfInflicted95, plain.Metrics.SelfInflicted95)
	}
	// cubic-codel with CoDel forced off is exactly plain cubic, run
	// under another name.
	for i := range forcedOff.Flows {
		forcedOff.Flows[i].Scheme = "cubic"
	}
	sameResult(t, forcedOff, plain)
}

// TestLoopedTraceCountsEveryCycle: an injected trace shorter than the run
// loops, and its metrics must read as if the loops had been written out.
// The trace is 10 s of 1 ms opportunities followed by a 6 s outage; cubic
// runs it for 40 s, two and a half cycles. Utilization stays at most one,
// the omniscient bound sees only the outage, and the same run on the trace
// unrolled to cover all 40 s gives the same metrics field for field.
func TestLoopedTraceCountsEveryCycle(t *testing.T) {
	const period = 16 * time.Second
	cycle := &trace.Trace{Name: "busy-then-outage"}
	for at := time.Millisecond; at <= 10*time.Second; at += time.Millisecond {
		cycle.Opportunities = append(cycle.Opportunities, at)
	}
	cycle.Opportunities = append(cycle.Opportunities, period)
	unrolled := &trace.Trace{Name: "unrolled"}
	for k := time.Duration(0); k < 3; k++ {
		for _, at := range cycle.Opportunities {
			unrolled.Opportunities = append(unrolled.Opportunities, at+k*period)
		}
	}
	feedback := &trace.Trace{Name: "steady"}
	for at := time.Millisecond; at <= 41*time.Second; at += time.Millisecond {
		feedback.Opportunities = append(feedback.Opportunities, at)
	}
	run := func(data *trace.Trace) Result {
		res, err := Run(Spec{Scheme: "cubic", DataTrace: data, FeedbackTrace: feedback,
			Duration: Duration(40 * time.Second), Skip: Duration(5 * time.Second), Seed: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(cycle)
	looped := res.Metrics
	t.Logf("looped: utilization %.3f, omniscient95 %v, self-inflicted95 %v",
		looped.Utilization, looped.Omniscient95, looped.SelfInflicted95)
	if looped.Utilization <= 0.5 || looped.Utilization > 1 {
		t.Errorf("utilization %.3f, want in (0.5, 1]: every loop's opportunities are capacity", looped.Utilization)
	}
	if looped.Omniscient95 > 6*time.Second+20*time.Millisecond {
		t.Errorf("omniscient95 %v exceeds the 6 s outage plus propagation: the loops are not opportunities", looped.Omniscient95)
	}
	if looped.SelfInflicted95 <= 0 {
		t.Errorf("self-inflicted95 %v, want cubic's standing queue to show", looped.SelfInflicted95)
	}
	sameResult(t, res, run(unrolled))
}
