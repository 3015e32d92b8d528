package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"sprout/internal/scenario"
)

// goldenMatrixHash pins the bit-exact result of a reduced matrix run. It was
// recorded before the allocation-free event-loop/inference rework (PR 3) and
// must never change for this (duration, skip, seed, schemes) tuple: the hash
// covers the raw IEEE-754 bits of every cell, so any floating-point or
// event-ordering drift in the hot paths shows up here as a failure.
const goldenMatrixHash = "3764c685f79a19e50f4d096226e15bab75bed0979dfc936eda47060ac4d2a9f3"

// goldenLinks are the two links whose cells feed the hash (one LTE, one 3G,
// covering both trace shapes).
var goldenLinks = []string{"Verizon LTE Downlink", "T-Mobile 3G (UMTS) Uplink"}

var goldenSchemes = []string{"sprout", "cubic"}

// goldenOpt is the (duration, skip, seed) tuple of goldenMatrixHash.
var goldenOpt = Options{Duration: 8 * time.Second, Skip: 2 * time.Second, Seed: 7}

// hashCells serializes cells bit-exactly (Float64bits, not decimal
// formatting) and returns the SHA-256 hex digest.
func hashCells(m *matrix, links, schemes []string) string {
	var b strings.Builder
	for _, l := range links {
		row, ok := m.cells[l]
		if !ok {
			fmt.Fprintf(&b, "%s:MISSING\n", l)
			continue
		}
		for _, s := range schemes {
			c := row[s]
			fmt.Fprintf(&b, "%s|%s|%016x|%016x|%016x|%016x\n",
				l, s,
				math.Float64bits(c.ThroughputKbps),
				math.Float64bits(c.SelfInflictedMs),
				math.Float64bits(c.Utilization),
				math.Float64bits(c.MeanDelayMs))
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// goldenScenarioHash pins the bit-exact result of a heterogeneous-flows
// scenario spec (a Cubic bulk flow competing with a Skype call on the same
// bottleneck), recorded before the experiment-layer world-reuse rework
// (PR 4). It checks the scenario path — multi-flow dispatch, per-flow
// metrics, Jain index — which the matrix hash does not reach.
const goldenScenarioHash = "0530541e1c45c40a49d134f00d0b80bf72691bd2a18a4022c9c9be092e389c78"

// goldenScenarioJSON is the pinned spec, exercised through the JSON
// scenario format end to end.
const goldenScenarioJSON = `{
  "defaults": {"link": "Verizon LTE", "duration": "8s", "skip": "2s", "seed": 7},
  "scenarios": [
    {"name": "cubic vs skype", "groups": [
      {"scheme": "cubic", "count": 1},
      {"scheme": "skype", "count": 1}
    ]}
  ]
}`

// hashScenarioResults serializes every numeric outcome of the scenario runs
// bit-exactly (Float64bits / integer nanoseconds, not decimal formatting).
func hashScenarioResults(results []scenario.Result) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "%s|%016x|%d|%d|%016x|%d|%016x\n",
			r.Spec.Label(),
			math.Float64bits(r.Metrics.ThroughputBps),
			r.Metrics.Delay95,
			r.Metrics.MeanDelay,
			math.Float64bits(r.Metrics.Utilization),
			r.Delay95,
			math.Float64bits(r.JainIndex))
		for _, f := range r.Flows {
			fmt.Fprintf(&b, "  flow %d %s|%016x|%d\n",
				f.Flow, f.Scheme, math.Float64bits(f.ThroughputBps), f.Delay95)
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// TestScenarioGoldenHash asserts that a JSON scenario spec with
// heterogeneous flow groups produces byte-identical results to the recorded
// baseline, at both serial and parallel worker counts.
func TestScenarioGoldenHash(t *testing.T) {
	specs, err := scenario.Parse(strings.NewReader(goldenScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		results, _, err := scenario.RunAll(t.Context(), specs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashScenarioResults(results); got != goldenScenarioHash {
			t.Errorf("workers=%d: scenario hash = %s, want %s (outputs are not byte-identical to the recorded baseline)",
				workers, got, goldenScenarioHash)
		}
	}
}

// goldenHandoverHash pins the bit-exact result of the streaming-process
// scenario family introduced with the DeliveryProcess refactor (PR 5): a
// Sprout flow riding an LTE→3G handover with a mid-run outage window,
// driven entirely by on-demand processes (no materialized trace exists
// anywhere in the run). Recorded when the family was introduced; any
// drift in the process combinators, the link's pull path or the online
// omniscient/capacity metrics shows up here.
const goldenHandoverHash = "cbda0343861567db3fe029df9e2cf9825f4884ed15c3b7d26c421a6e37573623"

// goldenHandoverJSON is the pinned spec, exercised through the JSON
// process grammar end to end.
const goldenHandoverJSON = `{
  "defaults": {"duration": "8s", "skip": "2s", "seed": 7},
  "scenarios": [
    {"name": "lte to 3g handover", "scheme": "sprout",
     "process": {"handover": [
        {"model": "Verizon-LTE-down", "until": "4s"},
        {"model": "TMobile-3G-down", "scale": 1.2}
      ], "outages": [{"start": "6s", "end": "6.5s"}]},
     "feedback_process": {"model": "Verizon-LTE-up"}}
  ]
}`

// TestHandoverGoldenHash asserts the streaming handover scenario produces
// byte-identical results to the recorded baseline at serial and parallel
// worker counts.
func TestHandoverGoldenHash(t *testing.T) {
	specs, err := scenario.Parse(strings.NewReader(goldenHandoverJSON))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		results, _, err := scenario.RunAll(t.Context(), specs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashScenarioResults(results); got != goldenHandoverHash {
			t.Errorf("workers=%d: handover hash = %s, want %s (streaming outputs drifted from the recorded baseline)",
				workers, got, goldenHandoverHash)
		}
	}
}

// TestMatrixGoldenHash asserts that the matrix outputs on two canonical
// links are byte-identical to the pre-PR baseline at a fixed seed, at both
// serial and parallel worker counts.
func TestMatrixGoldenHash(t *testing.T) {
	for _, workers := range []int{1, 4} {
		m, _ := runMatrix(t, goldenOpt, goldenSchemes, workers)
		for _, l := range goldenLinks {
			if _, ok := m.cells[l]; !ok {
				t.Fatalf("link %q missing from matrix (links: %v)", l, m.links)
			}
		}
		if got := hashCells(m, goldenLinks, goldenSchemes); got != goldenMatrixHash {
			t.Errorf("workers=%d: matrix hash = %s, want %s (outputs are not byte-identical to the recorded baseline)",
				workers, got, goldenMatrixHash)
		}
	}
}
