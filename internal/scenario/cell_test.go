package scenario

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"sprout/internal/core"
	"sprout/internal/network"
	"sprout/internal/protocol"
)

// cellSpec builds a streaming cell spec on the canonical Verizon LTE
// model pair.
func cellSpec(c *CellSpec, d, skip time.Duration, seed int64) Spec {
	return Spec{
		Cell:            c,
		Process:         &ProcessSpec{Model: "Verizon-LTE-down"},
		FeedbackProcess: &ProcessSpec{Model: "Verizon-LTE-up"},
		Duration:        Duration(d),
		Skip:            Duration(skip),
		Seed:            seed,
	}
}

// cellGridJSON is the determinism grid: multi-flow round-robin and
// proportional-fair cells, churn, and a two-cell handover layout.
const cellGridJSON = `{
	  "defaults": {"process": {"model": "Verizon-LTE-down"},
	               "feedback_process": {"model": "Verizon-LTE-up"},
	               "duration": "4s", "skip": "1s", "seed": 7},
	  "scenarios": [
	    {"name": "rr 3-up", "cell": {"groups": [{"scheme": "sprout", "flows": 3}]}},
	    {"name": "pf mixed", "cell": {"scheduler": "proportional-fair", "groups": [
	      {"scheme": "sprout", "flows": 2}, {"scheme": "cubic", "flows": 1}]}},
	    {"name": "pf churn", "cell": {"scheduler": "proportional-fair",
	      "groups": [{"scheme": "sprout", "flows": 2}],
	      "churn": {"arrival_rate": 0.8, "mean_lifetime": "2s"}}},
	    {"name": "rr handover", "cell": {"cells": 2, "handover_rate": 1.0, "groups": [
	      {"scheme": "sprout", "flows": 2, "cell": 0},
	      {"scheme": "sprout", "flows": 1, "cell": 1, "base_flow": 100}]}}
	  ]
	}`

func cellGridSpecs(t *testing.T) []Spec {
	t.Helper()
	specs, err := Parse(strings.NewReader(cellGridJSON))
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// cellGridHash is the pinned SHA-256 of the cell grid's merged JSONL
// stream. Pinning the bytes (not just cross-decomposition equality) means
// any future change to cell semantics is a conscious decision that updates
// this constant.
const cellGridHash = "f116dbca5b8b4a78d606040c074e07e592a9006f119e19f0d38555325dccb9c7"

// cellRowHashes pins each grid row's merged stream run alone, so a moved
// grid hash names the row that moved. The three static-roster rows have
// hashed to these values since before every receiver forecast on its own
// tick; "pf churn" was 58e98d6e… while churned receivers' feedback waited
// for the next tick of the run's first receivers.
var cellRowHashes = map[string]string{
	"rr 3-up":     "0588c70fa568fd55480dc21d0363476452a969accb556020916a1159b4c4112a",
	"pf mixed":    "44f05f3a140a4653c0638f7aa145813a72e30e540f73c8b2753c459a400d3fe4",
	"pf churn":    "078e22c5ca6e02c471043ecc01a5e9fa67bd5da1d8c26438e63cf0509301e832",
	"rr handover": "488278c3bbec85ac21850b037ce85c4bdd4e86908f48bdba0c0707c4b022cb45",
}

// TestCellShardedDeterminism pins the cell grid's merged stream across
// workers {1,4} × shards {1,3}, against the pinned golden hash, and row by
// row.
func TestCellShardedDeterminism(t *testing.T) {
	specs := cellGridSpecs(t)
	direct, _, err := RunAll(context.Background(), specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := mergedBytes(t, direct)
	sum := sha256.Sum256(want)
	if got := hex.EncodeToString(sum[:]); got != cellGridHash {
		t.Errorf("cell grid hash %s, want %s", got, cellGridHash)
	}
	for i, spec := range specs {
		sum := sha256.Sum256(mergedBytes(t, direct[i:i+1]))
		if got := hex.EncodeToString(sum[:]); got != cellRowHashes[spec.Name] {
			t.Errorf("row %q hash %s, want %s", spec.Name, got, cellRowHashes[spec.Name])
		}
	}
	for _, shards := range []int{1, 3} {
		for _, workers := range []int{1, 4} {
			results, _, err := RunSharded(context.Background(), specs, ShardedOptions{
				Shards: shards, Workers: workers,
			})
			if err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
			}
			if got := mergedBytes(t, results); !bytes.Equal(got, want) {
				t.Errorf("shards=%d workers=%d: merged cell stream differs from direct run", shards, workers)
			}
		}
	}
}

// TestChurnedReceiverFeedsBackOnItsOwnTick: §3.3–3.4 has every receiver
// forecast on its own tick, so a Sprout flow churned in between two ticks
// of the run's first receivers sends every feedback packet a whole number
// of ticks after its own attach instant — not on their grid.
func TestChurnedReceiverFeedsBackOnItsOwnTick(t *testing.T) {
	spec := cellSpec(&CellSpec{
		Scheduler: "proportional-fair",
		Groups:    []CellGroup{{Scheme: "sprout", Flows: 2}},
		Churn:     &ChurnSpec{ArrivalRate: 2, MeanLifetime: Duration(2 * time.Second)},
	}, 4*time.Second, time.Second, 7)
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	w := newWorld()
	sent := map[uint32][]time.Duration{}
	w.tap = func(h network.Handler) network.Handler {
		return func(p *network.Packet) {
			var hdr protocol.Header
			if p.Flow >= churnFlowBase && hdr.Unmarshal(p.Payload) == nil && hdr.HasForecast() {
				sent[p.Flow] = append(sent[p.Flow], p.SentAt)
			}
			h(p)
		}
	}
	if _, err := compile(norm).run(nil, w); err != nil {
		t.Fatal(err)
	}
	offGrid, packets := 0, 0
	for i, sp := range w.schedule.Spans {
		if sp.Start%core.DefaultTick != 0 {
			offGrid++
		}
		for _, at := range sent[churnFlowBase+uint32(i)] {
			packets++
			if since := at - sp.Start; since <= 0 || since%core.DefaultTick != 0 {
				t.Fatalf("flow %d attached at %v sent feedback at %v, %v after: not a whole number of %v ticks",
					i, sp.Start, at, since, core.DefaultTick)
			}
		}
	}
	if offGrid == 0 || packets < 100 {
		t.Errorf("%d of %d churned flows arrived mid-tick and %d of their feedback packets crossed; the run shows nothing",
			offGrid, len(w.schedule.Spans), packets)
	}
}

// cellWorldReuseSpec is a churning proportional-fair cell spec.
func cellWorldReuseSpec() Spec {
	return cellSpec(&CellSpec{
		Scheduler: "proportional-fair",
		Groups:    []CellGroup{{Scheme: "sprout", Flows: 2}},
		Churn:     &ChurnSpec{ArrivalRate: 0.5, MeanLifetime: Duration(time.Second)},
	}, 2*time.Second, 500*time.Millisecond, 3)
}

// TestCellWorldReuse: a warm pooled world re-runs a churning cell spec
// with zero allocations, and a 300-flow cell with one — the result's own
// Flows slice, which past 256 flows no shared arena block holds — however
// many rows its flow table has (TestEquivalentRuns matches reruns against
// a fresh world).
func TestCellWorldReuse(t *testing.T) {
	crowd := cellSpec(&CellSpec{Groups: []CellGroup{{Scheme: "facetime", Flows: 300}}},
		2*time.Second, 500*time.Millisecond, 3)
	for _, c := range []struct {
		name string
		spec Spec
		want float64
	}{
		{"churning pf cell", cellWorldReuseSpec(), 0},
		{"300 facetime flows", crowd, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			norm, err := c.spec.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			w := newWorld()
			run := func() {
				if _, err := compile(norm).run(nil, w); err != nil {
					t.Fatal(err)
				}
			}
			run() // compile processes, grow arenas, build every row's endpoints
			run()
			if avg := testing.AllocsPerRun(5, run); avg > c.want {
				t.Errorf("warm cell re-run allocates %.1f times per run, want at most %.0f", avg, c.want)
			}
		})
	}
}

// TestCellSpecErrors walks the cell grammar's validation surface: every
// malformed spec dies in Normalize with a one-line error naming the bad
// field.
func TestCellSpecErrors(t *testing.T) {
	base := func() Spec {
		return cellSpec(&CellSpec{Groups: []CellGroup{{Scheme: "sprout", Flows: 2}}},
			2*time.Second, time.Second, 1)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"zero flows", func(s *Spec) { s.Cell.Groups[0].Flows = 0 }, "must be positive"},
		{"negative flows", func(s *Spec) { s.Cell.Groups[0].Flows = -3 }, "must be positive"},
		{"no groups", func(s *Spec) { s.Cell.Groups = nil }, "at least one flow group"},
		{"unknown scheme", func(s *Spec) { s.Cell.Groups[0].Scheme = "bbr" }, "unknown scheme"},
		{"unknown scheduler", func(s *Spec) { s.Cell.Scheduler = "edf" }, "unknown cell scheduler"},
		{"duplicate flow ids", func(s *Spec) {
			s.Cell.Groups = []CellGroup{
				{Scheme: "sprout", Flows: 2, BaseFlow: 50},
				{Scheme: "cubic", Flows: 2, BaseFlow: 51},
			}
		}, "overlap"},
		{"negative churn rate", func(s *Spec) {
			s.Cell.Churn = &ChurnSpec{ArrivalRate: -1, MeanLifetime: Duration(time.Second)}
		}, "negative churn arrival_rate"},
		{"churn without lifetime", func(s *Spec) {
			s.Cell.Churn = &ChurnSpec{ArrivalRate: 1}
		}, "mean_lifetime"},
		{"unknown churn scheme", func(s *Spec) {
			s.Cell.Churn = &ChurnSpec{ArrivalRate: 1, MeanLifetime: Duration(time.Second), Scheme: "bbr"}
		}, "unknown scheme"},
		{"negative handover rate", func(s *Spec) { s.Cell.HandoverRate = -0.5 }, "negative handover_rate"},
		{"handover on one cell", func(s *Spec) { s.Cell.HandoverRate = 1 }, "at least 2 cells"},
		{"cell index out of range", func(s *Spec) { s.Cell.Groups[0].Cell = 1 }, "outside [0, 1)"},
		{"cell with top-level scheme", func(s *Spec) { s.Scheme = "sprout" }, "top-level scheme"},
		{"cell with tunnel", func(s *Spec) { s.Tunnel = true }, "mutually exclusive"},
		{"cell without process", func(s *Spec) { s.Process, s.FeedbackProcess = nil, nil; s.Link = "Verizon LTE" }, "declare a process"},
		{"cell with codel", func(s *Spec) { on := true; s.CoDel = &on }, "CoDel on a cell"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mut(&s)
			_, err := s.Normalize()
			if err == nil {
				t.Fatalf("Normalize accepted %+v", s.Cell)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// The happy path still normalizes: defaults resolved, label derived.
	norm, err := base().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Cell.Scheduler != "round-robin" || norm.Cell.Cells != 1 {
		t.Errorf("defaults not resolved: %+v", norm.Cell)
	}
	if label := norm.Label(); !strings.Contains(label, "cell[round-robin]") {
		t.Errorf("label %q does not describe the cell", label)
	}
}
