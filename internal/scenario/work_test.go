package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"sprout/internal/trace"
)

// workGrids are smoke-sized grids of the benchmark's five workload shapes:
// the paper suite on materialized traces (matrix rows, loss, the tunnel
// pair, shared Sprout, a kept delivery log), TCP and app schemes on
// streaming links at twice the rate, Sprout users of one cell, a crowded
// two-cell tower with churn and handover, and many short jobs.
func workGrids() []struct {
	name  string
	specs []Spec
} {
	secs := func(s float64) Duration { return Duration(time.Duration(s * float64(time.Second))) }
	nets := trace.CanonicalNetworks()
	verizon, down, up := nets[0].Name, nets[0].Down.Name, nets[0].Up.Name
	stream := func(d, skip float64, scale float64) Spec {
		return Spec{
			Duration: secs(d), Skip: secs(skip),
			Process:         &ProcessSpec{Model: down, Scale: scale},
			FeedbackProcess: &ProcessSpec{Model: up, Scale: scale},
		}
	}
	paper := func(name string) Spec {
		return Spec{Name: name, Link: verizon, Duration: secs(3), Skip: secs(1)}
	}

	var suite []Spec
	for _, dir := range []string{"down", "up"} {
		for _, scheme := range []string{"sprout", "cubic"} {
			sp := paper(scheme + " " + dir)
			sp.Scheme, sp.Direction = scheme, dir
			suite = append(suite, sp)
		}
	}
	lossy := paper("loss sprout 5%")
	lossy.Scheme, lossy.Loss = "sprout", 0.05
	suite = append(suite, lossy)
	for _, tunnel := range []bool{false, true} {
		sp := paper(fmt.Sprintf("tunnel-exp %v", tunnel))
		sp.Groups = []FlowGroup{{Scheme: "cubic", Count: 1, BaseFlow: 10}, {Scheme: "skype", Count: 1, BaseFlow: 20}}
		sp.Tunnel = tunnel
		suite = append(suite, sp)
	}
	shared := paper("multi sprout x2")
	shared.Scheme, shared.Flows = "sprout", 2
	kept := paper("fig1 skype")
	kept.Scheme, kept.KeepDeliveries = "skype", true
	suite = append(suite, shared, kept)

	var grid []Spec
	for _, scheme := range []string{"cubic", "skype"} {
		sp := stream(6, 2, 2)
		sp.Name, sp.Scheme = scheme, scheme
		grid = append(grid, sp)
	}
	mixed := stream(6, 2, 2)
	mixed.Name, mixed.Groups = "cubic x2 + skype x2", []FlowGroup{{Scheme: "cubic", Count: 2}, {Scheme: "skype", Count: 2}}
	vegas := stream(6, 2, 2)
	vegas.Name, vegas.Scheme, vegas.Flows, vegas.Loss = "vegas x4 2% loss", "vegas", 4, 0.02
	grid = append(grid, mixed, vegas)

	var cells, crowd []Spec
	for _, sched := range []string{"proportional-fair", "round-robin"} {
		sp := stream(2, 0.5, 0)
		sp.Name = "cell " + sched
		sp.Cell = &CellSpec{Scheduler: sched, Groups: []CellGroup{{Scheme: "sprout", Flows: 6}}}
		cells = append(cells, sp)

		sp = stream(4, 1, 4)
		sp.Name = "crowd " + sched
		sp.Cell = &CellSpec{
			Scheduler: sched,
			Cells:     2,
			Groups: []CellGroup{
				{Scheme: "vegas", Flows: 16, Cell: 0},
				{Scheme: "ledbat", Flows: 8, Cell: 1},
				{Scheme: "facetime", Flows: 8, Cell: 1},
			},
			Churn:        &ChurnSpec{ArrivalRate: 2, MeanLifetime: secs(3)},
			HandoverRate: 2,
		}
		crowd = append(crowd, sp)
	}

	var sweep []Spec
	for _, scheme := range []string{"cubic", "vegas", "skype", "ledbat"} {
		for flows := 1; flows <= 3; flows++ {
			sp := stream(4, 1, 0)
			sp.Name, sp.Scheme, sp.Flows = fmt.Sprintf("%s x%d", scheme, flows), scheme, flows
			sweep = append(sweep, sp)
		}
	}
	return []struct {
		name  string
		specs []Spec
	}{
		{"paper_suite", suite},
		{"transport_grid", grid},
		{"cell_sprout", cells},
		{"cell_crowd", crowd},
		{"shard_sweep", sweep},
	}
}

// workRow is one line of testdata/work.json: one spec's Work at one seed.
type workRow struct {
	Grid  string `json:"grid"`
	Seed  int64  `json:"seed"`
	Label string `json:"label"`
	Work  Work   `json:"work"`
}

// TestWorkPinned holds every counter of Work, for the grids of
// workGrids at seeds 1–3, to testdata/work.json exactly. The grids run on
// two workers, so worlds are reused. A change that moves work on purpose
// re-pins the rows it moves (the failure logs the whole regenerated file)
// and names the counters it claims.
func TestWorkPinned(t *testing.T) {
	var rows []workRow
	for _, g := range workGrids() {
		for seed := int64(1); seed <= 3; seed++ {
			specs := append([]Spec(nil), g.specs...)
			for i := range specs {
				specs[i].Seed = seed
			}
			results, _, err := RunAll(context.Background(), specs, 2)
			if err != nil {
				t.Fatalf("%s seed %d: %v", g.name, seed, err)
			}
			for _, r := range results {
				rows = append(rows, workRow{Grid: g.name, Seed: seed, Label: r.Spec.Label(), Work: r.Work})
			}
		}
	}
	var got bytes.Buffer
	got.WriteString("[\n")
	for i, r := range rows {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(line)
		if i < len(rows)-1 {
			got.WriteString(",")
		}
		got.WriteString("\n")
	}
	got.WriteString("]\n")

	data, err := os.ReadFile("testdata/work.json")
	if err != nil {
		t.Fatalf("%v; the pins would be:\n%s", err, got.Bytes())
	}
	var want []workRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(rows) {
		t.Fatalf("%d rows pinned, %d run; the pins would be:\n%s", len(want), len(rows), got.Bytes())
	}
	var moved []string
	for i, r := range rows {
		if r != want[i] {
			moved = append(moved, fmt.Sprintf("%s seed %d %q:\n got %+v\nwant %+v", r.Grid, r.Seed, r.Label, r.Work, want[i].Work))
		}
	}
	if len(moved) > 0 {
		t.Errorf("%d of %d rows moved:\n%s\nthe pins would be:\n%s", len(moved), len(rows), strings.Join(moved, "\n"), got.Bytes())
	}
}
