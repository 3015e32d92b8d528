package main

import (
	"fmt"
	"time"

	"sprout/internal/harness"
	"sprout/internal/scenario"
	"sprout/internal/trace"
)

// A workload is one named job set, built from public scenario.Spec fields.
// Every pass of a run executes the whole set once, so passes are directly
// comparable and their result digests must agree.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text).
	why string
	// sharded runs the set through scenario.RunSharded instead of
	// CompileJobs + Engine.Run, and once more per run, outside the measured
	// passes, into an fsync'd checkpoint directory.
	sharded bool
	// build returns the spec grid without seeds (see specs). smoke
	// selects the ≈1/50-scale set the tests run.
	build func(smoke bool) []scenario.Spec
}

// shards is the shard_sweep decomposition width.
const shards = 2

var workloads = []workload{
	{
		name:  "paper_suite",
		why:   "the job set `sproutbench -run all` compiles; Sprout's core inference dominates (what a user waits for)",
		build: paperSuite,
	},
	{
		name:  "transport_grid",
		why:   "TCP and app schemes on streaming links, no core inference: per-packet sim/link/trace/metrics cost",
		build: transportGrid,
	},
	{
		name:  "cell_sprout",
		why:   "24 Sprout flows per shared cell: the only user of cell.Hub, core.ForecastBatch and DeferFeedback",
		build: cellSprout,
	},
	{
		name:  "cell_crowd",
		why:   "512-flow two-cell towers with churn and handover, no core: cell scheduler and tower at width",
		build: cellCrowd,
	},
	{
		name:    "shard_sweep",
		why:     "thousands of 4-sim-s jobs through RunSharded, records in memory (one fsync'd checkpoint pass beside the clock): per-job and per-record overhead",
		sharded: true,
		build:   shardSweep,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// specs builds the workload's grid for one benchmark seed. Job k runs on
// spec seed seed·1000003 + 1 + k: every job draws its own link
// realization, so one pass averages over as many of them as it has jobs.
// With one seed shared by all jobs (as the sproutbench CLI does) a single
// 30-sim-s outage moves every job at once, and the work in a pass, its
// packet count and its memory moved 5 %, 5 % and 40 % between benchmark
// seeds; the driver compares runs across seeds. The +1 keeps benchmark
// seed 0 away from spec seed 0, which Spec.Normalize rewrites to 1.
func (w workload) specs(seed int64, smoke bool) []scenario.Spec {
	specs := w.build(smoke)
	for k := range specs {
		specs[k].Seed = seed*1_000_003 + 1 + int64(k)
	}
	return specs
}

func secs(s float64) scenario.Duration {
	return scenario.Duration(time.Duration(s * float64(time.Second)))
}

// directedModels returns the four canonical networks' link model names,
// index-aligned: down[i] and up[i] are the two directions of one network.
func directedModels() (down, up []string) {
	for _, p := range trace.CanonicalNetworks() {
		down = append(down, p.Down.Name)
		up = append(up, p.Up.Name)
	}
	return down, up
}

// paperSuite mirrors what `sproutbench -run all` compiles, on materialized
// canonical traces: the 10-scheme × 8-link matrix (Table 1/2, Fig. 7/8),
// the Fig. 9 confidence sweep with its baselines, the §5.6 loss table, the
// §5.7 direct/tunnelled pair, the solo/shared multi-Sprout pair and the
// Fig. 1 pair. Durations are cut from the CLI's 150 s/30 s so one pass
// lasts about two seconds; the job list is not cut.
func paperSuite(smoke bool) []scenario.Spec {
	dur, skip := 30.0, 6.0
	schemes := scenario.PaperSchemes()
	if smoke {
		dur, skip = 3, 1
		schemes = []string{"sprout", "cubic"}
	}
	base := scenario.Spec{Duration: secs(dur), Skip: secs(skip)}
	nets := trace.CanonicalNetworks()
	verizon, tmobile := nets[0].Name, nets[3].Name

	specs, _ := harness.MatrixSpecs(harness.Options{
		Duration: time.Duration(base.Duration), Skip: time.Duration(base.Skip),
	}, schemes)
	if !smoke {
		// Fig. 9 (§5.5): Sprout at five confidences plus every baseline
		// on the T-Mobile 3G uplink.
		sweep := base
		sweep.Name, sweep.Scheme = "fig9 sprout", "sprout"
		sweep.Link, sweep.Direction = tmobile, "up"
		sweep.Confidences = []float64{0.95, 0.75, 0.50, 0.25, 0.05}
		expanded, err := sweep.Sweep()
		if err != nil {
			panic(err) // constants above; cannot fail
		}
		specs = append(specs, expanded...)
		for _, scheme := range schemes {
			if scheme == "sprout" {
				continue
			}
			sp := base
			sp.Name, sp.Scheme = "fig9 "+scheme, scheme
			sp.Link, sp.Direction = tmobile, "up"
			specs = append(specs, sp)
		}
	}

	// §5.6 loss table: Sprout on Verizon LTE, both directions.
	losses := []float64{0, 0.05, 0.10}
	if smoke {
		losses = []float64{0.05}
	}
	for _, dir := range []string{"down", "up"} {
		for _, loss := range losses {
			sp := base
			sp.Name = fmt.Sprintf("loss sprout %s %.0f%%", dir, loss*100)
			sp.Scheme, sp.Link, sp.Direction, sp.Loss = "sprout", verizon, dir, loss
			specs = append(specs, sp)
		}
	}

	// §5.7: Cubic bulk + Skype call, direct and through SproutTunnel.
	for _, tunnel := range []bool{false, true} {
		sp := base
		sp.Name = map[bool]string{false: "tunnel-exp direct", true: "tunnel-exp tunnelled"}[tunnel]
		sp.Groups = []scenario.FlowGroup{
			{Scheme: "cubic", Count: 1, BaseFlow: 10},
			{Scheme: "skype", Count: 1, BaseFlow: 20},
		}
		sp.Link, sp.Tunnel = verizon, tunnel
		specs = append(specs, sp)
	}

	// Multi-Sprout (§7): one session alone, two sharing the queue.
	for _, flows := range []int{1, 2} {
		sp := base
		sp.Name = fmt.Sprintf("multi sprout x%d", flows)
		sp.Scheme, sp.Flows, sp.Link = "sprout", flows, verizon
		specs = append(specs, sp)
	}

	// Fig. 1: Sprout and Skype on the Verizon LTE downlink, raw delivery
	// logs retained as the figure needs them.
	for _, scheme := range []string{"sprout", "skype"} {
		sp := base
		sp.Name, sp.Scheme, sp.Link = "fig1 "+scheme, scheme, verizon
		sp.KeepDeliveries = true
		specs = append(specs, sp)
	}
	return specs
}

// streamSpec returns base on the streaming model pair data/feedback at
// the given rate scale. Every spec gets its own ProcessSpec values:
// worker worlds memoize compiled processes by pointer.
func streamSpec(base scenario.Spec, data, feedback string, scale float64) scenario.Spec {
	base.Process = &scenario.ProcessSpec{Model: data, Scale: scale}
	base.FeedbackProcess = &scenario.ProcessSpec{Model: feedback, Scale: scale}
	return base
}

// transportGrid bypasses core: eight non-Sprout schemes on the eight
// directed streaming models, four mixed shared queues and four lossy
// four-flow Vegas runs, all at twice the canonical rate so per-packet
// work dominates.
func transportGrid(smoke bool) []scenario.Spec {
	dur, skip := 300.0, 30.0
	schemes := []string{"cubic", "cubic-codel", "vegas", "compound", "ledbat", "skype", "hangout", "facetime"}
	if smoke {
		dur, skip = 12, 3
		schemes = []string{"cubic", "skype"}
	}
	base := scenario.Spec{Duration: secs(dur), Skip: secs(skip)}
	down, up := directedModels()
	var specs []scenario.Spec
	for _, scheme := range schemes {
		for i := range down {
			for _, pair := range [][2]string{{down[i], up[i]}, {up[i], down[i]}} {
				sp := streamSpec(base, pair[0], pair[1], 2)
				sp.Name = scheme + " on " + pair[0]
				sp.Scheme = scheme
				specs = append(specs, sp)
			}
		}
	}
	if smoke {
		down, up = down[:1], up[:1]
	}
	for i := range down {
		sp := streamSpec(base, down[i], up[i], 2)
		sp.Name = "cubic x2 + skype x2 on " + down[i]
		sp.Groups = []scenario.FlowGroup{{Scheme: "cubic", Count: 2}, {Scheme: "skype", Count: 2}}
		specs = append(specs, sp)

		sp = streamSpec(base, down[i], up[i], 2)
		sp.Name = "vegas x4 2% loss on " + down[i]
		sp.Scheme, sp.Flows, sp.Loss = "vegas", 4, 0.02
		specs = append(specs, sp)
	}
	return specs
}

// cellSprout puts 24 Sprout flows on one shared cell per job, so the hub
// answers every flow's forecast from one ForecastBatch call per tick.
// Schedulers alternate across the four downlink models.
func cellSprout(smoke bool) []scenario.Spec {
	dur, skip, flows := 15.0, 3.0, 24
	down, up := directedModels()
	if smoke {
		dur, skip, flows = 2, 0.5, 6
		down, up = down[:2], up[:2]
	}
	var specs []scenario.Spec
	for i := range down {
		sched := []string{"proportional-fair", "round-robin"}[i%2]
		sp := streamSpec(scenario.Spec{Duration: secs(dur), Skip: secs(skip)}, down[i], up[i], 0)
		sp.Name = fmt.Sprintf("cell %s %dx sprout on %s", sched, flows, down[i])
		sp.Cell = &scenario.CellSpec{
			Scheduler: sched,
			Groups:    []scenario.CellGroup{{Scheme: "sprout", Flows: flows}},
		}
		specs = append(specs, sp)
	}
	return specs
}

// cellCrowd is the tower at width with core bypassed: two cells, 512
// static flows, Poisson churn and handover, both schedulers on all four
// downlink models at four times the canonical rate, three times over.
func cellCrowd(smoke bool) []scenario.Spec {
	dur, skip, reps, div := 60.0, 12.0, 3, 1
	down, up := directedModels()
	if smoke {
		dur, skip, reps, div = 6, 1.5, 1, 8
		down, up = down[:1], up[:1]
	}
	var specs []scenario.Spec
	for k := 0; k < reps; k++ {
		for _, sched := range []string{"proportional-fair", "round-robin"} {
			for i := range down {
				sp := streamSpec(scenario.Spec{Duration: secs(dur), Skip: secs(skip)}, down[i], up[i], 4)
				sp.Name = fmt.Sprintf("crowd %s on %s #%d", sched, down[i], k)
				sp.Cell = &scenario.CellSpec{
					Scheduler: sched,
					Cells:     2,
					Groups: []scenario.CellGroup{
						{Scheme: "vegas", Flows: 256 / div, Cell: 0},
						{Scheme: "ledbat", Flows: 128 / div, Cell: 1},
						{Scheme: "facetime", Flows: 128 / div, Cell: 1},
					},
					Churn:        &scenario.ChurnSpec{ArrivalRate: 2, MeanLifetime: secs(30)},
					HandoverRate: 2,
				}
				specs = append(specs, sp)
			}
		}
	}
	return specs
}

// shardSweep is many short jobs: four schemes × four downlink models ×
// one to three flows (48 combinations), sixty times over. Jobs are short
// enough that spec normalisation, process compilation, RNG reseeding and
// the record encode, decode and merge are the work.
func shardSweep(smoke bool) []scenario.Spec {
	reps := 60
	if smoke {
		reps = 1
	}
	down, up := directedModels()
	var specs []scenario.Spec
	for k := 0; k < reps; k++ {
		for _, scheme := range []string{"cubic", "vegas", "skype", "ledbat"} {
			for i := range down {
				for flows := 1; flows <= 3; flows++ {
					sp := streamSpec(scenario.Spec{Duration: secs(4), Skip: secs(1)}, down[i], up[i], 0)
					sp.Name = fmt.Sprintf("%s x%d on %s #%d", scheme, flows, down[i], k)
					sp.Scheme, sp.Flows = scheme, flows
					specs = append(specs, sp)
				}
			}
		}
	}
	return specs
}
