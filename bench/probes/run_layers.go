package probes

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"sprout/internal/engine"
	"sprout/internal/harness"
	"sprout/internal/scenario"
	"sprout/internal/trace"
)

func secs(s float64) scenario.Duration {
	return scenario.Duration(time.Duration(s * float64(time.Second)))
}

// sweepSpecs is shard_sweep's shape: short streaming jobs, each with its
// own ProcessSpec pair, one to three flows, the seed stepping.
func sweepSpecs(n int) []scenario.Spec {
	schemes := []string{"cubic", "vegas", "skype", "ledbat"}
	nets := trace.CanonicalNetworks()
	specs := make([]scenario.Spec, n)
	for i := range specs {
		net := nets[i%len(nets)]
		specs[i] = scenario.Spec{
			Scheme:          schemes[i/len(nets)%len(schemes)],
			Flows:           1 + i%3,
			Process:         &scenario.ProcessSpec{Model: net.Down.Name},
			FeedbackProcess: &scenario.ProcessSpec{Model: net.Up.Name},
			Duration:        secs(4),
			Skip:            secs(1),
			Seed:            int64(1 + i/48),
		}
	}
	return specs
}

// scenarioProbes time what shard_sweep pays per job outside the
// simulation itself: validation, compilation, the fixed cost of a job on
// a warm world, and the record codec.
func scenarioProbes(c Config) ([]Result, error) {
	specs := sweepSpecs(480)
	at := 0
	next := func() scenario.Spec { at++; return specs[at%len(specs)] }

	// One worker, one compiled 1-sim-s job re-run on its warm world.
	short := specs[0]
	short.Duration, short.Skip = secs(1), secs(0.25)
	eng := engine.New(1)
	jobs, results, _ := scenario.CompileJobs([]scenario.Spec{short}, nil)
	ctx := context.Background()
	if _, err := eng.Run(ctx, jobs); err != nil {
		return nil, fmt.Errorf("probes: warm job: %w", err)
	}
	rec, err := scenario.EncodeResult(0, results[0])
	if err != nil {
		return nil, err
	}
	one := []scenario.Spec{short}

	return []Result{
		c.micro("scenario.normalize_us", "us", perUS, func(n int) time.Duration {
			return timed(n, func() { _, _ = next().Normalize() })
		}),
		c.fixed("scenario.compile_us_per_job", "us", perUS/float64(len(specs)), c.Batches, func(n int) time.Duration {
			return timed(n, func() { scenario.CompileJobs(specs, nil) })
		}),
		c.micro("scenario.warm_job_overhead_us", "us", perUS, func(n int) time.Duration {
			return timed(n, func() { _, _ = eng.Run(ctx, jobs) })
		}),
		c.micro("scenario.encode_us", "us", perUS, func(n int) time.Duration {
			return timed(n, func() { _, _ = scenario.EncodeResult(0, results[0]) })
		}),
		c.micro("scenario.decode_us", "us", perUS, func(n int) time.Duration {
			return timed(n, func() { _, _ = scenario.DecodeResult(rec, one) })
		}),
	}, nil
}

// engineProbes time the dispatch loop on no-op jobs and the shard record
// path on a real shard_sweep record: encode and write, the fsync that
// follows each checkpointed record, and the index-ordered merge.
func engineProbes(c Config) ([]Result, error) {
	const noops = 10_000
	jobs := make([]engine.Job, noops)
	for i := range jobs {
		jobs[i] = engine.Job{Name: "noop", Run: func(context.Context, *engine.WorkerState) error { return nil }}
	}
	eng := engine.New(c.Workers)
	ctx := context.Background()

	res, err := scenario.Run(sweepSpecs(1)[0], nil)
	if err != nil {
		return nil, fmt.Errorf("probes: sample record: %w", err)
	}
	rec, err := scenario.EncodeResult(0, res)
	if err != nil {
		return nil, err
	}
	mem := engine.NewRecordWriter(io.Discard)

	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(c.Dir, "fsync-probe-*.jsonl")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	synced := engine.NewRecordWriterSynced(f, f.Sync)
	var werr error

	// Two shards' streams of a 2 880-job sweep, as MergeShardLogs hands
	// them to the merge.
	const total = 2880
	streams := make([][]engine.Record, 2)
	for i := 0; i < total; i++ {
		streams[i%2] = append(streams[i%2], engine.Record{Index: i, Data: rec.Data})
	}

	out := []Result{
		c.fixed("engine.dispatch_us_per_job", "us", perUS/noops, c.Batches, func(n int) time.Duration {
			return timed(n, func() { _, _ = eng.Run(ctx, jobs) })
		}),
		c.micro("engine.record_write_us", "us", perUS, func(n int) time.Duration {
			return timed(n, func() { _ = mem.Write(rec) })
		}),
		c.fixed("engine.record_fsync_us", "us", perUS/8, c.Batches, func(n int) time.Duration {
			return timed(8*n, func() {
				if err := synced.Write(rec); err != nil {
					werr = err
				}
			})
		}),
		c.fixed("engine.merge_us_per_record", "us", perUS/total, c.Batches, func(n int) time.Duration {
			return timed(n, func() { _, _ = engine.MergeRecords(streams, total) })
		}),
	}
	if werr != nil {
		return nil, fmt.Errorf("probes: fsync probe in %s: %w", filepath.Clean(c.Dir), werr)
	}
	return out, nil
}

// endpointProbes run one 60-sim-s flow of each endpoint family on the
// Verizon LTE downlink through scenario.Run (a fresh world per run, the
// traces generated once and injected), and Sprout's eight matrix cells
// for the simulated axes.
func endpointProbes(c Config) ([]Result, error) {
	verizon := trace.CanonicalNetworks()[0]
	data, fb := scenario.GenerateTracePair(verizon, "down", 60*time.Second, 1)
	base := scenario.Spec{Duration: secs(60), Skip: secs(12), Seed: 1, DataTrace: data, FeedbackTrace: fb}
	var runErr error
	flow := func(name string, sp scenario.Spec) Result {
		return c.heavy(name, "us", perUS/60, func(n int) time.Duration {
			return timed(n, func() {
				if _, err := scenario.Run(sp, nil); err != nil {
					runErr = fmt.Errorf("probes: %s: %w", name, err)
				}
			})
		})
	}
	single := func(scheme string) scenario.Spec {
		sp := base
		sp.Scheme = scheme
		return sp
	}
	tunnelled := base // §5.7's pair, through the tunnel
	tunnelled.Tunnel = true
	tunnelled.Groups = []scenario.FlowGroup{
		{Scheme: "cubic", Count: 1, BaseFlow: 10},
		{Scheme: "skype", Count: 1, BaseFlow: 20},
	}
	out := []Result{
		flow("transport.us_per_sim_s", single("sprout")),
		flow("tcp.cubic_us_per_sim_s", single("cubic")),
		flow("tcp.vegas_us_per_sim_s", single("vegas")),
		flow("app.skype_us_per_sim_s", single("skype")),
		flow("tunnel.us_per_sim_s", tunnelled),
	}
	if runErr != nil {
		return nil, runErr
	}

	// Simulated, so exact for a fixed seed: Sprout's mean throughput and
	// self-inflicted delay over its eight matrix cells, at paper_suite's
	// run length.
	specs, _ := harness.MatrixSpecs(harness.Options{Duration: 30 * time.Second, Skip: 6 * time.Second, Seed: 1}, []string{"sprout"})
	results, _, err := scenario.RunAll(context.Background(), specs, c.Workers)
	if err != nil {
		return nil, fmt.Errorf("probes: sprout matrix cells: %w", err)
	}
	var tput, delay float64
	for _, r := range results {
		tput += r.Metrics.ThroughputBps / 1000
		delay += float64(r.Metrics.SelfInflicted95) / float64(time.Millisecond)
	}
	cells := float64(len(results))
	return append(out,
		Result{Name: "transport.sprout_tput_kbps", Unit: "kbps", Value: tput / cells, Min: tput / cells, N: 1},
		Result{Name: "transport.sprout_self_delay_ms", Unit: "ms", Value: delay / cells, Min: delay / cells, N: 1},
	), nil
}
