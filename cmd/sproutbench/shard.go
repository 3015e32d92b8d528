// Sharded sweeps from the CLI: -shard i/n runs one partition of a
// -scenario grid into its -out log (dispatch.ShardWorker); -shards n
// supervises n child processes through dispatch.Supervise (liveness
// tracking, classified retries, rescue of dead shards' jobs) and merges
// their logs. See DESIGN.md §9–10.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sprout/internal/dispatch"
	"sprout/internal/engine"
	"sprout/internal/fault"
	"sprout/internal/harness"
	"sprout/internal/scenario"
	"sprout/internal/stats"
)

// shardFlags holds the sharding flags, each documented where
// bindShardFlags binds it. parseShardFlags checks the combination and
// fills the parsed fields in place.
type shardFlags struct {
	Shard, Out, Scenario, Checkpoint, Hosts, Transport string
	Shards                                             int
	Stall                                              time.Duration
	Chaos                                              int64

	worker *engine.Shard // parsed -shard
	pool   []string      // -hosts, trimmed
}

// bindShardFlags defines the sharding flags on fs.
func bindShardFlags(fs *flag.FlagSet) *shardFlags {
	sf := &shardFlags{}
	fs.StringVar(&sf.Scenario, "scenario", "", "run the experiment specs in this JSON scenario file instead of the canonical suite")
	fs.StringVar(&sf.Shard, "shard", "", "worker mode: run shard i/n of the -scenario grid and append its JSONL records to -out")
	fs.StringVar(&sf.Out, "out", "", "JSONL log for -shard (required); an existing log is resumed, not recomputed")
	fs.IntVar(&sf.Shards, "shards", 0, "parent mode: fan the -scenario grid across this many child processes and merge their JSONL")
	fs.StringVar(&sf.Checkpoint, "checkpoint", "", "checkpoint directory for -shards: a killed sweep rerun resumes from the shard logs here")
	fs.StringVar(&sf.Hosts, "hosts", "", "comma-separated host pool for -shards: shards are dispatched across these hosts with health scoring and failover")
	fs.StringVar(&sf.Transport, "transport", "", "remote dispatch command template for -hosts, e.g. \"ssh {host} -- {exe}\"; {exe} marks where the worker command goes")
	fs.DurationVar(&sf.Stall, "stall", 2*time.Minute, "kill a shard child whose checkpoint log stops growing for this long (with -shards)")
	fs.Int64Var(&sf.Chaos, "chaos", 0, "seed a deterministic fault-injection plan into the supervised children, and into their pulls over a -hosts pool (with -shards; 0 = off); the merged output must be unchanged")
	return sf
}

// parseShardFlags validates the sharding flag combination, returning a
// one-line error (never panicking) on anything malformed — the CLI turns
// that into exit code 2.
func parseShardFlags(f *shardFlags) error {
	switch {
	case f.Shards < 0:
		return fmt.Errorf("-shards must be >= 0, got %d", f.Shards)
	case f.Stall < 0:
		return fmt.Errorf("-stall must be positive, got %v", f.Stall)
	}
	if f.Shard != "" || f.Shards <= 1 {
		switch {
		case f.Chaos != 0:
			return fmt.Errorf("-chaos injects faults into supervised children; it requires parent mode (-shards > 1)")
		case f.Checkpoint != "":
			return fmt.Errorf("-checkpoint keeps a supervised sweep's shard logs for a rerun to resume; it requires parent mode (-shards > 1)")
		case f.Hosts != "":
			return fmt.Errorf("-hosts names a dispatch pool for supervised shards; it requires parent mode (-shards > 1)")
		case f.Transport != "":
			return fmt.Errorf("-transport dispatches supervised shards; it requires parent mode (-shards > 1)")
		}
	}
	if f.Transport != "" && f.Hosts == "" {
		return fmt.Errorf("-transport runs shards on the machines named by -hosts; -hosts is required")
	}
	switch {
	case f.Shard != "":
		sh, err := engine.ParseShard(f.Shard)
		if err != nil {
			return err
		}
		if f.Scenario == "" {
			return fmt.Errorf("-shard runs one partition of a -scenario grid; -scenario is required")
		}
		if f.Shards > 0 {
			return fmt.Errorf("-shard (worker mode) and -shards (parent mode) are mutually exclusive")
		}
		if f.Out == "" {
			return fmt.Errorf("-shard appends its records to a resumable log; -out is required")
		}
		f.worker = &sh
	case f.Shards > 1:
		if f.Scenario == "" {
			return fmt.Errorf("-shards fans a -scenario grid across child processes; -scenario is required")
		}
		if f.Hosts != "" {
			for _, h := range strings.Split(f.Hosts, ",") {
				h = strings.TrimSpace(h)
				if h == "" {
					return fmt.Errorf("-hosts has an empty host name in %q", f.Hosts)
				}
				f.pool = append(f.pool, h)
			}
		}
		if f.Stall == 0 {
			return fmt.Errorf("-stall must be positive in parent mode, got 0s")
		}
	}
	return nil
}

// loadScenarioSpecs loads a scenario file and fills unset per-spec fields
// from the CLI options — in the parent, the children and a direct run
// alike, so every participant compiles the identical grid (and therefore
// the identical checkpoint fingerprint).
func loadScenarioSpecs(path string, opt harness.Options) ([]scenario.Spec, int, error) {
	specs, err := scenario.LoadFile(path)
	if err != nil {
		return nil, 0, err
	}
	streaming := 0
	for i := range specs {
		if specs[i].Duration == 0 {
			specs[i].Duration = scenario.Duration(opt.Duration)
		}
		if specs[i].Skip == 0 {
			specs[i].Skip = scenario.Duration(opt.Skip)
		}
		if specs[i].Seed == 0 {
			specs[i].Seed = opt.Seed
		}
		if specs[i].Process != nil {
			streaming++
		}
	}
	return specs, streaming, nil
}

// runShardWorker is the child half of a multi-process sweep:
// dispatch.ShardWorker over the -scenario grid, with the fault a chaos
// supervisor injected through SPROUT_FAULT.
func runShardWorker(sf *shardFlags, opt harness.Options, eng *engine.Engine) {
	f, err := fault.Parse(os.Getenv(fault.EnvVar))
	check(err)
	w := dispatch.ShardWorker{
		Shard: *sf.worker,
		Load: func() ([]scenario.Spec, error) {
			specs, _, err := loadScenarioSpecs(sf.Scenario, opt)
			return specs, err
		},
		Out:    sf.Out,
		Engine: eng,
		Fault:  fault.New(f, time.Sleep, os.Exit),
		Stderr: os.Stderr,
	}
	if code := w.Run(context.Background()); code != 0 {
		fatalExit(code)
	}
}

// runShardParent runs a supervised multi-process sweep through
// dispatch.Supervise (one child per shard, liveness tracking, classified
// retries with capped jittered backoff, host failover when a -hosts pool
// is given, rescue of what dead shards left behind, merge by global
// index) and prints the standard scenario table. With -checkpoint the
// directory persists, so a killed parent rerun resumes instead of
// recomputing. With -chaos a seeded fault plan is injected into the
// children and, over a -hosts pool, into the pulls — the merged output
// must not change. SIGINT and SIGTERM (what timeout(1) sends) cancel the
// sweep cleanly: every child is terminated, its log drained into the
// checkpoint, and the parent exits through the partial-report path with
// the exact missing-index list. See DESIGN.md §10.
func runShardParent(sf *shardFlags, opt harness.Options, parallel int) {
	specs, streaming, err := loadScenarioSpecs(sf.Scenario, opt)
	check(err)
	dir := sf.Checkpoint
	if dir == "" {
		dir, err = os.MkdirTemp("", "sproutbench-shards-*")
		check(err)
		defer os.RemoveAll(dir)
	}
	exe, err := os.Executable()
	check(err)
	var tr dispatch.Transport
	if sf.Transport != "" {
		tr, err = dispatch.NewCmdTransport(sf.Transport)
		check(err)
	}
	var plan fault.Plan
	if sf.Chaos != 0 {
		plan = fault.NewPlan(sf.Chaos, sf.Shards, sf.pool, sf.Stall*3/2)
		fmt.Fprintf(os.Stderr, "sproutbench: chaos seed %d: %s\n", sf.Chaos, plan)
	}

	// A signal cancels the sweep's context: every attempt kills its
	// child, drains its log into the checkpoint, and supervision falls
	// through to the partial merge.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	sum, err := dispatch.Supervise(ctx, dispatch.Config{
		Worker:    workerPrefix(exe, sf.Scenario, opt),
		Specs:     specs,
		Seed:      opt.Seed,
		Dir:       dir,
		Shards:    sf.Shards,
		Parallel:  parallel,
		Transport: tr,
		Hosts:     sf.pool,
		Stall:     sf.Stall,
		Faults:    plan,
		Log:       os.Stderr,
	})
	partial := ""
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "sproutbench: sweep interrupted; %d of %d jobs completed (resume with the same -checkpoint)\n",
			len(specs)-len(sum.Missing), len(specs))
		partial = ", partial"
	} else {
		check(err)
		retried, dead := 0, 0
		for _, o := range sum.Outcomes {
			if o.Attempts > 1 || o.Err != nil {
				retried++
			}
			if o.Dead {
				dead++
			}
		}
		if retried > 0 || sum.Rescued > 0 {
			fmt.Fprintf(os.Stderr, "sproutbench: recovery: %d shard(s) retried or failed, %d dead, %d job(s) rescued\n",
				retried, dead, sum.Rescued)
		}
		fmt.Fprintf(os.Stderr, "sharded: %d jobs across %d supervised child processes in %v; %d streaming scenario(s)\n",
			len(specs), sf.Shards, time.Since(start).Round(time.Millisecond), streaming)
	}
	// The report: the exact missing list (sorted, as the checkpoint
	// reader returns it), then the table of what merged.
	if len(sum.Missing) > 0 {
		fmt.Printf("partial: missing %d of %d jobs: %v\n", len(sum.Missing), len(specs), sum.Missing)
	}
	printScenarioResults(fmt.Sprintf("Scenarios from %s (%d shards%s)", sf.Scenario, sf.Shards, partial), sum.Results)
	if len(sum.Missing) > 0 {
		fatalExit(1)
	}
}

// workerPrefix is the command every shard worker of a sweep shares: the
// binary, the grid and the per-run options the grid leaves unset.
func workerPrefix(exe, scenarioFile string, opt harness.Options) []string {
	return []string{exe, "-scenario", scenarioFile,
		"-duration", opt.Duration.String(), "-skip", opt.Skip.String()}
}

// printScenarioResults renders the standard scenario table — shared by
// the direct path (runScenarioFile) and the merged sharded path, so the
// byte-identical-results contract is visible at the CLI: the table from
// -shards n matches the table from a direct run, any n.
func printScenarioResults(title string, results []scenario.Result) {
	header(title)
	fmt.Printf("%-40s %12s %16s %6s %12s\n", "scenario", "tput (kbps)", "self-delay (ms)", "util", "delay95 (ms)")
	for _, r := range results {
		tputKbps := r.Metrics.ThroughputBps / 1000
		selfMs := fmt.Sprintf("%.0f", float64(r.Metrics.SelfInflicted95)/float64(time.Millisecond))
		util := fmt.Sprintf("%.2f", r.Metrics.Utilization)
		if r.Spec.Tunnel {
			// Tunnel runs have no link-level aggregate metrics (the
			// link carries Sprout frames, not client data): sum the
			// client flows for throughput and leave the trace-relative
			// columns blank rather than printing zeros that read as
			// perfect scores.
			tputKbps = 0
			for _, f := range r.Flows {
				tputKbps += f.ThroughputBps / 1000
			}
			selfMs, util = "-", "-"
		}
		fmt.Printf("%-40s %12.0f %16s %6s %12.0f\n",
			r.Spec.Label(), tputKbps, selfMs, util,
			float64(r.Delay95)/float64(time.Millisecond))
		if r.Spec.Cell != nil && len(r.Flows) > 0 {
			// Cell worlds report per-user distributions: one quantile
			// line over the attached users' throughput and delay tails.
			tput := make([]float64, len(r.Flows))
			delay := make([]float64, len(r.Flows))
			for i, f := range r.Flows {
				tput[i] = f.ThroughputBps / 1000
				delay[i] = float64(f.Delay95) / float64(time.Millisecond)
			}
			tp := stats.Quantiles(tput, 0.5, 0.95, 0.99)
			dp := stats.Quantiles(delay, 0.5, 0.95, 0.99)
			fmt.Printf("    users %-4d tput p50/p95/p99 %.0f/%.0f/%.0f kbps   delay95 p50/p95/p99 %.0f/%.0f/%.0f ms\n",
				len(r.Flows), tp[0], tp[1], tp[2], dp[0], dp[1], dp[2])
		}
		if len(r.Flows) > 1 {
			// Suppress the per-flow listing for crowded cells — the
			// quantile line above already summarizes the population.
			if r.Spec.Cell == nil || len(r.Flows) <= 8 {
				for _, f := range r.Flows {
					fmt.Printf("    flow %-3d %-12s %12.0f %29s %12.0f\n",
						f.Flow, f.Scheme, f.ThroughputBps/1000, "",
						float64(f.Delay95)/float64(time.Millisecond))
				}
			}
			fmt.Printf("    Jain fairness %.3f\n", r.JainIndex)
		}
		if r.Spec.Tunnel {
			fmt.Printf("    tunnel head drops: %d\n", r.HeadDrops)
		}
	}
}
