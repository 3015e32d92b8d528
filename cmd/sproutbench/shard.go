// Sharded sweeps from the CLI: -shard i/n runs one partition of a
// -scenario grid and streams JSONL; -shards n supervises n child
// processes through dispatch.Supervise (liveness tracking, classified
// retries, rescue of dead shards' jobs) and merges their logs; -ab a.json,b.json fans two
// variant grids across shards and reports per-variant p50/p95/p99
// rollups with a verdict. See DESIGN.md §9–10.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"sort"
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

// shardMode is the validated sharding configuration parsed from flags.
type shardMode struct {
	// Shard is set in worker mode (-shard i/n): run one partition.
	Shard *engine.Shard
	// Out is the worker's JSONL destination ("" = stdout).
	Out string
	// Shards > 1 is parent mode: supervise child processes and merge.
	Shards int
	// Checkpoint is the shard-log directory ("" = temp, discarded).
	Checkpoint string
	// AB holds the two variant scenario files in A/B mode.
	AB []string
	// Hosts is the dispatch pool for parent mode (empty = one implicit
	// local host); Transport the remote command template ("" = local
	// child processes).
	Hosts     []string
	Transport string
	// Retries bounds attempts per shard; Stall is the liveness deadline.
	Retries int
	Stall   time.Duration
	// Timeout is the sweep-wide deadline (0 = none); an expired sweep
	// exits via the -partial path with the exact missing-index report.
	Timeout time.Duration
	// Chaos, when nonzero, seeds a deterministic fault plan.
	Chaos int64
	// Partial tolerates an incomplete merge (report + degrade, exit 0);
	// Rescue recomputes dead shards' jobs in-process.
	Partial bool
	Rescue  bool
}

// shardFlagInputs carries the raw sharding flag values into validation.
type shardFlagInputs struct {
	Shard      string
	Shards     int
	AB         string
	Scenario   string
	Out        string
	Checkpoint string
	Hosts      string
	Transport  string
	Retries    int
	Stall      time.Duration
	Timeout    time.Duration
	Chaos      int64
	Partial    bool
	Rescue     bool
}

// parseShardFlags validates the sharding flag combination, returning a
// one-line error (never panicking) on anything malformed — the CLI turns
// that into exit code 2.
func parseShardFlags(in shardFlagInputs) (shardMode, error) {
	var m shardMode
	if in.Shards < 0 {
		return m, fmt.Errorf("-shards must be >= 0, got %d", in.Shards)
	}
	if in.Retries < 0 {
		return m, fmt.Errorf("-retries must be >= 0, got %d", in.Retries)
	}
	if in.Stall < 0 {
		return m, fmt.Errorf("-stall must be >= 0, got %v", in.Stall)
	}
	if in.Timeout < 0 {
		return m, fmt.Errorf("-timeout must be >= 0, got %v", in.Timeout)
	}
	parent := in.AB == "" && in.Shard == "" && in.Shards > 1
	if !parent {
		if in.Chaos != 0 {
			return m, fmt.Errorf("-chaos injects faults into supervised children; it requires parent mode (-shards > 1)")
		}
		if in.Partial {
			return m, fmt.Errorf("-partial degrades a supervised merge; it requires parent mode (-shards > 1)")
		}
		if in.Hosts != "" {
			return m, fmt.Errorf("-hosts names a dispatch pool for supervised shards; it requires parent mode (-shards > 1)")
		}
		if in.Transport != "" {
			return m, fmt.Errorf("-transport dispatches supervised shards; it requires parent mode (-shards > 1)")
		}
		if in.Timeout != 0 {
			return m, fmt.Errorf("-timeout bounds a supervised sweep; it requires parent mode (-shards > 1)")
		}
	}
	if in.Transport != "" && in.Hosts == "" {
		return m, fmt.Errorf("-transport runs shards on the machines named by -hosts; -hosts is required")
	}
	if in.AB != "" {
		parts := strings.Split(in.AB, ",")
		if len(parts) != 2 || strings.TrimSpace(parts[0]) == "" || strings.TrimSpace(parts[1]) == "" {
			return m, fmt.Errorf("-ab wants exactly two scenario files as \"specA.json,specB.json\", got %q", in.AB)
		}
		if in.Shard != "" {
			return m, fmt.Errorf("-ab and -shard are mutually exclusive")
		}
		if in.Scenario != "" {
			return m, fmt.Errorf("-ab replaces -scenario; give the variant files to -ab only")
		}
		m.AB = []string{strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])}
		m.Shards = in.Shards
		return m, nil
	}
	if in.Shard != "" {
		sh, err := engine.ParseShard(in.Shard)
		if err != nil {
			return m, err
		}
		if in.Scenario == "" {
			return m, fmt.Errorf("-shard runs one partition of a -scenario grid; -scenario is required")
		}
		if in.Shards > 0 {
			return m, fmt.Errorf("-shard (worker mode) and -shards (parent mode) are mutually exclusive")
		}
		m.Shard = &sh
		m.Out = in.Out
		return m, nil
	}
	if in.Shards > 1 {
		if in.Scenario == "" {
			return m, fmt.Errorf("-shards fans a -scenario grid across child processes; -scenario is required")
		}
		m.Shards = in.Shards
		m.Checkpoint = in.Checkpoint
		if in.Hosts != "" {
			for _, h := range strings.Split(in.Hosts, ",") {
				h = strings.TrimSpace(h)
				if h == "" {
					return m, fmt.Errorf("-hosts has an empty host name in %q", in.Hosts)
				}
				m.Hosts = append(m.Hosts, h)
			}
		}
		m.Transport = in.Transport
		// "0 = default" for -retries and -stall is set here and only here.
		m.Retries = in.Retries
		if m.Retries == 0 {
			m.Retries = 3
		}
		m.Stall = in.Stall
		if m.Stall == 0 {
			m.Stall = 2 * time.Minute
		}
		m.Timeout = in.Timeout
		m.Chaos = in.Chaos
		m.Partial = in.Partial
		m.Rescue = in.Rescue
	}
	return m, nil
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

// runShardWorker is the child half of a multi-process sweep: compile the
// grid, run the owned partition, append records to the JSONL log. An
// existing log resumes — completed indexes are skipped, a torn tail from
// a killed predecessor is truncated — so the supervisor's retries never
// recompute finished jobs. Permanent conditions exit with
// dispatch.ExitPermanent so the supervisor fails the shard fast instead
// of burning retries: an unloadable grid, or a corrupt
// (terminated-garbage) checkpoint log.
// Faults a chaos supervisor injected via SPROUT_FAULT are wired around
// the log writer here — the recovery machinery upstream cannot tell an
// injected failure from a real one.
func runShardWorker(scenarioFile string, sh engine.Shard, out string, opt harness.Options, eng *engine.Engine) {
	inj, err := fault.FromEnv()
	check(err)
	inj.Start()
	specs, _, err := loadScenarioSpecs(scenarioFile, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sproutbench:", err)
		fatalExit(dispatch.ExitPermanent)
	}
	var done []int
	var w *engine.RecordWriter
	if out == "" {
		w = engine.NewRecordWriter(inj.Writer(os.Stdout))
	} else {
		recs, f, err := engine.OpenShardLog(out)
		if errors.Is(err, engine.ErrCorruptLog) {
			fmt.Fprintln(os.Stderr, "sproutbench:", err)
			fatalExit(dispatch.ExitPermanent)
		}
		check(err)
		defer f.Close()
		done = engine.CompletedIndexes(recs)
		w = engine.NewRecordWriterSynced(inj.Writer(f), f.Sync)
	}
	st, err := scenario.RunShard(context.Background(), eng, specs, sh, done, w)
	check(err)
	fmt.Fprintf(os.Stderr, "shard %s: %d of %d jobs (%d resumed); %s\n",
		sh, sh.Size(len(specs)), len(specs), len(done), st)
}

// runShardParent runs a supervised multi-process sweep through
// dispatch.Supervise (one child per shard, liveness tracking, classified
// retries with capped jittered backoff, host failover when a -hosts pool
// is given, salvage and rescue of what dead shards left behind, merge by
// global index) and prints the standard scenario table. With -checkpoint
// the directory persists, so a killed parent rerun resumes instead of
// recomputing. With -chaos a seeded fault plan is injected into the
// children and, over a -hosts pool, into the pulls — the merged output
// must not change. SIGINT/SIGTERM and -timeout cancel the sweep cleanly: every
// child is terminated, the fsynced logs are merged, and the parent
// exits through the partial-report path with the exact missing-index
// list. See DESIGN.md §10.
func runShardParent(scenarioFile string, mode shardMode, opt harness.Options, parallel int) {
	specs, streaming, err := loadScenarioSpecs(scenarioFile, opt)
	check(err)
	dir := mode.Checkpoint
	if dir == "" {
		dir, err = os.MkdirTemp("", "sproutbench-shards-*")
		check(err)
		defer os.RemoveAll(dir)
	}
	exe, err := os.Executable()
	check(err)
	var tr dispatch.Transport
	if mode.Transport != "" {
		tr, err = dispatch.NewCmdTransport(mode.Transport)
		check(err)
	}
	var plan fault.Plan
	if mode.Chaos != 0 {
		plan = fault.NewPlan(mode.Chaos, mode.Shards, mode.Hosts, mode.Retries, mode.Stall*3/2)
		fmt.Fprintf(os.Stderr, "sproutbench: chaos seed %d: %s\n", mode.Chaos, plan)
	}

	// A signal cancels the sweep's context: every attempt's select sees
	// Done, kills its child, and supervision falls through to the
	// partial merge. The logs are fsynced per record, so nothing the
	// children completed is lost to the termination.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if mode.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, mode.Timeout)
		defer cancel()
	}

	start := time.Now()
	sum, err := dispatch.Supervise(ctx, dispatch.Config{
		Worker:    workerPrefix(exe, scenarioFile, opt),
		Specs:     specs,
		Seed:      opt.Seed,
		Dir:       dir,
		Shards:    mode.Shards,
		Parallel:  parallel,
		Transport: tr,
		Hosts:     mode.Hosts,
		Retries:   mode.Retries,
		Stall:     mode.Stall,
		Faults:    plan,
		Rescue:    mode.Rescue,
		Log:       os.Stderr,
	})
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		reason := "interrupted"
		if errors.Is(err, context.DeadlineExceeded) {
			reason = fmt.Sprintf("timed out after %v", mode.Timeout)
		}
		fmt.Fprintf(os.Stderr, "sproutbench: sweep %s; %d of %d jobs completed (resume with the same -checkpoint)\n",
			reason, len(specs)-len(sum.Missing), len(specs))
		if len(sum.Missing) > 0 {
			fmt.Printf("partial: missing %d of %d jobs: %s\n", len(sum.Missing), len(specs), formatMissing(sum.Missing))
		}
		printScenarioResults(fmt.Sprintf("Scenarios from %s (%d shards, partial)", scenarioFile, mode.Shards), sum.Results)
		if !mode.Partial && len(sum.Missing) > 0 {
			fatalExit(1)
		}
		return
	}
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
		fmt.Fprintf(os.Stderr, "sproutbench: recovery: %d shard(s) retried or failed, %d dead, %d log(s) quarantined, %d job(s) rescued\n",
			retried, dead, sum.Quarantined, sum.Rescued)
	}
	if len(sum.Missing) > 0 && !mode.Partial {
		fmt.Fprintf(os.Stderr, "sproutbench: %d of %d jobs missing after supervision: %s (rerun with the same -checkpoint to resume, or -partial to merge what completed)\n",
			len(sum.Missing), len(specs), formatMissing(sum.Missing))
		fatalExit(1)
	}
	fmt.Fprintf(os.Stderr, "sharded: %d jobs across %d supervised child processes in %v; %d streaming scenario(s)\n",
		len(specs), mode.Shards, time.Since(start).Round(time.Millisecond), streaming)
	if len(sum.Missing) > 0 {
		fmt.Printf("partial: missing %d of %d jobs: %s\n", len(sum.Missing), len(specs), formatMissing(sum.Missing))
	}
	printScenarioResults(fmt.Sprintf("Scenarios from %s (%d shards)", scenarioFile, mode.Shards), sum.Results)
}

// workerPrefix is the command every shard worker of a sweep shares: the
// binary, the grid and the per-run options the grid leaves unset.
func workerPrefix(exe, scenarioFile string, opt harness.Options) []string {
	return []string{exe, "-scenario", scenarioFile,
		"-duration", opt.Duration.String(), "-skip", opt.Skip.String()}
}

// formatMissing renders a missing-index report in full — the -partial
// contract is the exact job list, not a sample.
func formatMissing(missing []int) string {
	sorted := append([]int{}, missing...)
	sort.Ints(sorted)
	return fmt.Sprint(sorted)
}

// abVariant is one side of an A/B comparison after its sweep completes.
type abVariant struct {
	Name    string
	File    string
	Runs    int
	TputP   []float64 // p50/p95/p99 throughput, kbps
	DelayP  []float64 // p50/p95/p99 delay95, ms
	Elapsed time.Duration
}

// rollup computes the per-variant quantiles from merged results.
func rollup(name, file string, results []scenario.Result, elapsed time.Duration) abVariant {
	tput := make([]float64, len(results))
	delay := make([]float64, len(results))
	for i, r := range results {
		tput[i] = r.Metrics.ThroughputBps / 1000
		delay[i] = float64(r.Delay95) / float64(time.Millisecond)
	}
	return abVariant{
		Name: name, File: file, Runs: len(results),
		TputP:   stats.Quantiles(tput, 0.5, 0.95, 0.99),
		DelayP:  stats.Quantiles(delay, 0.5, 0.95, 0.99),
		Elapsed: elapsed,
	}
}

// verdict renders the one-line comparison: A wins if its median
// throughput is no lower and its median delay no higher than B's (with at
// least one strict), and symmetrically for B; anything else is mixed.
func verdict(a, b abVariant) string {
	dt := pctDelta(a.TputP[0], b.TputP[0])
	dd := pctDelta(a.DelayP[0], b.DelayP[0])
	rel := fmt.Sprintf("A vs B: %+.1f%% p50 throughput, %+.1f%% p50 delay95", dt, dd)
	switch {
	case dt == 0 && dd == 0:
		return rel + " — tie"
	case dt >= 0 && dd <= 0:
		return rel + " — A wins"
	case dt <= 0 && dd >= 0:
		return rel + " — B wins"
	default:
		return rel + " — mixed (throughput and delay disagree)"
	}
}

func pctDelta(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return (a - b) / b * 100
}

// runAB executes the two variant grids as sharded sweeps (in-process
// shards; each variant's records round-trip the same JSONL codec the
// multi-process path uses) and prints the p50/p95/p99 rollup plus the
// verdict line.
func runAB(mode shardMode, opt harness.Options, workers int) {
	shards := mode.Shards
	if shards < 2 {
		shards = 2
	}
	variants := make([]abVariant, 2)
	for i, file := range mode.AB {
		name := string(rune('A' + i))
		specs, _, err := loadScenarioSpecs(file, opt)
		check(err)
		start := time.Now()
		results, st, err := scenario.RunSharded(context.Background(), specs, scenario.ShardedOptions{
			Shards: shards, Workers: workers,
		})
		check(err)
		elapsed := time.Since(start)
		fmt.Fprintf(os.Stderr, "variant %s (%s): %s\n", name, file, st)
		variants[i] = rollup(name, file, results, elapsed)
	}
	header(fmt.Sprintf("A/B: %s vs %s (%d in-process shards)", mode.AB[0], mode.AB[1], shards))
	fmt.Printf("%-2s %-32s %5s %27s %27s %10s\n",
		"", "variant", "runs", "tput p50/p95/p99 (kbps)", "delay95 p50/p95/p99 (ms)", "wall")
	for _, v := range variants {
		fmt.Printf("%-2s %-32s %5d %9.0f %8.0f %8.0f %9.0f %8.0f %8.0f %10v\n",
			v.Name, v.File, v.Runs,
			v.TputP[0], v.TputP[1], v.TputP[2],
			v.DelayP[0], v.DelayP[1], v.DelayP[2],
			v.Elapsed.Round(time.Millisecond))
	}
	fmt.Printf("verdict: %s\n", verdict(variants[0], variants[1]))
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
