package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"sprout/internal/core"
	"sprout/internal/engine"
	"sprout/internal/scenario"
	"sprout/internal/stats"
)

// runOpts parameterizes one run of one workload inside this process. The
// benchmark always executes it in a fresh child (see spawn), so set-up
// time, peak RSS and core's process-wide table cache start cold and
// workloads cannot warm each other; the tests call it directly.
type runOpts struct {
	workload string
	seed     int64
	// seconds is the measured time: passes repeat until their summed
	// wall time reaches it, and at least minPasses run.
	seconds   float64
	minPasses int
	smoke     bool
	// setupOnly stops after warm-up (the extra set-up samples of a run).
	setupOnly bool
	// spans, when non-empty, makes this a traced run and names the file
	// the spans are written to at exit.
	spans  string
	outDir string
	// start is when the process was spawned, as the parent saw it.
	start time.Time
}

// passReport is one execution of the whole job set.
type passReport struct {
	WallS  float64 `json:"wall_s"`
	CPUS   float64 `json:"cpu_s"`
	Digest string  `json:"digest"`
}

// runReport is what a child prints as its last line of standard output.
type runReport struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`

	SetupS     float64 `json:"setup_s"`
	SpecBuildS float64 `json:"spec_build_s"`
	WarmupS    float64 `json:"warmup_s"`

	// Jobs and SimS are per pass: job count and Σ job durations in
	// simulated seconds.
	Jobs   int          `json:"jobs"`
	SimS   float64      `json:"sim_s"`
	Passes []passReport `json:"passes"`

	PeakRSSMB    float64 `json:"peak_rss_mb"`
	SimTputKbps  float64 `json:"sim_tput_kbps"`
	SimDelay95Ms float64 `json:"sim_delay95_ms"`
	// ZeroTputJobs counts jobs left out of the geometric means because
	// their measured window saw no delivery.
	ZeroTputJobs int    `json:"zero_tput_jobs"`
	Digest       string `json:"result_digest"`

	// Failed counts failed jobs over all passes; Failures names the
	// first few. A digest mismatch between passes fails every job.
	Failed   int       `json:"failed"`
	Failures []failure `json:"failures,omitempty"`

	// Engine-level figures from the job spans of a traced run. The
	// sharded workload's jobs cannot be wrapped: its percentiles come from
	// sampleJobs and its efficiency from the shards' engine.Stats.
	JobMsP50    float64 `json:"job_ms_p50"`
	JobMsP90    float64 `json:"job_ms_p90"`
	ParallelEff float64 `json:"parallel_eff"`

	// The sharded workload's durable pass (checkpointPass): its wall time,
	// and by how much it exceeds the median in-memory pass, as a share.
	CheckpointWallS    float64 `json:"checkpoint_wall_s"`
	CheckpointOverhead float64 `json:"checkpoint_overhead"`

	// Exact or computed counts, per pass.
	CheckpointKB   float64 `json:"checkpoint_kb"`
	DeliveredMpkts float64 `json:"delivered_mpkts"`
	ForecastsK     float64 `json:"forecasts_k"`

	// Whole-process runtime figures.
	AllocMB     float64 `json:"alloc_mb"`
	GCCycles    uint32  `json:"gc_cycles"`
	MinorFaults int64   `json:"minor_faults"`
	SysCPUS     float64 `json:"sys_cpu_s"`
}

// maxFailuresListed caps the failure labels a report carries.
const maxFailuresListed = 8

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

func cpuSeconds(ru syscall.Rusage) float64 { return tvSeconds(ru.Utime) + tvSeconds(ru.Stime) }

// warmupSpecs picks one spec per distinct scheme mix and cuts it to two
// simulated seconds: enough to build the forecast table, the worker
// worlds and the endpoint memos. The list repeats once per worker so
// every worker's world is likely to see every mix.
func warmupSpecs(specs, norms []scenario.Spec, workers int) []scenario.Spec {
	seen := map[string]bool{}
	var picked []scenario.Spec
	for i, sp := range specs {
		norm := norms[i]
		var mix []string
		for _, g := range norm.Groups {
			mix = append(mix, g.Scheme)
		}
		if norm.Cell != nil {
			mix = append(mix, "cell/"+norm.Cell.Scheduler)
			for _, g := range norm.Cell.Groups {
				mix = append(mix, g.Scheme)
			}
		}
		sort.Strings(mix)
		key := fmt.Sprintf("%s tunnel=%v conf=%v", strings.Join(mix, "+"), norm.Tunnel, norm.Confidence)
		if seen[key] {
			continue
		}
		seen[key] = true
		sp.Name = "warmup " + sp.Label()
		sp.Duration, sp.Skip, sp.KeepDeliveries = secs(2), secs(0.5), false
		picked = append(picked, sp)
	}
	out := make([]scenario.Spec, 0, len(picked)*workers)
	for i := 0; i < workers; i++ {
		out = append(out, picked...)
	}
	return out
}

// forecastsK computes how many thousand Bayesian forecasts one pass asks
// core for: one per 20 ms tick per Sprout receiver (a tunnel runs two
// sessions). A count from the specs, not a measurement.
func forecastsK(norms []scenario.Spec) float64 {
	bayesian := func(scheme string) bool { return scheme == "sprout" || scheme == "sprout-adaptive" }
	var total float64
	for _, norm := range norms {
		receivers := 0
		for _, g := range norm.Groups {
			if bayesian(g.Scheme) {
				receivers += g.Count
			}
		}
		if norm.Tunnel {
			receivers += 2
		}
		if norm.Cell != nil {
			for _, g := range norm.Cell.Groups {
				if bayesian(g.Scheme) {
					receivers += g.Flows
				}
			}
		}
		total += float64(receivers) * time.Duration(norm.Duration).Seconds() / core.DefaultTick.Seconds()
	}
	return total / 1000
}

// runner holds one run's state between set-up and the passes.
type runner struct {
	o    runOpts
	w    workload
	rec  *recorder // nil unless traced
	root int
	eng  *engine.Engine
	// traces is the run's materialized-trace cache. With one seed per job
	// every job has its own trace pair; one cache for the whole run
	// generates each once, in the first pass (which the medians drop), so
	// trace generation stays as negligible as in a shared-seed CLI run.
	traces *engine.Cache
	specs  []scenario.Spec
	rep    runReport

	jobNS    []int64 // job span durations, traced runs
	shardNS  int64   // sharded passes' Σ job time, from the shards' stats
	engineNS int64   // Σ pass wall
}

// runWorkload executes set-up, the measured passes and verification.
func runWorkload(o runOpts) (runReport, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return runReport{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	runtime.GOMAXPROCS(workers())
	if o.start.IsZero() {
		o.start = time.Now()
	}
	r := &runner{o: o, w: w}
	r.rep = runReport{Workload: w.name, Seed: o.seed, Traced: o.spans != ""}
	if o.spans != "" {
		r.rec = newRecorder(fmt.Sprintf("%s-seed%d-pid%d", w.name, o.seed, os.Getpid()), o.start)
	}
	r.root = r.rec.beginAt(0, "run", o.start)
	if err := r.setup(); err != nil {
		return r.rep, err
	}
	if !o.setupOnly {
		if err := r.measure(); err != nil {
			return r.rep, err
		}
	}
	r.finish()
	// The sharded workload's extra passes come after finish, so the
	// whole-process figures cover the measured passes only.
	if w.sharded && len(r.rep.Passes) > 0 && r.rep.Failed == 0 {
		if err := r.checkpointPass(); err != nil {
			return r.rep, err
		}
		if r.rec != nil && r.rep.Failed == 0 {
			if err := r.sampleJobs(); err != nil {
				return r.rep, err
			}
		}
	}
	r.rec.end(r.root)
	if r.rec != nil {
		if err := r.rec.write(o.spans, w.name, newManifest(o.seed, o.outDir)); err != nil {
			return r.rep, fmt.Errorf("write spans: %w", err)
		}
	}
	return r.rep, nil
}

// setup is everything a fresh process does before the first measured
// pass: build and validate the specs, make the engine, and warm up.
func (r *runner) setup() error {
	setup := r.rec.beginAt(r.root, "setup", r.o.start)
	build := r.rec.begin(setup, "spec.build", "")
	t0 := time.Now()
	r.specs = r.w.specs(r.o.seed, r.o.smoke)
	norms := make([]scenario.Spec, len(r.specs))
	for i, sp := range r.specs {
		norm, err := sp.Normalize()
		if err != nil {
			return fmt.Errorf("%s: spec %q: %w", r.w.name, sp.Label(), err)
		}
		norms[i] = norm
		r.rep.SimS += time.Duration(norm.Duration).Seconds()
	}
	r.rep.Jobs = len(r.specs)
	r.rep.ForecastsK = forecastsK(norms)
	r.rep.SpecBuildS = time.Since(t0).Seconds()
	r.rec.end(build)

	r.eng = engine.New(workers())
	r.traces = engine.NewCache()
	warm := r.rec.begin(setup, "warmup", "")
	t0 = time.Now()
	jobs, _, _ := scenario.CompileJobs(warmupSpecs(r.specs, norms, workers()), nil)
	if _, err := r.eng.Run(context.Background(), jobs); err != nil {
		return fmt.Errorf("%s: warm-up: %w", r.w.name, err)
	}
	r.rep.WarmupS = time.Since(t0).Seconds()
	r.rec.end(warm)
	r.rec.end(setup)
	r.rep.SetupS = time.Since(r.o.start).Seconds()
	return nil
}

// measure repeats the job set until the passes' summed wall time reaches
// the run length, verifying each pass after its clock has stopped.
func (r *runner) measure() error {
	var measured float64
	for n := 0; n < r.o.minPasses || measured < r.o.seconds; n++ {
		results, pass, err := r.pass(n)
		verify := r.rec.begin(r.root, "verify", fmt.Sprintf("pass %d", n))
		if err != nil {
			// A job that returns an error fails every job of the pass
			// (the engine cancels the rest); name it and stop.
			r.fail(failure{Label: r.w.name, Reason: err.Error()}, r.rep.Jobs)
			r.rep.Passes = append(r.rep.Passes, pass)
			return nil
		}
		for _, f := range checkResults(results) {
			r.fail(f, 1)
		}
		d, err := digest(results)
		if err != nil {
			return err
		}
		pass.Digest = d
		if n == 0 {
			r.rep.Digest = d
			r.rep.SimTputKbps, r.rep.SimDelay95Ms, r.rep.ZeroTputJobs = simMetrics(results)
			for _, res := range results {
				if !res.Spec.Tunnel {
					r.rep.DeliveredMpkts += float64(res.Metrics.DeliveredBytes) / 1500 / 1e6
				}
			}
		} else if d != r.rep.Digest {
			r.fail(failure{
				Label:  r.w.name,
				Reason: fmt.Sprintf("pass %d digest %.12s differs from pass 0 digest %.12s", n, d, r.rep.Digest),
			}, r.rep.Jobs)
		}
		r.rec.end(verify)
		r.rep.Passes = append(r.rep.Passes, pass)
		measured += pass.WallS
	}
	return nil
}

// sampleJobs gives the sharded workload's traced run its job-time
// percentiles. RunSharded compiles its jobs itself, so the bench cannot
// wrap them; after the measured passes the same specs run once more as
// plain engine jobs with a span each. These jobs leave out the record
// encode and fsync (engine.record_fsync_us is that), and their results
// must be RunSharded's, byte for byte.
func (r *runner) sampleJobs() error {
	sp := r.rec.begin(r.root, "job.sample", "")
	jobs, results, _ := scenario.CompileJobs(r.specs, r.traces)
	r.traceJobs(sp, jobs)
	_, err := r.eng.Run(context.Background(), jobs)
	r.rec.end(sp)
	if err != nil {
		return fmt.Errorf("%s: job sample: %w", r.w.name, err)
	}
	d, err := digest(results)
	if err != nil {
		return err
	}
	if d != r.rep.Digest {
		r.fail(failure{
			Label:  r.w.name,
			Reason: fmt.Sprintf("unsharded digest %.12s differs from RunSharded's %.12s", d, r.rep.Digest),
		}, r.rep.Jobs)
	}
	r.rep.JobMsP50, r.rep.JobMsP90 = jobPercentiles(r.jobNS)
	return nil
}

func jobPercentiles(ns []int64) (p50, p90 float64) {
	ms := make([]float64, len(ns))
	for i, v := range ns {
		ms[i] = float64(v) / 1e6
	}
	return stats.Percentile(ms, 0.5), stats.Percentile(ms, 0.9)
}

func (r *runner) fail(f failure, jobs int) {
	r.rep.Failed += jobs
	if len(r.rep.Failures) < maxFailuresListed {
		r.rep.Failures = append(r.rep.Failures, f)
	}
}

// pass executes the whole job set once, as one user-level call would:
// RunAllOn's two steps (CompileJobs, Engine.Run) on the warm engine, or
// RunSharded streaming its records through memory.
func (r *runner) pass(n int) ([]scenario.Result, passReport, error) {
	ctx := context.Background()
	// Collect the previous pass's garbage outside the clock, as
	// testing.B does between runs, so every pass starts from the same
	// heap and peak RSS does not depend on where a GC cycle happened to
	// fall.
	runtime.GC()
	sp := r.rec.begin(r.root, "engine.run", fmt.Sprintf("pass %d", n))
	cpu0, t0 := cpuSeconds(rusage()), time.Now()
	var results []scenario.Result
	var err error
	if r.w.sharded {
		results, err = r.shardedPass(ctx, sp)
	} else {
		var jobs []engine.Job
		jobs, results, _ = scenario.CompileJobs(r.specs, r.traces)
		if r.rec != nil {
			r.traceJobs(sp, jobs)
		}
		_, err = r.eng.Run(ctx, jobs)
	}
	wall := time.Since(t0)
	pass := passReport{WallS: wall.Seconds(), CPUS: cpuSeconds(rusage()) - cpu0}
	r.engineNS += wall.Nanoseconds()
	r.rec.end(sp)
	return results, pass, err
}

// traceJobs wraps each compiled job's Run in a span. Workers append to
// the per-job slot they own, so no lock is needed for the durations.
func (r *runner) traceJobs(parent int, jobs []engine.Job) {
	base := len(r.jobNS)
	r.jobNS = append(r.jobNS, make([]int64, len(jobs))...)
	for i := range jobs {
		run, name, slot := jobs[i].Run, jobs[i].Name, &r.jobNS[base+i]
		jobs[i].Run = func(ctx context.Context, ws *engine.WorkerState) error {
			id := r.rec.begin(parent, "job", name)
			t0 := time.Now()
			err := run(ctx, ws)
			*slot = time.Since(t0).Nanoseconds()
			r.rec.end(id)
			return err
		}
	}
}

// shardedPass runs the shards with their record streams in memory: spec
// normalisation, compilation, the jobs, record encoding and the merge by
// global index. The fsync'd checkpoint is left to checkpointPass: on the
// shared reference box a pass that waits for the disk 2 880 times reads
// 20–30 % apart from one minute to the next (README.md, "Noise"), which no
// bound the driver accepts can hold.
func (r *runner) shardedPass(ctx context.Context, parent int) ([]scenario.Result, error) {
	id := r.rec.begin(parent, "run_sharded", "")
	results, st, err := scenario.RunSharded(ctx, r.specs, scenario.ShardedOptions{Shards: shards})
	r.rec.end(id)
	// Merged stats sum the shards' walls and their pool sizes, and every
	// worker of a shard is busy for about that shard's wall.
	r.shardNS += st.Wall.Nanoseconds() * int64(st.Workers) / int64(max(st.Shards, 1))
	return results, err
}

// checkpointPass is what a durable sweep's parent does, once per run and
// outside the measured passes: run the shards into a fresh checkpoint
// directory (a record fsync'd per job, a manifest), then re-read and merge
// their logs. Both results must be the measured passes', byte for byte.
// Its wall time over the median in-memory pass is what durability costs.
func (r *runner) checkpointPass() error {
	ctx := context.Background()
	// A directory left by a killed run would be resumed, not run.
	dir := filepath.Join(r.o.outDir, fmt.Sprintf("ckpt-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	sp := r.rec.begin(r.root, "checkpoint.pass", "")
	t0 := time.Now()
	id := r.rec.begin(sp, "run_sharded", "")
	results, _, err := scenario.RunSharded(ctx, r.specs, scenario.ShardedOptions{Shards: shards, Checkpoint: dir})
	r.rec.end(id)
	var reread []scenario.Result
	if err == nil {
		id = r.rec.begin(sp, "merge_shard_logs", "")
		reread, err = scenario.MergeShardLogs(dir, r.specs, shards)
		r.rec.end(id)
	}
	r.rep.CheckpointWallS = time.Since(t0).Seconds()
	r.rec.end(sp)
	if err != nil {
		r.fail(failure{Label: r.w.name, Reason: "checkpointed pass: " + err.Error()}, r.rep.Jobs)
		return nil
	}
	for _, got := range []struct {
		what    string
		results []scenario.Result
	}{{"checkpointed RunSharded", results}, {"re-read checkpoint", reread}} {
		d, err := digest(got.results)
		if err != nil {
			return err
		}
		if d != r.rep.Digest {
			r.fail(failure{
				Label:  r.w.name,
				Reason: fmt.Sprintf("%s digest %.12s differs from the in-memory passes' %.12s", got.what, d, r.rep.Digest),
			}, r.rep.Jobs)
		}
	}
	var bytes int64
	for i := 0; i < shards; i++ {
		fi, err := os.Stat(engine.ShardLogPath(dir, i))
		if err != nil {
			return err
		}
		bytes += fi.Size()
	}
	r.rep.CheckpointKB = float64(bytes) / 1024
	walls := make([]float64, len(r.rep.Passes))
	for i, p := range r.rep.Passes {
		walls[i] = p.WallS
	}
	r.rep.CheckpointOverhead = r.rep.CheckpointWallS/median(walls) - 1
	return nil
}

// finish fills the whole-process figures.
func (r *runner) finish() {
	// Σ job time over the measured passes: the job spans', or the shards'.
	jobNS := r.shardNS
	if len(r.jobNS) > 0 {
		for _, ns := range r.jobNS {
			jobNS += ns
		}
		r.rep.JobMsP50, r.rep.JobMsP90 = jobPercentiles(r.jobNS)
	}
	if r.engineNS > 0 {
		r.rep.ParallelEff = float64(jobNS) / (float64(workers()) * float64(r.engineNS))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ru := rusage()
	r.rep.AllocMB = float64(ms.TotalAlloc) / (1 << 20)
	r.rep.GCCycles = ms.NumGC
	r.rep.MinorFaults = ru.Minflt
	r.rep.SysCPUS = tvSeconds(ru.Stime)
	r.rep.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
}
