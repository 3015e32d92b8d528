// Package engine executes independent trace-driven simulations on a
// worker pool with results that are byte-identical to a serial run.
//
// The paper's evaluation is a grid of scheme × link × scenario
// experiments, every one of which is a self-contained virtual-time
// simulation: given its config and seed it touches no global state. That
// makes the grid embarrassingly parallel — provided three disciplines the
// engine enforces or supports:
//
//   - results are collected by job index, never by completion order, so
//     the assembled output cannot depend on scheduling;
//   - every job derives its randomness from its own seed (DeriveSeed)
//     rather than drawing from a shared *rand.Rand, so interleaving
//     cannot perturb any job's random stream;
//   - expensive shared inputs (the canonical traces) are built once in a
//     single-flight Cache and shared read-only, instead of once per job
//     or — worse — mutated concurrently;
//   - expensive job-local scratch (a whole pooled simulation world) lives
//     in per-worker WorkerStates handed to every job, so reuse across
//     jobs is race-free by construction — one worker, one job at a time —
//     provided the cached state resets to a seed-determined initial
//     state at job start.
package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"sprout/internal/memo"
)

// Job is one unit of work: a self-contained simulation. Run must not
// share mutable state with any other job; all randomness must derive
// from a job-local seed (see DeriveSeed).
type Job struct {
	// Name identifies the job in errors and diagnostics,
	// e.g. "sprout on Verizon LTE Downlink".
	Name string
	// Run executes the simulation, storing its result wherever the
	// closure points (typically an indexed slot owned by this job).
	// It should return promptly when ctx is cancelled.
	//
	// ws is the worker's retained state: every job a given worker
	// executes receives the same WorkerState, so expensive scratch (a
	// pooled simulation world) can be reused across jobs instead of
	// rebuilt per job. ws is never shared between concurrent jobs; it
	// may be nil when a job is run outside the engine.
	Run func(ctx context.Context, ws *WorkerState) error
}

// WorkerState is per-worker retained context. One worker runs one job at a
// time, so values stored here are free of data races by construction — but
// they are reused across jobs, so anything cached must be reset (or be
// reset-able) at job start. States persist across Run calls on the same
// Engine, which is what makes back-to-back runs (the experiments of one
// cmd/sproutbench invocation, the bench child's repeated passes) reuse
// their worlds instead of rebuilding them.
type WorkerState struct {
	vals map[any]any
}

// Value returns the worker-local value for key, building it with mk on
// first use. On a nil WorkerState it calls mk directly (no caching), so
// code paths shared with engine-less callers need no branching.
func (ws *WorkerState) Value(key any, mk func() any) any {
	if ws == nil {
		return mk()
	}
	if v, ok := ws.vals[key]; ok {
		return v
	}
	v := mk()
	ws.vals[key] = v
	return v
}

// Stats summarizes one Run call, or — after Merge — the shards of a
// sharded sweep.
type Stats struct {
	// Jobs is how many jobs were submitted; Completed how many actually
	// ran (cancellation can skip the tail of the queue).
	Jobs, Completed int
	// Workers is the pool size used. In merged stats it is the summed
	// pool across shards — the aggregate concurrency of the sweep.
	Workers int
	// Wall is the elapsed wall-clock time of the whole Run. In merged
	// stats it is the summed per-shard wall — aggregate compute time,
	// which exceeds the elapsed time whenever shards overlap.
	Wall time.Duration
	// Shards counts the shard runs merged into this Stats (zero for a
	// plain single-engine Run). Like Cache.Counts, the shard counters
	// are advisory only: they describe how the sweep executed, never the
	// scientific result (two decompositions of one grid produce equal
	// results and different Stats), and they must not be used for
	// synchronization or skipped-work accounting. In particular, trace
	// cache hit/miss counts are NOT aggregated here — in-process shards
	// share one Cache, so summing a per-shard read of its counters would
	// double-count every hit; read the shared cache's Counts exactly
	// once after the sweep instead.
	Shards int
}

// Merge folds another run's stats into s: the aggregation for sharded
// sweeps, where every shard ran on its own engine (possibly in its own
// child process) and no single engine sees the whole grid. Jobs and
// Completed sum without double-counting because each shard owns a
// disjoint index set; Workers and Wall sum into aggregate concurrency
// and aggregate compute time (see the field docs); Shards counts the
// merged runs.
func (s *Stats) Merge(o Stats) {
	s.Jobs += o.Jobs
	s.Completed += o.Completed
	s.Workers += o.Workers
	s.Wall += o.Wall
	if o.Shards > 0 {
		s.Shards += o.Shards
	} else {
		s.Shards++
	}
}

func (s Stats) String() string {
	plural := "s"
	if s.Workers == 1 {
		plural = ""
	}
	base := fmt.Sprintf("%d jobs on %d worker%s in %v", s.Completed, s.Workers, plural, s.Wall.Round(time.Millisecond))
	if s.Shards > 1 {
		return fmt.Sprintf("%s across %d shards", base, s.Shards)
	}
	return base
}

// Engine is a deterministic parallel runner. The zero value is not
// usable; construct with New. An Engine is not safe for concurrent Run
// calls (its worker states are single-owner).
type Engine struct {
	workers int
	states  []*WorkerState // one per worker index, persisted across Runs
}

// New returns an engine with the given pool size. workers <= 0 selects
// GOMAXPROCS; workers == 1 degenerates to a serial loop.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers}
}

// Run executes the jobs and blocks until all have finished or been
// skipped. The first error in job order is returned, wrapped with the
// job's name, and cancels the jobs that have not yet started; jobs that
// merely report context.Canceled after that cancellation never mask the
// triggering error. A cancelled ctx has the same effect; jobs already
// running are expected to honour it.
func (e *Engine) Run(ctx context.Context, jobs []Job) (Stats, error) {
	start := time.Now()
	stats := Stats{Jobs: len(jobs)}
	if len(jobs) == 0 {
		return stats, ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := e.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	stats.Workers = workers // the pool actually spawned, post-clamp
	errs := make([]error, len(jobs))
	ran := make([]bool, len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for len(e.states) < workers {
		e.states = append(e.states, &WorkerState{vals: map[any]any{}})
	}
	for w := 0; w < workers; w++ {
		ws := e.states[w]
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					continue // drain without running
				}
				ran[i] = true
				if err := jobs[i].Run(ctx, ws); err != nil {
					errs[i] = fmt.Errorf("%s: %w", jobs[i].Name, err)
					cancel()
				}
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	for _, r := range ran {
		if r {
			stats.Completed++
		}
	}
	stats.Wall = time.Since(start)
	// Report the root cause, not the fallout: a job that honours ctx and
	// returns context.Canceled after another job's failure triggered the
	// cancellation must not mask the real error just because it sits
	// earlier in job order.
	var cancelled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) {
			if cancelled == nil {
				cancelled = err
			}
			continue
		}
		return stats, err
	}
	if cancelled != nil {
		return stats, cancelled
	}
	return stats, ctx.Err()
}

// DeriveSeed maps a base seed plus a job identity to a deterministic,
// well-mixed seed. Jobs that would serially have shared one RNG (or used
// adjacent low-entropy seeds) each get an independent stream that does
// not depend on scheduling order.
func DeriveSeed(base int64, parts ...string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	s := int64(h.Sum64() &^ (1 << 63)) // non-negative
	if s == 0 {
		s = 1
	}
	return s
}

// Cache memoizes expensive shared inputs across jobs — canonically the
// generated traces, which every scheme on a link shares by reference. It is
// memo's single-flight cache keyed by string and unbounded; cached values
// are immutable and one instance serves every job that asks.
type Cache = memo.Cache[string, any]

// NewCache returns an empty, unbounded cache.
func NewCache() *Cache { return memo.New[string, any](0) }
