package scenario

import (
	"context"
	"fmt"

	"sprout/internal/engine"
)

// CompileJobs turns specs into engine jobs that write into the returned
// result slice by index, so assembled output never depends on scheduling
// order: indexJob over the whole grid, with the slice as the sink. traces
// may be shared across calls; nil allocates a private cache.
func CompileJobs(specs []Spec, traces *engine.Cache) ([]engine.Job, []Result, *engine.Cache) {
	if traces == nil {
		traces = engine.NewCache()
	}
	results := make([]Result, len(specs))
	sink := func(i int, res Result) error {
		results[i] = res
		return nil
	}
	jobs := make([]engine.Job, len(specs))
	for i, spec := range specs {
		jobs[i] = indexJob(spec, i, traces, sink)
	}
	return jobs, results, traces
}

// RunAll executes the specs through the parallel engine. workers <= 0 uses
// every core; results are identical at any worker count.
func RunAll(ctx context.Context, specs []Spec, workers int) ([]Result, engine.Stats, error) {
	return RunOn(ctx, engine.New(workers), specs, nil)
}

// RunOn is RunAll on a caller-supplied engine and trace cache. A persistent
// engine keeps its per-worker simulation worlds across calls, so repeated
// sweeps run allocation-flat; a caller's cache lets it report afterwards
// what the run generated and retains (Counts, TraceMemory), and nil runs on
// a private one. Results are identical to RunAll's.
func RunOn(ctx context.Context, eng *engine.Engine, specs []Spec, traces *engine.Cache) ([]Result, engine.Stats, error) {
	jobs, results, _ := CompileJobs(specs, traces)
	stats, err := eng.Run(ctx, jobs)
	if err != nil {
		return nil, stats, fmt.Errorf("scenario: %w", err)
	}
	return results, stats, nil
}
