package dispatch

import (
	"context"
	"errors"
	"fmt"
	"io"

	"sprout/internal/engine"
	"sprout/internal/fault"
	"sprout/internal/scenario"
)

// ShardWorker is the worker half of a sweep: what `sproutbench -shard
// i/n` runs, and what every in-process worker of this package's tests
// runs.
type ShardWorker struct {
	Shard engine.Shard
	// Load compiles the grid; a grid that does not load is permanent.
	Load func() ([]scenario.Spec, error)
	// Out is the checkpoint log, resumed if it exists; "" streams the
	// records to Stdout instead.
	Out    string
	Engine *engine.Engine
	// Fault is the fault the supervisor injected (nil = none), wired
	// around the record writer: the recovery machinery upstream cannot
	// tell an injected failure from a real one.
	Fault          *fault.Injector
	Stdout, Stderr io.Writer
}

// Run runs the worker's partition and returns its exit status. An
// existing log resumes — completed indexes are skipped, a torn tail
// from a killed predecessor is truncated — so the supervisor's retries
// never recompute finished jobs. A grid that does not load and a corrupt
// (terminated-garbage) log return ExitPermanent, so the supervisor
// fails the shard fast instead of burning retries; any other failure
// returns 1.
func (w ShardWorker) Run(ctx context.Context) int {
	w.Fault.Start()
	specs, err := w.Load()
	if err != nil {
		fmt.Fprintln(w.Stderr, "sproutbench:", err)
		return ExitPermanent
	}
	dst := w.Stdout
	var sync func() error // stdout is not durable
	var done []int
	if w.Out != "" {
		recs, f, err := engine.OpenShardLog(w.Out)
		if err != nil {
			fmt.Fprintln(w.Stderr, "sproutbench:", err)
			if errors.Is(err, engine.ErrCorruptLog) {
				return ExitPermanent
			}
			return 1
		}
		defer f.Close()
		dst, sync, done = f, f.Sync, engine.CompletedIndexes(recs)
	}
	st, err := scenario.RunShard(ctx, w.Engine, specs, w.Shard, done,
		engine.NewRecordWriterSynced(w.Fault.Writer(ctxWriter{ctx, dst}), sync))
	if err != nil {
		fmt.Fprintln(w.Stderr, "sproutbench:", err)
		return 1
	}
	fmt.Fprintf(w.Stderr, "shard %s: %d of %d jobs (%d resumed); %s\n",
		w.Shard, w.Shard.Size(len(specs)), len(specs), len(done), st)
	return 0
}

// ctxWriter writes to w until ctx ends: a cancelled worker appends
// nothing more, as a killed process cannot.
type ctxWriter struct {
	ctx context.Context
	w   io.Writer
}

func (c ctxWriter) Write(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.w.Write(p)
}
