package scenario

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"sprout/internal/engine"
)

// Sharded sweeps: the spec grid partitioned by global job index (shard i
// of n owns idx % n == i), each shard executed on its own engine — in
// this process, a child process, or another machine — streaming its
// results as JSONL records, merged back in index order. Compilation is
// job-index-stable: a spec's global index, its normalization and its
// derived randomness depend only on its position in the grid, never on
// which shard runs it or how wide the decomposition is, so the merged
// results are byte-identical for any shard count (the worker-count
// determinism contract, one level up).

// ResultRecord is the JSONL payload for one completed run: every numeric
// outcome a Result carries, durations as integer nanoseconds. Floats
// survive the trip bit-exactly — encoding/json emits the shortest
// decimal that round-trips the exact float64 — so a decoded record
// reconstructs the run's Result to the bit, which is what lets the
// golden-hash tests hold across any shard count. Raw delivery logs
// (Spec.KeepDeliveries) are deliberately not carried: timeseries
// experiments retain them in-process only.
type ResultRecord struct {
	Label           string       `json:"label"`
	ThroughputBps   float64      `json:"tput_bps"`
	Delay95         int64        `json:"delay95_ns"`
	Omniscient95    int64        `json:"omni95_ns"`
	SelfInflicted95 int64        `json:"self95_ns"`
	MeanDelay       int64        `json:"mean_delay_ns"`
	Utilization     float64      `json:"util"`
	DeliveredBytes  int64        `json:"delivered_bytes"`
	AggDelay95      int64        `json:"agg_delay95_ns"`
	JainIndex       float64      `json:"jain"`
	HeadDrops       int64        `json:"head_drops"`
	Flows           []FlowResult `json:"flows,omitempty"`
}

// RecordOf projects a Result to its stream form.
func RecordOf(r Result) ResultRecord {
	return ResultRecord{
		Label:           r.Spec.Label(),
		ThroughputBps:   r.Metrics.ThroughputBps,
		Delay95:         int64(r.Metrics.Delay95),
		Omniscient95:    int64(r.Metrics.Omniscient95),
		SelfInflicted95: int64(r.Metrics.SelfInflicted95),
		MeanDelay:       int64(r.Metrics.MeanDelay),
		Utilization:     r.Metrics.Utilization,
		DeliveredBytes:  r.Metrics.DeliveredBytes,
		AggDelay95:      int64(r.Delay95),
		JainIndex:       r.JainIndex,
		HeadDrops:       r.HeadDrops,
		Flows:           r.Flows,
	}
}

// EncodeResult renders one completed run as a shard-stream record keyed
// by its global job index.
func EncodeResult(idx int, r Result) (engine.Record, error) {
	data, err := json.Marshal(RecordOf(r))
	if err != nil {
		return engine.Record{}, fmt.Errorf("scenario: encode result %d (%s): %w", idx, r.Spec.Label(), err)
	}
	return engine.Record{Index: idx, Data: data}, nil
}

// DecodeResult reconstructs a run's Result from its record and the spec
// grid the sweep was compiled from. The spec is re-normalized locally —
// normalization is deterministic, so the reconstructed Result carries
// the same Spec a direct run would.
func DecodeResult(rec engine.Record, specs []Spec) (Result, error) {
	if rec.Index < 0 || rec.Index >= len(specs) {
		return Result{}, fmt.Errorf("scenario: record index %d outside spec grid [0, %d)", rec.Index, len(specs))
	}
	var rr ResultRecord
	if err := json.Unmarshal(rec.Data, &rr); err != nil {
		return Result{}, fmt.Errorf("scenario: decode record %d: %w", rec.Index, err)
	}
	norm, err := specs[rec.Index].Normalize()
	if err != nil {
		return Result{}, fmt.Errorf("scenario: record %d: %w", rec.Index, err)
	}
	res := Result{
		Spec:      norm,
		Delay95:   time.Duration(rr.AggDelay95),
		JainIndex: rr.JainIndex,
		HeadDrops: rr.HeadDrops,
	}
	res.Metrics.ThroughputBps = rr.ThroughputBps
	res.Metrics.Delay95 = time.Duration(rr.Delay95)
	res.Metrics.Omniscient95 = time.Duration(rr.Omniscient95)
	res.Metrics.SelfInflicted95 = time.Duration(rr.SelfInflicted95)
	res.Metrics.MeanDelay = time.Duration(rr.MeanDelay)
	res.Metrics.Utilization = rr.Utilization
	res.Metrics.DeliveredBytes = rr.DeliveredBytes
	if len(rr.Flows) > 0 { // "flows": [] decodes as no flows, as the record omits them
		res.Flows = rr.Flows
	}
	return res, nil
}

// Manifest is a sweep's checkpoint identity: the grid's fingerprint, the
// shard count and the job count. The fingerprint is the SHA-256 of the
// spec grid's canonical JSON plus the shard count; two invocations may
// resume one checkpoint directory iff their manifests match. Injected
// traces (Spec.DataTrace) are not part of the JSON form, so checkpointing
// is only offered for self-describing grids — scenario files and
// canonical-link grids — which is every sharded entry point.
func Manifest(specs []Spec, shards int) engine.Manifest {
	h := sha256.New()
	fmt.Fprintf(h, "shards=%d\n", shards)
	enc := json.NewEncoder(h)
	for _, s := range specs {
		if err := enc.Encode(s); err != nil {
			// Spec is a plain data struct; Marshal cannot fail on it.
			panic(fmt.Sprintf("scenario: fingerprint: %v", err))
		}
	}
	return engine.Manifest{Fingerprint: hex.EncodeToString(h.Sum(nil)), Shards: shards, Jobs: len(specs)}
}

// indexJob compiles the job for one global index: the one body every
// compiler shares. The spec is normalized here, at compile time, so the
// job body does only simulation work; it runs on its worker's pooled
// world (see world.go), reusing the event loop, links, packet arena and
// endpoints of the previous job on that worker.
func indexJob(spec Spec, i int, traces *engine.Cache, sink func(int, Result) error) engine.Job {
	name := spec.Label()
	norm, err := spec.Normalize()
	if err != nil {
		return engine.Job{Name: name, Run: func(context.Context, *engine.WorkerState) error {
			return err
		}}
	}
	c := compile(norm)
	return engine.Job{
		Name: name,
		Run: func(_ context.Context, ws *engine.WorkerState) error {
			res, err := c.run(traces, worldFor(ws))
			if err != nil {
				return err
			}
			return sink(i, res)
		},
	}
}

// RunIndexes runs an explicit list of global job indexes on eng,
// streaming each record to w as it completes (completion order; the
// merge reorders by index). It is the one shard body: a shard's owned
// partition (engine.Shard.Owned) in RunSharded and dispatch.ShardWorker,
// and the jobs a supervisor rescues for a dead shard. Position in the
// full grid, not in the list, determines a job's identity, name and seed
// derivation (indexJob), so a record is byte-identical whichever shard or
// rescue pass produced it. traces may be shared across calls; nil
// allocates a private cache. Out-of-range indexes are an error: the
// lists are computed from the grid or from the merge, so a bad index
// means a broken caller, not a recoverable condition.
func RunIndexes(ctx context.Context, eng *engine.Engine, specs []Spec, traces *engine.Cache, indexes []int, w *engine.RecordWriter) (engine.Stats, error) {
	if traces == nil {
		traces = engine.NewCache()
	}
	// The engine's workers finish concurrently onto one writer.
	var mu sync.Mutex
	sink := func(idx int, res Result) error {
		rec, err := EncodeResult(idx, res)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		return w.Write(rec)
	}
	jobs := make([]engine.Job, len(indexes))
	for k, i := range indexes {
		if i < 0 || i >= len(specs) {
			return engine.Stats{}, fmt.Errorf("scenario: job index %d outside spec grid [0, %d)", i, len(specs))
		}
		jobs[k] = indexJob(specs[i], i, traces, sink)
	}
	st, err := eng.Run(ctx, jobs)
	if err != nil {
		return st, fmt.Errorf("scenario: %w", err)
	}
	return st, nil
}

// ShardedOptions parameterizes an in-process sharded sweep.
type ShardedOptions struct {
	// Shards is the decomposition width; 0 or 1 runs a single shard.
	Shards int
	// Workers is the engine pool size per shard; zero splits the machine
	// width across the shards (ShardWorkers).
	Workers int
	// Checkpoint, when non-empty, is the checkpoint directory: shard
	// records append to <dir>/shard-<i>.jsonl as jobs finish, and a
	// restarted call with the same specs resumes from them instead of
	// recomputing. Empty streams records through in-memory buffers.
	Checkpoint string
	// Traces, when non-nil, is shared across every shard (and with the
	// caller); nil allocates one cache shared by the shards.
	Traces *engine.Cache
}

// ShardWorkers is the engine pool size of shard i of n, in this process
// or a child: an explicit workers forwards unchanged; zero splits
// GOMAXPROCS evenly (the remainder spread over the low shards, minimum
// one worker each), so a fan-out saturates the host without
// oversubscribing it n times.
func ShardWorkers(workers, shard, shards int) int {
	if workers != 0 {
		return workers
	}
	procs := runtime.GOMAXPROCS(0)
	w := procs / shards
	if shard < procs%shards {
		w++
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RunSharded executes the spec grid as opt.Shards concurrent in-process
// shards, each running its partition through RunIndexes on its own
// engine into its own JSONL stream, and merges by global index. Results
// are byte-identical to RunAll's for any shard count and worker count.
// The returned stats are the shards' merged via Stats.Merge (aggregate
// compute, not elapsed time).
func RunSharded(ctx context.Context, specs []Spec, opt ShardedOptions) ([]Result, engine.Stats, error) {
	shards := max(opt.Shards, 1)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	traces := opt.Traces
	if traces == nil {
		traces = engine.NewCache()
	}

	// Per-shard record destinations: checkpoint logs on disk, or
	// in-memory buffers — the same JSONL codec either way, so the
	// in-process path exercises (and the benchmark measures) exactly
	// what the multi-process path ships.
	writers := make([]*engine.RecordWriter, shards)
	done := make([][]int, shards)
	bufs := make([]bytes.Buffer, shards)
	if opt.Checkpoint != "" {
		if err := engine.EnsureManifest(opt.Checkpoint, Manifest(specs, shards)); err != nil {
			return nil, engine.Stats{}, err
		}
		for i := range writers {
			d, f, err := engine.OpenShardLog(engine.ShardLogPath(opt.Checkpoint, i))
			if err != nil {
				return nil, engine.Stats{}, err
			}
			defer f.Close()
			writers[i], done[i] = engine.NewRecordWriterSynced(f, f.Sync), d
		}
	} else {
		for i := range writers {
			writers[i] = engine.NewRecordWriter(&bufs[i])
		}
	}

	var wg sync.WaitGroup
	stats := make([]engine.Stats, shards)
	errs := make([]error, shards)
	for i := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh := engine.Shard{Index: i, Count: shards}
			eng := engine.New(ShardWorkers(opt.Workers, i, shards))
			stats[i], errs[i] = RunIndexes(ctx, eng, specs, traces, sh.Owned(len(specs), done[i]), writers[i])
			if errs[i] != nil {
				cancel()
			}
		}()
	}
	wg.Wait()

	var merged engine.Stats
	for i := range stats {
		merged.Merge(stats[i])
	}
	for _, err := range errs {
		if err != nil {
			return nil, merged, err
		}
	}
	if opt.Checkpoint != "" {
		// The logs also hold what a resumed sweep completed before this call.
		results, err := MergeShardLogs(opt.Checkpoint, specs, shards)
		return results, merged, err
	}
	streams := make([][]engine.Record, shards)
	for i := range bufs {
		var err error
		if streams[i], err = engine.ReadRecords(&bufs[i]); err != nil {
			return nil, merged, err
		}
	}
	recs, err := engine.MergeRecords(streams, len(specs))
	if err != nil {
		return nil, merged, err
	}
	results, err := decodeResults(recs, specs)
	return results, merged, err
}

// decodeResults decodes merged records, in their order.
func decodeResults(recs []engine.Record, specs []Spec) ([]Result, error) {
	results := make([]Result, len(recs))
	for i, rec := range recs {
		var err error
		if results[i], err = DecodeResult(rec, specs); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// ReadCheckpoint decodes the checkpoint directory of the sweep of specs
// across shards, read by engine.ReadCheckpoint: the Results present, in
// index order, plus the sorted missing global indexes. A directory
// recorded for another sweep fails wrapping engine.ErrManifestMismatch.
func ReadCheckpoint(dir string, specs []Spec, shards int) ([]Result, []int, error) {
	recs, missing, err := engine.ReadCheckpoint(dir, Manifest(specs, shards))
	if err != nil {
		return nil, nil, err
	}
	results, err := decodeResults(recs, specs)
	return results, missing, err
}

// MergeShardLogs reads a checkpoint directory written by a completed
// sweep (in-process or child processes) and reconstructs the results,
// folding in any rescue log a supervisor left. A job missing from every
// log is an error.
func MergeShardLogs(dir string, specs []Spec, shards int) ([]Result, error) {
	results, missing, err := ReadCheckpoint(dir, specs, shards)
	if err != nil {
		return nil, err
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("scenario: merge incomplete: %d of %d jobs missing (first: %v)", len(missing), len(specs), missing[:min(len(missing), 8)])
	}
	return results, nil
}

// WriteMergedRecords encodes results (a full grid, in index order) as
// one merged JSONL stream — the byte-stable artifact the CI smoke diffs
// across shard counts.
func WriteMergedRecords(w io.Writer, results []Result) error {
	rw := engine.NewRecordWriter(w)
	for i, res := range results {
		rec, err := EncodeResult(i, res)
		if err != nil {
			return err
		}
		if err := rw.Write(rec); err != nil {
			return err
		}
	}
	return nil
}
