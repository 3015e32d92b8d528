package scenario

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
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

// FlowRecord is one flow's share of a run in the JSONL stream.
type FlowRecord struct {
	Flow          uint32  `json:"flow"`
	Scheme        string  `json:"scheme"`
	ThroughputBps float64 `json:"tput_bps"`
	Delay95       int64   `json:"delay95_ns"`
}

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
	Flows           []FlowRecord `json:"flows,omitempty"`
}

// RecordOf projects a Result to its stream form.
func RecordOf(r Result) ResultRecord {
	rec := ResultRecord{
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
	}
	for _, f := range r.Flows {
		rec.Flows = append(rec.Flows, FlowRecord{
			Flow: f.Flow, Scheme: f.Scheme,
			ThroughputBps: f.ThroughputBps, Delay95: int64(f.Delay95),
		})
	}
	return rec
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
	for _, f := range rr.Flows {
		res.Flows = append(res.Flows, FlowResult{
			Flow: f.Flow, Scheme: f.Scheme,
			ThroughputBps: f.ThroughputBps, Delay95: time.Duration(f.Delay95),
		})
	}
	return res, nil
}

// Fingerprint identifies a sweep for checkpoint safety: the SHA-256 of
// the spec grid's canonical JSON plus the shard count. Two invocations
// may resume one checkpoint directory iff their fingerprints match.
// Injected traces (Spec.DataTrace) are not part of the JSON form, so
// checkpointing is only offered for self-describing grids — scenario
// files and canonical-link grids — which is every sharded entry point.
func Fingerprint(specs []Spec, shards int) string {
	h := sha256.New()
	fmt.Fprintf(h, "shards=%d\n", shards)
	enc := json.NewEncoder(h)
	for _, s := range specs {
		if err := enc.Encode(s); err != nil {
			// Spec is a plain data struct; Marshal cannot fail on it.
			panic(fmt.Sprintf("scenario: fingerprint: %v", err))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// compileIndexJobs compiles jobs for an explicit list of global indexes —
// a shard's owned partition (ownedIndexes), or the jobs a supervisor
// recomputes for a dead shard. Job k of the returned slice is indexes[k];
// its closure writes through sink(globalIndex, result). Position in the
// full grid, not in the list, determines a job's identity, name and seed
// derivation (indexJob), so a record is byte-identical whichever shard or
// rescue pass produced it. sink is called from engine workers
// concurrently; writers behind it must lock (see lockedSink). traces may
// be shared across calls; nil allocates a private cache. Out-of-range
// indexes are an error: the lists are computed from the grid or from the
// merge, so a bad index means a broken caller, not a recoverable
// condition.
func compileIndexJobs(specs []Spec, traces *engine.Cache, indexes []int, sink func(int, Result) error) ([]engine.Job, error) {
	if traces == nil {
		traces = engine.NewCache()
	}
	jobs := make([]engine.Job, len(indexes))
	for k, i := range indexes {
		if i < 0 || i >= len(specs) {
			return nil, fmt.Errorf("scenario: job index %d outside spec grid [0, %d)", i, len(specs))
		}
		jobs[k] = indexJob(specs[i], i, traces, sink)
	}
	return jobs, nil
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
	return engine.Job{
		Name: name,
		Run: func(_ context.Context, ws *engine.WorkerState) error {
			res, err := runNormalized(norm, traces, worldFor(ws))
			if err != nil {
				return err
			}
			return sink(i, res)
		},
	}
}

// ownedIndexes lists the global indexes of an n-job grid that shard owns,
// ascending, minus those in done (a resumed checkpoint's completed jobs).
func ownedIndexes(n int, shard engine.Shard, done []int) []int {
	skip := make(map[int]bool, len(done))
	for _, i := range done {
		skip[i] = true
	}
	owned := make([]int, 0, shard.Size(n))
	for i := 0; i < n; i++ {
		if shard.Owns(i) && !skip[i] {
			owned = append(owned, i)
		}
	}
	return owned
}

// lockedSink serializes record emission from one shard's concurrent
// workers onto its single JSONL writer.
func lockedSink(w *engine.RecordWriter) func(int, Result) error {
	var mu sync.Mutex
	return func(idx int, res Result) error {
		rec, err := EncodeResult(idx, res)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		return w.Write(rec)
	}
}

// RunShard executes one shard of the grid on the given engine, streaming
// each completed run to w as it finishes (completion order; the merge
// reorders by index). done lists already-completed global indexes to
// skip — pass the records read from an existing shard log to resume.
func RunShard(ctx context.Context, eng *engine.Engine, specs []Spec, shard engine.Shard, done []int, w *engine.RecordWriter) (engine.Stats, error) {
	if err := shard.Validate(); err != nil {
		return engine.Stats{}, err
	}
	return runIndexes(ctx, eng, specs, nil, ownedIndexes(len(specs), shard, done), w, "shard "+shard.String())
}

// RunIndexes recomputes an explicit set of global job indexes, streaming
// each record to w as it completes — the supervisor's rescue engine for
// jobs whose shard died. Records are byte-identical to what the owning
// shard would have produced (see compileIndexJobs).
func RunIndexes(ctx context.Context, eng *engine.Engine, specs []Spec, traces *engine.Cache, indexes []int, w *engine.RecordWriter) (engine.Stats, error) {
	return runIndexes(ctx, eng, specs, traces, indexes, w, "rescue")
}

// runIndexes compiles and runs the listed jobs into w; what names the
// pass in its error.
func runIndexes(ctx context.Context, eng *engine.Engine, specs []Spec, traces *engine.Cache, indexes []int, w *engine.RecordWriter, what string) (engine.Stats, error) {
	jobs, err := compileIndexJobs(specs, traces, indexes, lockedSink(w))
	if err != nil {
		return engine.Stats{}, err
	}
	st, err := eng.Run(ctx, jobs)
	if err != nil {
		return st, fmt.Errorf("scenario: %s: %w", what, err)
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
// shards, each on its own engine, streaming per-shard JSONL and merging
// by global index. Results are byte-identical to RunAll's for any shard
// count and worker count. The returned stats are the shards' merged via
// Stats.Merge (aggregate compute, not elapsed time).
func RunSharded(ctx context.Context, specs []Spec, opt ShardedOptions) ([]Result, engine.Stats, error) {
	shards := opt.Shards
	if shards < 1 {
		shards = 1
	}
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
	ios := make([]shardIO, shards)
	if opt.Checkpoint != "" {
		want := engine.Manifest{Fingerprint: Fingerprint(specs, shards), Shards: shards, Jobs: len(specs)}
		if err := engine.EnsureManifest(opt.Checkpoint, want); err != nil {
			return nil, engine.Stats{}, err
		}
		for i := range ios {
			recs, f, err := engine.OpenShardLog(engine.ShardLogPath(opt.Checkpoint, i))
			if err != nil {
				closeShardFiles(ios[:i])
				return nil, engine.Stats{}, err
			}
			ios[i] = shardIO{w: engine.NewRecordWriterSynced(f, f.Sync), file: f, done: engine.CompletedIndexes(recs)}
		}
	} else {
		for i := range ios {
			buf := &bytes.Buffer{}
			ios[i] = shardIO{w: engine.NewRecordWriter(buf), buf: buf}
		}
	}
	defer closeShardFiles(ios)

	var wg sync.WaitGroup
	stats := make([]engine.Stats, shards)
	errs := make([]error, shards)
	for i := 0; i < shards; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh := engine.Shard{Index: i, Count: shards}
			eng := engine.New(ShardWorkers(opt.Workers, i, shards))
			stats[i], errs[i] = runIndexes(ctx, eng, specs, traces, ownedIndexes(len(specs), sh, ios[i].done), ios[i].w, "shard "+sh.String())
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

	// Reload every shard's full stream (a resumed checkpoint holds
	// records from before this call) and merge by global index.
	streams := make([][]engine.Record, shards)
	for i := range ios {
		var err error
		if ios[i].file != nil {
			if _, serr := ios[i].file.Seek(0, 0); serr != nil {
				return nil, merged, serr
			}
			streams[i], err = engine.ReadRecords(ios[i].file)
		} else {
			streams[i], err = engine.ReadRecords(bytes.NewReader(ios[i].buf.Bytes()))
		}
		if err != nil {
			return nil, merged, err
		}
	}
	results, missing, err := MergeResults(streams, nil, specs)
	if err == nil {
		err = incompleteErr(missing, len(specs))
	}
	if err != nil {
		return nil, merged, err
	}
	return results, merged, nil
}

// shardIO is one shard's record destination inside RunSharded: a
// checkpoint log on disk, or an in-memory buffer.
type shardIO struct {
	w    *engine.RecordWriter
	buf  *bytes.Buffer // in-memory mode
	file *os.File      // checkpoint mode
	done []int
}

func closeShardFiles(ios []shardIO) {
	for i := range ios {
		if ios[i].file != nil {
			ios[i].file.Close()
			ios[i].file = nil
		}
	}
}

// MergeResults merges per-shard record streams (stream i = shard i of
// len(streams)) plus an ownership-exempt rescue stream (records a
// supervisor recomputed for dead shards; nil for none) into index-ordered
// Results, decoding whatever completed and reporting the sorted missing
// global indexes — callers that need the whole grid check them with
// incompleteErr, the -partial path prints them. Decomposition errors
// (ownership violations, out-of-range indexes) are hard failures.
func MergeResults(streams [][]engine.Record, rescue []engine.Record, specs []Spec) ([]Result, []int, error) {
	recs, missing, err := engine.MergePartial(streams, rescue, len(specs))
	if err != nil {
		return nil, nil, err
	}
	results := make([]Result, len(recs))
	for i, rec := range recs {
		if results[i], err = DecodeResult(rec, specs); err != nil {
			return nil, nil, err
		}
	}
	return results, missing, nil
}

// incompleteErr is the error of a merge that had to be complete and is
// missing these indexes; nil when none are.
func incompleteErr(missing []int, total int) error {
	if len(missing) == 0 {
		return nil
	}
	return fmt.Errorf("scenario: merge incomplete: %d of %d jobs missing (first: %v)", len(missing), total, missing[:min(len(missing), 8)])
}

// ReadShardStreams reads a checkpoint directory's per-shard logs plus
// its rescue log, for merging. A missing shard log reads as an empty
// stream — a shard that died before writing anything is a recovery
// condition, not an I/O error — and a missing rescue log as no rescues.
// Corrupt logs fail with engine.ErrCorruptLog, naming the file.
func ReadShardStreams(dir string, shards int) (streams [][]engine.Record, rescue []engine.Record, err error) {
	streams = make([][]engine.Record, shards)
	for i := 0; i < shards; i++ {
		streams[i], err = readRecordFile(engine.ShardLogPath(dir, i))
		if err != nil {
			return nil, nil, err
		}
	}
	rescue, err = readRecordFile(engine.RescueLogPath(dir))
	if err != nil {
		return nil, nil, err
	}
	return streams, rescue, nil
}

func readRecordFile(path string) ([]engine.Record, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	recs, err := engine.ReadRecords(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return recs, nil
}

// MergeShardLogs reads a checkpoint directory written by a completed
// sweep (in-process or child processes) and reconstructs the results,
// folding in any rescue log a supervisor left.
func MergeShardLogs(dir string, specs []Spec, shards int) ([]Result, error) {
	want := engine.Manifest{Fingerprint: Fingerprint(specs, shards), Shards: shards, Jobs: len(specs)}
	have, err := engine.LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	if have != want {
		return nil, fmt.Errorf("scenario: checkpoint %s does not match this sweep (manifest %+v)", dir, have)
	}
	streams, rescue, err := ReadShardStreams(dir, shards)
	if err != nil {
		return nil, err
	}
	results, missing, err := MergeResults(streams, rescue, specs)
	if err == nil {
		err = incompleteErr(missing, len(specs))
	}
	if err != nil {
		return nil, err
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
