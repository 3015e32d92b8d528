package scenario

import (
	"bytes"
	"context"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"sprout/internal/engine"
)

// shardTestSpecs is a small heterogeneous grid: enough jobs that every
// shard count in the tests owns at least one, cheap enough to run many
// decompositions.
func shardTestSpecs(t *testing.T) []Spec {
	t.Helper()
	specs, err := Parse(strings.NewReader(`{
	  "defaults": {"link": "Verizon LTE", "duration": "2s", "skip": "500ms", "seed": 7},
	  "scenarios": [
	    {"name": "cubic down", "scheme": "cubic"},
	    {"name": "sprout down", "scheme": "sprout"},
	    {"name": "skype down", "scheme": "skype"},
	    {"name": "cubic up", "scheme": "cubic", "direction": "up"},
	    {"name": "sprout up", "scheme": "sprout", "direction": "up"},
	    {"name": "cubic vs skype", "groups": [
	      {"scheme": "cubic", "count": 1},
	      {"scheme": "skype", "count": 1}
	    ]}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// stripTraces clears the resolved trace pointers a direct run leaves in
// Result.Spec, and the Work no record carries, returning a copy comparable
// with decoded shard results.
func stripTraces(results []Result) []Result {
	out := append([]Result{}, results...)
	for i := range out {
		out[i].Spec.DataTrace, out[i].Spec.FeedbackTrace = nil, nil
		out[i].Work = Work{}
	}
	return out
}

// mergedBytes renders results as the canonical merged JSONL stream — the
// byte-identity witness.
func mergedBytes(t *testing.T, results []Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMergedRecords(&buf, results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunShardedDeterminism is the shard-count generalization of the
// worker-count determinism tests: the merged JSONL stream must be
// byte-identical for every decomposition in shards {1,2,3,7} × workers
// {1,4}, and must match a direct (unsharded) run of the same grid.
func TestRunShardedDeterminism(t *testing.T) {
	specs := shardTestSpecs(t)
	direct, _, err := RunAll(context.Background(), specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := mergedBytes(t, direct)

	for _, shards := range []int{1, 2, 3, 7} {
		for _, workers := range []int{1, 4} {
			results, st, err := RunSharded(context.Background(), specs, ShardedOptions{
				Shards: shards, Workers: workers,
			})
			if err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
			}
			if got := mergedBytes(t, results); !bytes.Equal(got, want) {
				t.Errorf("shards=%d workers=%d: merged stream differs from direct run", shards, workers)
			}
			if st.Shards != shards {
				t.Errorf("shards=%d: stats report %d shards", shards, st.Shards)
			}
			if st.Completed != len(specs) {
				t.Errorf("shards=%d workers=%d: completed %d of %d", shards, workers, st.Completed, len(specs))
			}
			// The reconstructed Results must also match structurally
			// (specs re-normalized, durations restored), not just as
			// bytes — modulo the resolved trace pointers a direct run
			// stashes in its Spec and its Work, which (like raw delivery
			// logs) do not cross a process boundary.
			if !reflect.DeepEqual(results, stripTraces(direct)) {
				t.Errorf("shards=%d workers=%d: decoded results differ from direct run", shards, workers)
			}
		}
	}
}

// TestRunShardedSharedCache checks that in-process shards share one trace
// cache: every spec rides the same network's single immutable pair (both
// directions), so exactly one generation may happen regardless of shard
// count — and reading Counts here, once, after the sweep, is the
// advisory-stats contract Stats.Merge documents.
func TestRunShardedSharedCache(t *testing.T) {
	specs := shardTestSpecs(t)
	traces := engine.NewCache()
	if _, _, err := RunSharded(context.Background(), specs, ShardedOptions{
		Shards: 3, Traces: traces,
	}); err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := traces.Counts()
	if misses != 1 {
		t.Errorf("trace generations = %d, want 1 (shards must share the cache)", misses)
	}
	if hits != len(specs)-misses {
		t.Errorf("cache hits = %d, want %d", hits, len(specs)-misses)
	}
}

// TestRunShardedCheckpointResume is the kill-and-resume contract: a sweep
// that dies mid-run leaves per-shard logs (including a torn tail) that a
// rerun resumes — recomputing only the missing jobs — and the resumed
// merge is byte-identical to an uninterrupted run.
func TestRunShardedCheckpointResume(t *testing.T) {
	specs := shardTestSpecs(t)
	const shards = 2

	// Reference: uninterrupted checkpointed run.
	fullDir := t.TempDir()
	full, _, err := RunSharded(context.Background(), specs, ShardedOptions{
		Shards: shards, Workers: 1, Checkpoint: fullDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := mergedBytes(t, full)

	// Forge the post-kill state: the manifest, shard 0's log cut to one
	// record plus a torn tail from the writer that died mid-line, and no
	// log at all for shard 1 (killed before its first record).
	killDir := t.TempDir()
	if err := engine.EnsureManifest(killDir, Manifest(specs, shards)); err != nil {
		t.Fatal(err)
	}
	fullLog, err := os.ReadFile(engine.ShardLogPath(fullDir, 0))
	if err != nil {
		t.Fatal(err)
	}
	firstLine := bytes.IndexByte(fullLog, '\n') + 1
	partial := append([]byte{}, fullLog[:firstLine]...)
	partial = append(partial, `{"i":2,"data":{"torn`...)
	if err := os.WriteFile(engine.ShardLogPath(killDir, 0), partial, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, st, err := RunSharded(context.Background(), specs, ShardedOptions{
		Shards: shards, Workers: 1, Checkpoint: killDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := mergedBytes(t, resumed); !bytes.Equal(got, want) {
		t.Error("resumed merge differs from uninterrupted run")
	}
	if st.Completed != len(specs)-1 {
		t.Errorf("resume recomputed %d jobs, want %d (one was checkpointed)", st.Completed, len(specs)-1)
	}

	// The finished directory is also mergeable offline.
	offline, err := MergeShardLogs(killDir, specs, shards)
	if err != nil {
		t.Fatal(err)
	}
	if got := mergedBytes(t, offline); !bytes.Equal(got, want) {
		t.Error("offline merge of resumed checkpoint differs from uninterrupted run")
	}
}

// TestRunShardedCheckpointIdentity checks that a checkpoint directory
// refuses a sweep it does not belong to, resumed or merged, with the
// permanent ErrManifestMismatch a supervisor fails fast on.
func TestRunShardedCheckpointIdentity(t *testing.T) {
	specs := shardTestSpecs(t)
	dir := t.TempDir()
	if _, _, err := RunSharded(context.Background(), specs[:2], ShardedOptions{
		Shards: 2, Workers: 1, Checkpoint: dir,
	}); err != nil {
		t.Fatal(err)
	}
	// Different grid size → different fingerprint and job count.
	if _, _, err := RunSharded(context.Background(), specs, ShardedOptions{
		Shards: 2, Workers: 1, Checkpoint: dir,
	}); !errors.Is(err, engine.ErrManifestMismatch) {
		t.Fatalf("resume with a different grid = %v, want ErrManifestMismatch", err)
	}
	// Different shard count over the same grid is also refused.
	if _, err := MergeShardLogs(dir, specs[:2], 3); !errors.Is(err, engine.ErrManifestMismatch) {
		t.Fatalf("merge with wrong shard count = %v, want ErrManifestMismatch", err)
	}
}

// TestDecodeResultErrors covers the malformed-stream paths.
func TestDecodeResultErrors(t *testing.T) {
	specs := shardTestSpecs(t)
	if _, err := DecodeResult(engine.Record{Index: len(specs), Data: []byte(`{}`)}, specs); err == nil {
		t.Fatal("out-of-range index: want error")
	}
	if _, err := DecodeResult(engine.Record{Index: 0, Data: []byte(`{"label":`)}, specs); err == nil {
		t.Fatal("corrupt payload: want error")
	}
}

// TestShardWorkers checks a fan-out, in-process or of child processes,
// splits the machine width instead of oversubscribing it once per shard.
func TestShardWorkers(t *testing.T) {
	// An explicit pool size forwards unchanged.
	if got := ShardWorkers(3, 0, 2); got != 3 {
		t.Fatalf("explicit workers: got %d, want 3", got)
	}
	// Auto mode: shares sum to the machine width (or shards, whichever is
	// larger — every shard gets at least one worker).
	for shards := 1; shards <= 5; shards++ {
		sum := 0
		for i := 0; i < shards; i++ {
			w := ShardWorkers(0, i, shards)
			if w < 1 {
				t.Fatalf("shard %d/%d: %d workers", i, shards, w)
			}
			sum += w
		}
		if sum < shards {
			t.Fatalf("shards=%d: shares sum to %d", shards, sum)
		}
	}
}
