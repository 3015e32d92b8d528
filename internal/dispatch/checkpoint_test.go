// Checkpoint directories are one format whoever wrote them: an
// in-process RunSharded sweep, a supervised sweep, or an earlier build of
// either. Each resumes under the other, and every finished directory
// merges to the fault-free bytes.
package dispatch

import (
	"bytes"
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sprout/internal/engine"
	"sprout/internal/fault"
	"sprout/internal/scenario"
)

// checkMerged holds a finished checkpoint directory to the fault-free
// bytes through MergeShardLogs.
func checkMerged(t *testing.T, dir string, specs []scenario.Spec) {
	t.Helper()
	results, err := scenario.MergeShardLogs(dir, specs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mergedBytes(t, results), chaosReference(t)) {
		t.Fatal("MergeShardLogs differs from the fault-free run")
	}
}

// resumeRunSharded resumes dir in-process and checks it recomputed
// exactly want jobs and produced the fault-free bytes.
func resumeRunSharded(t *testing.T, dir string, specs []scenario.Spec, want int) {
	t.Helper()
	results, st, err := scenario.RunSharded(context.Background(), specs, scenario.ShardedOptions{Shards: 2, Workers: 1, Checkpoint: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != want {
		t.Fatalf("RunSharded resumed by recomputing %d jobs, want %d", st.Completed, want)
	}
	if !bytes.Equal(mergedBytes(t, results), chaosReference(t)) {
		t.Fatal("resumed RunSharded differs from the fault-free run")
	}
	checkMerged(t, dir, specs)
}

// TestCheckpointRunShardedResumesUnderSupervise: a RunSharded checkpoint
// cut mid-sweep — shard 0's log down to its first record plus a torn
// tail, shard 1's never written — resumes under Supervise, which
// recomputes only what the logs lack.
func TestCheckpointRunShardedResumesUnderSupervise(t *testing.T) {
	f := newFleet(chaosSpecs(t))
	cfg := chaosConfig(t, f, nil, fault.Plan{})
	if _, _, err := scenario.RunSharded(context.Background(), f.specs, scenario.ShardedOptions{Shards: 2, Workers: 1, Checkpoint: cfg.Dir}); err != nil {
		t.Fatal(err)
	}
	log0 := engine.ShardLogPath(cfg.Dir, 0)
	raw, err := os.ReadFile(log0)
	if err != nil {
		t.Fatal(err)
	}
	first := bytes.IndexByte(raw, '\n') + 1
	cut := append(raw[:first:first], `{"i":2,"data":{"to`...)
	if err := os.WriteFile(log0, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(engine.ShardLogPath(cfg.Dir, 1)); err != nil {
		t.Fatal(err)
	}

	sum, took, err := f.supervise(t, context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkSweep(t, cfg, sum, took)
	if sum.Rescued != 0 {
		t.Fatalf("rescued %d jobs from a resumable checkpoint", sum.Rescued)
	}
	// The worker resumed past the cut record: its log holds each of its
	// shard's three records once.
	worker, err := os.ReadFile(engine.ShardLogPath(filepath.Join(cfg.Dir, "host-local"), 0))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(worker, []byte{'\n'}); n != 3 {
		t.Fatalf("shard 0's worker log holds %d records, want 3", n)
	}
	checkMerged(t, cfg.Dir, f.specs)
}

// TestCheckpointSuperviseResumesUnderRunSharded: a supervised sweep
// cancelled after each shard's first record resumes in-process, and
// RunSharded computes only the four jobs the mirrors lack.
func TestCheckpointSuperviseResumesUnderRunSharded(t *testing.T) {
	f := newFleet(chaosSpecs(t))
	cfg := chaosConfig(t, f, nil, stalledPlan)
	sum, _, err := f.supervise(t, f.cancelAt(200*time.Millisecond, context.Canceled), cfg)
	if err == nil {
		t.Fatal("the cancelled sweep returned no error")
	}
	if want := []int{2, 3, 4, 5}; !reflect.DeepEqual(sum.Missing, want) {
		t.Fatalf("cancelled sweep missing %v, want %v", sum.Missing, want)
	}
	resumeRunSharded(t, cfg.Dir, f.specs, 4)
}

// olderCheckpoint is a checkpoint directory checked in as an earlier
// build (commit 3d28047) wrote it, for the sweep TestCheckpointFormatPinned
// runs. It holds every file a sweep writes: the manifest, both mirrors,
// the rescue log and the worker logs under host-local/.
const olderCheckpoint = "testdata/rescued-sweep"

// copyCheckpoint copies olderCheckpoint into a fresh directory.
func copyCheckpoint(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(olderCheckpoint)); err != nil {
		t.Fatal(err)
	}
	return dir
}

// readTree maps every file under dir to its bytes.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := fs.WalkDir(os.DirFS(dir), ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(filepath.Join(dir, path))
		files[path] = string(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestCheckpointFormatPinned: this build writes olderCheckpoint's sweep
// — shard 0 crashes on every attempt, after one record on its first, so
// its other two jobs are rescued — into the same files with the same
// bytes, and it merges and resumes the older directory byte for byte,
// in-process and supervised.
func TestCheckpointFormatPinned(t *testing.T) {
	f := newFleet(chaosSpecs(t))
	cfg := chaosConfig(t, f, nil, shardFaults(map[int][]fault.Fault{0: {
		{Kind: fault.Crash, After: 1},
		{Kind: fault.Crash, After: 0},
		{Kind: fault.Crash, After: 0},
	}}))
	sum, took, err := f.supervise(t, context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkSweep(t, cfg, sum, took)
	if got, want := readTree(t, cfg.Dir), readTree(t, olderCheckpoint); !reflect.DeepEqual(got, want) {
		t.Fatalf("this build's checkpoint differs from the older one:\ngot  %q\nwant %q", got, want)
	}

	checkMerged(t, copyCheckpoint(t), f.specs)
	// Shard 0's own log holds one of its three records; the rescue log
	// holds the other two but exempts none from the shard's resume.
	resumeRunSharded(t, copyCheckpoint(t), f.specs, 2)

	resumed := newFleet(f.specs)
	cfg = chaosConfig(t, resumed, nil, fault.Plan{})
	cfg.Dir = copyCheckpoint(t)
	sum, took, err = resumed.supervise(t, context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkSweep(t, cfg, sum, took)
	if sum.Rescued != 0 {
		t.Fatalf("resuming a complete checkpoint rescued %d jobs", sum.Rescued)
	}
	checkMerged(t, cfg.Dir, f.specs)
}
