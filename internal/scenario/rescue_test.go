package scenario

import (
	"bytes"
	"context"
	"errors"
	"os"
	"reflect"
	"testing"

	"sprout/internal/engine"
)

// runIndexRecords runs indexes through RunIndexes on a workers-wide
// engine and returns the records by index.
func runIndexRecords(t *testing.T, specs []Spec, workers int, indexes []int) map[int]string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := RunIndexes(context.Background(), engine.New(workers), specs, nil, indexes, engine.NewRecordWriter(&buf)); err != nil {
		t.Fatal(err)
	}
	recs, err := engine.ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m := map[int]string{}
	for _, r := range recs {
		m[r.Index] = string(r.Data)
	}
	return m
}

// TestRunIndexesMatchesShardRecords: a rescued job's record must be
// byte-identical to the one the owning shard would have written — the
// property that makes rescue invisible in the merged output. The rescue
// pass lists the indexes in another order on another engine width.
func TestRunIndexesMatchesShardRecords(t *testing.T) {
	specs := shardTestSpecs(t)
	owned := engine.Shard{Index: 1, Count: 2}.Owned(len(specs), nil)
	want := runIndexRecords(t, specs, 2, owned)
	rescue := append([]int{}, owned...)
	for i, j := 0, len(rescue)-1; i < j; i, j = i+1, j-1 {
		rescue[i], rescue[j] = rescue[j], rescue[i]
	}
	if got := runIndexRecords(t, specs, 1, rescue); !reflect.DeepEqual(got, want) {
		t.Fatalf("rescued records differ from shard records:\nshard:  %v\nrescue: %v", want, got)
	}
}

func TestRunIndexesRejectsOutOfRange(t *testing.T) {
	specs := shardTestSpecs(t)
	for _, idx := range []int{len(specs), -1} {
		var buf bytes.Buffer
		if _, err := RunIndexes(context.Background(), engine.New(1), specs, nil, []int{0, idx}, engine.NewRecordWriter(&buf)); err == nil {
			t.Fatalf("index %d: want error", idx)
		}
		if buf.Len() != 0 {
			t.Fatalf("index %d: a refused list ran jobs", idx)
		}
	}
}

// TestReadCheckpointPartial: a checkpoint with incomplete shard logs
// decodes everything present, rescue log included, and surfaces exactly
// the missing indexes; MergeShardLogs refuses the same directory.
func TestReadCheckpointPartial(t *testing.T) {
	specs := shardTestSpecs(t)
	results, _, err := RunSharded(context.Background(), specs, ShardedOptions{Shards: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := engine.EnsureManifest(dir, Manifest(specs, 2)); err != nil {
		t.Fatal(err)
	}
	// Shard 0 is whole, shard 1 kept its first record, and the rescue log
	// holds the next one.
	logs := map[string][]int{
		engine.ShardLogPath(dir, 0): {0, 2, 4},
		engine.ShardLogPath(dir, 1): {1},
		engine.RescueLogPath(dir):   {3},
	}
	for path, indexes := range logs {
		var buf bytes.Buffer
		w := engine.NewRecordWriter(&buf)
		for _, i := range indexes {
			rec, err := EncodeResult(i, results[i])
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	partial, missing, err := ReadCheckpoint(dir, specs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{5}; !reflect.DeepEqual(missing, want) {
		t.Fatalf("missing = %v, want %v", missing, want)
	}
	if !reflect.DeepEqual(partial, results[:5]) {
		t.Fatal("partial merge does not decode the present results in index order")
	}
	if _, err := MergeShardLogs(dir, specs, 2); err == nil {
		t.Fatal("MergeShardLogs accepted an incomplete checkpoint")
	}
	if _, _, err := ReadCheckpoint(dir, specs[:5], 2); !errors.Is(err, engine.ErrManifestMismatch) {
		t.Fatalf("another grid's read = %v, want ErrManifestMismatch", err)
	}
}
