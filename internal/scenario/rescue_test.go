package scenario

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"sprout/internal/engine"
)

// TestRunIndexesMatchesShardRecords: a rescued job's record must be
// byte-identical to the one the owning shard would have written — the
// property that makes rescue invisible in the merged output.
func TestRunIndexesMatchesShardRecords(t *testing.T) {
	specs := shardTestSpecs(t)
	traces := engine.NewCache()

	// Reference: shard 1 of 2 run normally.
	var shardBuf bytes.Buffer
	sh := engine.Shard{Index: 1, Count: 2}
	if _, err := RunShard(context.Background(), engine.New(2), specs, sh, nil, engine.NewRecordWriter(&shardBuf)); err != nil {
		t.Fatal(err)
	}
	want, err := engine.ReadRecords(bytes.NewReader(shardBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// Rescue pass over the same indexes.
	owned := ownedIndexes(len(specs), sh, nil)
	var rescueBuf bytes.Buffer
	if _, err := RunIndexes(context.Background(), engine.New(1), specs, traces, owned, engine.NewRecordWriter(&rescueBuf)); err != nil {
		t.Fatal(err)
	}
	got, err := engine.ReadRecords(bytes.NewReader(rescueBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	byIndex := func(recs []engine.Record) map[int]string {
		m := map[int]string{}
		for _, r := range recs {
			m[r.Index] = string(r.Data)
		}
		return m
	}
	if !reflect.DeepEqual(byIndex(want), byIndex(got)) {
		t.Fatalf("rescued records differ from shard records:\nshard:  %v\nrescue: %v", byIndex(want), byIndex(got))
	}
}

func TestCompileIndexJobsRejectsOutOfRange(t *testing.T) {
	specs := shardTestSpecs(t)
	if _, err := compileIndexJobs(specs, nil, []int{len(specs)}, func(int, Result) error { return nil }); err == nil {
		t.Fatal("out-of-range rescue index must error")
	}
	if _, err := compileIndexJobs(specs, nil, []int{-1}, func(int, Result) error { return nil }); err == nil {
		t.Fatal("negative rescue index must error")
	}
}

// TestMergeResultsPartial: a merge of incomplete streams surfaces exactly
// the missing indexes and decodes everything present.
func TestMergeResultsPartial(t *testing.T) {
	specs := shardTestSpecs(t)
	results, _, err := RunSharded(context.Background(), specs, ShardedOptions{Shards: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var full []engine.Record
	for i, res := range results {
		rec, err := EncodeResult(i, res)
		if err != nil {
			t.Fatal(err)
		}
		full = append(full, rec)
	}

	// Split into 2 shard streams, drop shard 1's records past its first,
	// and feed one dropped record back through the rescue stream.
	streams := make([][]engine.Record, 2)
	var dropped []engine.Record
	for _, rec := range full {
		s := rec.Index % 2
		if s == 1 && len(streams[1]) >= 1 {
			dropped = append(dropped, rec)
			continue
		}
		streams[s] = append(streams[s], rec)
	}
	if len(dropped) < 2 {
		t.Fatalf("test grid too small: only %d droppable records", len(dropped))
	}
	rescue := dropped[:1]
	wantMissing := []int{}
	for _, rec := range dropped[1:] {
		wantMissing = append(wantMissing, rec.Index)
	}

	partial, missing, err := MergeResults(streams, rescue, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(missing, wantMissing) {
		t.Fatalf("missing = %v, want %v", missing, wantMissing)
	}
	if len(partial) != len(specs)-len(wantMissing) {
		t.Fatalf("partial merge decoded %d results, want %d", len(partial), len(specs)-len(wantMissing))
	}

	// Callers that need the whole grid must refuse the same input.
	if incompleteErr(missing, len(specs)) == nil {
		t.Fatal("incompleteErr accepted an incomplete merge")
	}
}

// TestReadShardStreamsToleratesMissingLogs: a shard that died before
// writing anything reads as an empty stream, not an I/O error.
func TestReadShardStreamsToleratesMissingLogs(t *testing.T) {
	dir := t.TempDir()
	streams, rescue, err := ReadShardStreams(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 3 || rescue != nil {
		t.Fatalf("streams = %v, rescue = %v; want 3 empty streams, no rescue", streams, rescue)
	}
	for i, s := range streams {
		if s != nil {
			t.Fatalf("stream %d = %v, want empty", i, s)
		}
	}
}
