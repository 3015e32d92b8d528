package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseShard(t *testing.T) {
	cases := []struct {
		in      string
		want    Shard
		wantErr bool
	}{
		{"0/1", Shard{0, 1}, false},
		{"0/4", Shard{0, 4}, false},
		{"3/4", Shard{3, 4}, false},
		{" 1 / 2 ", Shard{1, 2}, false},
		{"", Shard{}, true},
		{"3", Shard{}, true},     // no slash
		{"a/4", Shard{}, true},   // bad index
		{"0/b", Shard{}, true},   // bad count
		{"4/4", Shard{}, true},   // index out of range
		{"-1/4", Shard{}, true},  // negative index
		{"0/0", Shard{}, true},   // zero count
		{"0/-2", Shard{}, true},  // negative count
		{"1/2/3", Shard{}, true}, // extra field
		{"0.5/2", Shard{}, true}, // non-integer
	}
	for _, c := range cases {
		got, err := ParseShard(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseShard(%q) = %v, want error", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseShard(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseShard(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestShardOwnershipPartition checks that for any shard count the shards
// partition the index space: every index owned by exactly one shard, and
// Size agrees with Owns.
func TestShardOwnershipPartition(t *testing.T) {
	const total = 23
	for n := 1; n <= 8; n++ {
		sizes := 0
		for idx := 0; idx < total; idx++ {
			owners := 0
			for i := 0; i < n; i++ {
				if (Shard{i, n}).Owns(idx) {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("n=%d idx=%d owned by %d shards", n, idx, owners)
			}
		}
		for i := 0; i < n; i++ {
			sizes += Shard{i, n}.Size(total)
		}
		if sizes != total {
			t.Fatalf("n=%d: shard sizes sum to %d, want %d", n, sizes, total)
		}
	}
}

func rec(i int, payload string) Record {
	return Record{Index: i, Data: json.RawMessage(fmt.Sprintf("%q", payload))}
}

func TestRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewRecordWriter(&buf)
	want := []Record{rec(0, "a"), rec(2, "b"), rec(4, "c")}
	for _, r := range want {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip = %v, want %v", got, want)
	}
}

// TestReadRecordsTornTail checks the crash-resume contract: a torn
// (unterminated, unparseable) final line is silently discarded, while a
// terminated malformed line is a hard error.
func TestReadRecordsTornTail(t *testing.T) {
	var buf bytes.Buffer
	w := NewRecordWriter(&buf)
	w.Write(rec(0, "a"))
	w.Write(rec(1, "b"))
	goodLen := buf.Len()
	buf.WriteString(`{"i":2,"dat`) // killed mid-write

	recs, good, err := ParseRecords(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2 (torn tail dropped)", len(recs))
	}
	if good != int64(goodLen) {
		t.Fatalf("good offset = %d, want %d", good, goodLen)
	}

	// The same garbage terminated by a newline is corruption, not a tear.
	buf.WriteString("\n")
	if _, err := ReadRecords(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("terminated malformed line: want error")
	}
}

func TestOpenShardLogResumesAndTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0.jsonl")
	var buf bytes.Buffer
	w := NewRecordWriter(&buf)
	w.Write(rec(0, "a"))
	w.Write(rec(2, "b"))
	whole := buf.Len()
	buf.WriteString(`{"i":4,"da`) // torn tail
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	done, f, err := OpenShardLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(done, []int{0, 2}) {
		t.Fatalf("completed = %v, want [0 2]", done)
	}
	// Appending after resume must produce a clean log.
	if err := NewRecordWriter(f).Write(rec(4, "c")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	raw, _ := os.ReadFile(path)
	if int64(len(raw)) <= int64(whole) {
		t.Fatalf("appended log is %d bytes, want > %d", len(raw), whole)
	}
	if _, err := ReadRecords(bytes.NewReader(raw)); err != nil {
		t.Fatalf("resumed log corrupt: %v", err)
	}
	// A second resume sees every record once, a duplicate included.
	if err := os.WriteFile(path, append(raw, raw[:whole]...), 0o644); err != nil {
		t.Fatal(err)
	}
	done, f, err = OpenShardLog(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if !reflect.DeepEqual(done, []int{0, 2, 4}) {
		t.Fatalf("after append: completed = %v, want [0 2 4]", done)
	}
}

func TestMergeRecords(t *testing.T) {
	s0 := []Record{rec(2, "c"), rec(0, "a")} // completion order, not index order
	s1 := []Record{rec(1, "b"), rec(3, "d"), rec(1, "b2")}

	merged, err := MergeRecords([][]Record{s0, s1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantIdx := []int{0, 1, 2, 3}
	for i, r := range merged {
		if r.Index != wantIdx[i] {
			t.Fatalf("merged[%d].Index = %d, want %d", i, r.Index, wantIdx[i])
		}
	}
	if string(merged[1].Data) != `"b2"` {
		t.Fatalf("duplicate index: got %s, want last occurrence to win", merged[1].Data)
	}

	if _, err := MergeRecords([][]Record{s0, s1}, 5); err == nil ||
		!strings.Contains(err.Error(), "missing") {
		t.Fatalf("incomplete merge: err = %v, want missing-jobs error", err)
	}
	if _, err := MergeRecords([][]Record{{rec(1, "x")}, nil}, 2); err == nil ||
		!strings.Contains(err.Error(), "owned by") {
		t.Fatalf("foreign record: err = %v, want ownership error", err)
	}
	if _, err := MergeRecords([][]Record{{rec(9, "x")}}, 2); err == nil {
		t.Fatal("out-of-range record: want error")
	}
	if _, err := MergeRecords(nil, 0); err == nil {
		t.Fatal("zero streams: want error")
	}
}

func TestStatsMerge(t *testing.T) {
	var total Stats
	total.Merge(Stats{Jobs: 3, Completed: 3, Workers: 2, Wall: 5 * time.Second})
	total.Merge(Stats{Jobs: 2, Completed: 1, Workers: 2, Wall: 3 * time.Second})
	if total.Jobs != 5 || total.Completed != 4 || total.Workers != 4 {
		t.Fatalf("merge sums wrong: %+v", total)
	}
	if total.Wall != 8*time.Second {
		t.Fatalf("Wall = %v, want aggregate 8s", total.Wall)
	}
	if total.Shards != 2 {
		t.Fatalf("Shards = %d, want 2", total.Shards)
	}
	// Merging an already-merged aggregate keeps the shard count additive.
	var again Stats
	again.Merge(total)
	again.Merge(Stats{Jobs: 1, Completed: 1, Workers: 1})
	if again.Shards != 3 {
		t.Fatalf("nested merge Shards = %d, want 3", again.Shards)
	}
	if !strings.Contains(again.String(), "across 3 shards") {
		t.Fatalf("String() = %q, want shard count", again.String())
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := Manifest{Fingerprint: "abc123", Shards: 4, Jobs: 32}
	if err := EnsureManifest(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := loadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("manifest = %+v, want %+v", got, want)
	}
	// Re-ensuring the same identity is a no-op...
	if err := EnsureManifest(dir, want); err != nil {
		t.Fatal(err)
	}
	// ...but any identity drift refuses the resume.
	for _, bad := range []Manifest{
		{Fingerprint: "other", Shards: 4, Jobs: 32},
		{Fingerprint: "abc123", Shards: 2, Jobs: 32},
		{Fingerprint: "abc123", Shards: 4, Jobs: 16},
	} {
		if err := EnsureManifest(dir, bad); err == nil {
			t.Fatalf("EnsureManifest(%+v) on mismatched dir: want error", bad)
		}
	}
}
