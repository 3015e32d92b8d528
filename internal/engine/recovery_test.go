package engine

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestMergePartialReportsMissing(t *testing.T) {
	streams := [][]Record{
		{rec(0, "a"), rec(2, "c")}, // shard 0 of 2: missing 4
		{rec(1, "b")},              // shard 1 of 2: missing 3, 5
	}
	present, missing, err := mergePartial(streams, nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{3, 4, 5}; !reflect.DeepEqual(missing, want) {
		t.Fatalf("missing = %v, want %v", missing, want)
	}
	var idx []int
	for _, r := range present {
		idx = append(idx, r.Index)
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(idx, want) {
		t.Fatalf("present indexes = %v, want %v", idx, want)
	}
}

func TestMergePartialRescueFillsAnyShard(t *testing.T) {
	streams := [][]Record{
		{rec(0, "a")},
		{rec(1, "b")},
	}
	// Rescue holds indexes owned by both shards — ownership-exempt.
	rescue := []Record{rec(2, "c"), rec(3, "d")}
	present, missing, err := mergePartial(streams, rescue, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 {
		t.Fatalf("missing = %v, want none", missing)
	}
	for i, r := range present {
		if r.Index != i {
			t.Fatalf("present[%d].Index = %d", i, r.Index)
		}
	}
}

func TestMergePartialRejectsBrokenDecomposition(t *testing.T) {
	// A shard stream holding another shard's index stays a hard error.
	if _, _, err := mergePartial([][]Record{{rec(1, "x")}, nil}, nil, 2); err == nil || !strings.Contains(err.Error(), "owned by") {
		t.Fatalf("ownership violation: err = %v", err)
	}
	if _, _, err := mergePartial([][]Record{{rec(9, "x")}}, nil, 2); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("out-of-range shard record: err = %v", err)
	}
	if _, _, err := mergePartial([][]Record{nil}, []Record{rec(-1, "x")}, 2); err == nil || !strings.Contains(err.Error(), "rescue") {
		t.Fatalf("out-of-range rescue record: err = %v", err)
	}
	if _, _, err := mergePartial(nil, nil, 0); err == nil {
		t.Fatal("zero streams must error")
	}
}

func TestReadRecordsSalvagesPrefixOnCorruption(t *testing.T) {
	in := `{"i":0,"data":"a"}` + "\n" + `{"i":2,"data":"b"}` + "\n" + "garbage!\n" + `{"i":4,"data":"c"}` + "\n"
	recs, err := ReadRecords(strings.NewReader(in))
	if !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("err = %v, want ErrCorruptLog", err)
	}
	if len(recs) != 2 || recs[0].Index != 0 || recs[1].Index != 2 {
		t.Fatalf("salvaged %v, want the two-record valid prefix", recs)
	}
}

// TestRecordWriterSynced: the sync barrier runs once per record, after
// the bytes, and its failure surfaces as the Write error.
func TestRecordWriterSynced(t *testing.T) {
	var sb strings.Builder
	var syncs int
	var atSync []int
	rw := NewRecordWriterSynced(&sb, func() error {
		syncs++
		atSync = append(atSync, sb.Len())
		return nil
	})
	if err := rw.Write(rec(0, "a")); err != nil {
		t.Fatal(err)
	}
	if err := rw.Write(rec(1, "b")); err != nil {
		t.Fatal(err)
	}
	if syncs != 2 {
		t.Fatalf("synced %d times, want once per record", syncs)
	}
	lines := strings.SplitAfter(sb.String(), "\n")
	if atSync[0] != len(lines[0]) || atSync[1] != len(lines[0])+len(lines[1]) {
		t.Fatalf("sync ran at offsets %v; must follow each full line", atSync)
	}

	failing := NewRecordWriterSynced(&sb, func() error { return errors.New("disk gone") })
	if err := failing.Write(rec(2, "c")); err == nil || !strings.Contains(err.Error(), "sync record 2") {
		t.Fatalf("sync failure: err = %v", err)
	}
}

// TestReadCheckpointToleratesMissingLogs: a shard that died before
// writing anything reads as an empty stream, not an I/O error, and the
// rescue log fills any shard's indexes.
func TestReadCheckpointToleratesMissingLogs(t *testing.T) {
	dir := t.TempDir()
	want := Manifest{Fingerprint: "abc", Shards: 3, Jobs: 6}
	if err := EnsureManifest(dir, want); err != nil {
		t.Fatal(err)
	}
	present, missing, err := ReadCheckpoint(dir, want)
	if err != nil || len(present) != 0 || !reflect.DeepEqual(missing, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("empty checkpoint = (%v, %v, %v), want every index missing", present, missing, err)
	}
	writeLog(t, ShardLogPath(dir, 1), rec(1, "b"), rec(4, "e"))
	writeLog(t, RescueLogPath(dir), rec(0, "a"), rec(5, "f"))
	present, missing, err = ReadCheckpoint(dir, want)
	if err != nil {
		t.Fatal(err)
	}
	var idx []int
	for _, r := range present {
		idx = append(idx, r.Index)
	}
	if !reflect.DeepEqual(idx, []int{0, 1, 4, 5}) || !reflect.DeepEqual(missing, []int{2, 3}) {
		t.Fatalf("present %v, missing %v; want [0 1 4 5] and [2 3]", idx, missing)
	}
}

// TestReadCheckpointIdentity: the reader checks the manifest exactly as
// EnsureManifest does, never creates one, and names a corrupt log.
func TestReadCheckpointIdentity(t *testing.T) {
	dir := t.TempDir()
	want := Manifest{Fingerprint: "abc", Shards: 2, Jobs: 4}
	if _, _, err := ReadCheckpoint(dir, want); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("read without a manifest = %v, want ErrNotExist", err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("ReadCheckpoint created a manifest (stat: %v)", err)
	}
	if err := EnsureManifest(dir, want); err != nil {
		t.Fatal(err)
	}
	for _, other := range []Manifest{
		{Fingerprint: "other", Shards: 2, Jobs: 4},
		{Fingerprint: "abc", Shards: 3, Jobs: 4},
		{Fingerprint: "abc", Shards: 2, Jobs: 5},
	} {
		if _, _, err := ReadCheckpoint(dir, other); !errors.Is(err, ErrManifestMismatch) {
			t.Fatalf("read as %+v = %v, want ErrManifestMismatch", other, err)
		}
	}
	path := ShardLogPath(dir, 1)
	if err := os.WriteFile(path, []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCheckpoint(dir, want); !errors.Is(err, ErrCorruptLog) || !strings.Contains(err.Error(), path) {
		t.Fatalf("corrupt log = %v, want ErrCorruptLog naming %s", err, path)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCheckpoint(dir, want); !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("corrupt manifest = %v, want ErrCorruptLog", err)
	}
}

func writeLog(t *testing.T, path string, recs ...Record) {
	t.Helper()
	var buf bytes.Buffer
	w := NewRecordWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
