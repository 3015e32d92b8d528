package engine

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestMergePartialReportsMissing(t *testing.T) {
	streams := [][]Record{
		{rec(0, "a"), rec(2, "c")}, // shard 0 of 2: missing 4
		{rec(1, "b")},              // shard 1 of 2: missing 3, 5
	}
	present, missing, err := MergePartial(streams, nil, 6)
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
	present, missing, err := MergePartial(streams, rescue, 4)
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
	if _, _, err := MergePartial([][]Record{{rec(1, "x")}, nil}, nil, 2); err == nil || !strings.Contains(err.Error(), "owned by") {
		t.Fatalf("ownership violation: err = %v", err)
	}
	if _, _, err := MergePartial([][]Record{{rec(9, "x")}}, nil, 2); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("out-of-range shard record: err = %v", err)
	}
	if _, _, err := MergePartial([][]Record{nil}, []Record{rec(-1, "x")}, 2); err == nil || !strings.Contains(err.Error(), "rescue") {
		t.Fatalf("out-of-range rescue record: err = %v", err)
	}
	if _, _, err := MergePartial(nil, nil, 0); err == nil {
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
