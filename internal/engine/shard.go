// Sharding: partitioning a job grid across engines, processes or
// machines, with results that reassemble byte-identically.
//
// A Shard owns every job whose global index is congruent to its own index
// modulo the shard count. Ownership depends only on the index, never on
// scheduling, so any two decompositions of one grid agree on which shard
// computes which job, and the merged output — ascending global index —
// is the same byte stream for any shard count. The worker-count
// determinism the engine already guarantees (results collected by index,
// job-local randomness) generalizes directly: a shard is just a worker
// pool that happens to live in another engine, process or host.
package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ErrCorruptLog marks permanent shard-log damage: a terminated malformed
// line. Unlike the torn unterminated tail a kill leaves (silently
// truncated on resume), a corrupt line means the log can no longer be
// appended to safely — retrying the same shard against it will fail
// forever. Supervisors test for it with errors.Is and route the shard to
// rescue instead of retrying.
var ErrCorruptLog = errors.New("corrupt shard log")

// Shard identifies one partition of a job grid: shard Index of Count.
// The zero value is not valid; Count must be >= 1 and 0 <= Index < Count.
type Shard struct {
	Index, Count int
}

// ParseShard parses the CLI "i/n" form (e.g. "0/4" is the first of four
// shards).
func ParseShard(s string) (Shard, error) {
	i, n, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("engine: shard must be \"i/n\" (e.g. \"0/4\"), got %q", s)
	}
	idx, err := strconv.Atoi(strings.TrimSpace(i))
	if err != nil {
		return Shard{}, fmt.Errorf("engine: bad shard index in %q: %v", s, err)
	}
	cnt, err := strconv.Atoi(strings.TrimSpace(n))
	if err != nil {
		return Shard{}, fmt.Errorf("engine: bad shard count in %q: %v", s, err)
	}
	sh := Shard{Index: idx, Count: cnt}
	if err := sh.Validate(); err != nil {
		return Shard{}, err
	}
	return sh, nil
}

// String renders the shard in the "i/n" CLI form.
func (s Shard) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// Validate checks the invariants ParseShard enforces.
func (s Shard) Validate() error {
	if s.Count < 1 {
		return fmt.Errorf("engine: shard count %d must be >= 1", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("engine: shard index %d outside [0, %d)", s.Index, s.Count)
	}
	return nil
}

// Owns reports whether this shard owns global job index idx.
func (s Shard) Owns(idx int) bool { return idx%s.Count == s.Index }

// Size returns how many of total jobs this shard owns.
func (s Shard) Size(total int) int {
	if total <= s.Index {
		return 0
	}
	return (total-s.Index-1)/s.Count + 1
}

// Owned lists the indexes of a total-job grid this valid shard owns,
// ascending, minus those in done (a resumed log's completed jobs).
func (s Shard) Owned(total int, done []int) []int {
	skip := make(map[int]bool, len(done))
	for _, i := range done {
		skip[i] = true
	}
	owned := make([]int, 0, s.Size(total))
	for i := s.Index; i < total; i += s.Count {
		if !skip[i] {
			owned = append(owned, i)
		}
	}
	return owned
}

// Record is one job's result in a shard's JSONL stream: the global job
// index — the merge key — plus an opaque payload owned by the caller.
// Nothing shard- or time-dependent belongs in a record; that is what
// makes the merged stream byte-identical across decompositions.
type Record struct {
	Index int             `json:"i"`
	Data  json.RawMessage `json:"data"`
}

// RecordWriter emits records as JSONL. Each record is one Write call on
// the underlying writer (line content plus trailing newline), so an
// append-mode file loses at most the torn tail of the line in flight
// when the process is killed — ReadRecords discards exactly that.
type RecordWriter struct {
	w    io.Writer
	buf  []byte
	sync func() error
}

// NewRecordWriter wraps w. For checkpoint logs, open the file in append
// mode so concurrent retries cannot interleave mid-line.
func NewRecordWriter(w io.Writer) *RecordWriter { return &RecordWriter{w: w} }

// NewRecordWriterSynced is NewRecordWriter plus a durability barrier:
// after each record line lands, sync runs (os.File.Sync for checkpoint
// logs) before Write returns. Every record is a checkpoint boundary, so
// the fsync-per-record discipline bounds what any crash — process or
// whole machine — can cost to the single record in flight; everything
// Write has returned for is durable. Simulation jobs run for orders of
// magnitude longer than an fsync, so the barrier is free at this
// granularity.
func NewRecordWriterSynced(w io.Writer, sync func() error) *RecordWriter {
	return &RecordWriter{w: w, sync: sync}
}

// Write appends one record line, then applies the durability barrier if
// this writer has one.
func (rw *RecordWriter) Write(rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("engine: encode record %d: %w", rec.Index, err)
	}
	rw.buf = append(rw.buf[:0], line...)
	rw.buf = append(rw.buf, '\n')
	if _, err := rw.w.Write(rw.buf); err != nil {
		return fmt.Errorf("engine: write record %d: %w", rec.Index, err)
	}
	if rw.sync != nil {
		if err := rw.sync(); err != nil {
			return fmt.Errorf("engine: sync record %d: %w", rec.Index, err)
		}
	}
	return nil
}

// ReadRecords parses a shard log. A trailing unterminated line that does
// not parse is discarded — it is the torn tail of a killed writer, and
// dropping it is what lets a resumed sweep append to the same log. Any
// terminated malformed line is an error wrapping ErrCorruptLog: the log
// is corrupt, not torn. On that error the returned records still hold
// the valid prefix — the salvage a supervisor rescues from.
func ReadRecords(r io.Reader) ([]Record, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	recs, _, err := parseRecords(raw)
	return recs, err
}

// ParseRecords parses a chunk of shard-log bytes, returning the records
// it holds plus the byte offset just past the last complete, valid
// record. An unterminated trailing fragment is not an error — it is the
// torn tail of a killed writer, or the mid-record cut of a partial
// network pull, and the returned offset stops before it so the caller
// can resume from exactly there. A terminated malformed line is an error
// wrapping ErrCorruptLog, with the valid prefix still returned. This is
// the incremental half of ReadRecords: remote-dispatch pullers feed it
// successive chunks and advance their offset by the good bytes of each.
func ParseRecords(raw []byte) ([]Record, int64, error) { return parseRecords(raw) }

// parseRecords returns the records in raw plus the byte offset just past
// the last complete, valid record — the truncation point a resuming
// writer must seek to. On a corrupt (terminated malformed) line it
// returns the valid prefix records and offset alongside the error, so
// salvage paths need no second parse.
func parseRecords(raw []byte) ([]Record, int64, error) {
	var recs []Record
	var good int64
	for lineNo := 1; len(raw) > 0; lineNo++ {
		line, rest, terminated := bytes.Cut(raw, []byte{'\n'})
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			if !terminated {
				// Torn tail of a killed writer: not part of the log.
				return recs, good, nil
			}
			return recs, good, fmt.Errorf("engine: %w: line %d: %v", ErrCorruptLog, lineNo, err)
		}
		recs = append(recs, rec)
		good += int64(len(line)) + 1
		if !terminated {
			good-- // the line had no trailing newline but parsed whole
		}
		raw = rest
	}
	return recs, good, nil
}

// MergeRecords merges per-shard logs — stream i holding shard i of
// len(streams) — into one stream ordered by ascending global index,
// verifying the decomposition: every record must belong to the stream's
// shard, duplicates of an index within a stream are tolerated with the
// last occurrence winning (a retried shard may overlap itself), and
// every index in [0, total) must be present exactly once in the merge.
// The output order depends only on the indexes, never on shard count or
// completion order, so the merged bytes are identical for any
// decomposition of the same grid.
func MergeRecords(streams [][]Record, total int) ([]Record, error) {
	merged, missing, err := mergePartial(streams, nil, total)
	if err != nil {
		return nil, err
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("engine: merge incomplete: %d of %d jobs missing (first: %v)", len(missing), total, missing[:min(len(missing), 8)])
	}
	return merged, nil
}

// mergePartial is the merge underneath MergeRecords and ReadCheckpoint,
// split for the two recovery paths a supervisor needs. It tolerates
// incompleteness — returning the records present (ascending index) plus
// the sorted list of missing indexes instead of failing — and it accepts
// an optional rescue stream: records recomputed on behalf of dead shards, exempt
// from the per-stream ownership check because reassignment is exactly
// the point. The missing list is what makes rescue deterministic: the
// ownership contract plus the append-only logs make it a pure function
// of the surviving records, so any supervisor inspecting the same logs
// reassigns the identical job set. Out-of-range indexes and ownership
// violations within the shard streams remain hard errors — they mean the
// decomposition itself is broken, which no amount of recomputing fixes.
func mergePartial(streams [][]Record, rescue []Record, total int) (present []Record, missing []int, err error) {
	shards := len(streams)
	if shards == 0 {
		return nil, nil, fmt.Errorf("engine: merge of zero shard streams")
	}
	merged := make([]Record, total)
	seen := make([]bool, total)
	for si, stream := range streams {
		sh := Shard{Index: si, Count: shards}
		for _, rec := range stream {
			if rec.Index < 0 || rec.Index >= total {
				return nil, nil, fmt.Errorf("engine: shard %s: record index %d outside job grid [0, %d)", sh, rec.Index, total)
			}
			if !sh.Owns(rec.Index) {
				return nil, nil, fmt.Errorf("engine: shard %s holds record %d owned by shard %d/%d", sh, rec.Index, rec.Index%shards, shards)
			}
			merged[rec.Index] = rec
			seen[rec.Index] = true
		}
	}
	for _, rec := range rescue {
		if rec.Index < 0 || rec.Index >= total {
			return nil, nil, fmt.Errorf("engine: rescue stream: record index %d outside job grid [0, %d)", rec.Index, total)
		}
		merged[rec.Index] = rec
		seen[rec.Index] = true
	}
	present = merged[:0]
	for i, ok := range seen {
		if ok {
			present = append(present, merged[i])
		} else {
			missing = append(missing, i)
		}
	}
	return present, missing, nil
}
