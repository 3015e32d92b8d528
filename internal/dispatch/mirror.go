package dispatch

import (
	"context"
	"fmt"
	"os"

	"sprout/internal/engine"
)

// shardMirror is the supervisor's locally-durable copy of one remote
// shard's checkpoint log. Records pulled from the remote host are
// appended here fsync-per-record, so the sweep's durability contract
// holds at the supervisor even when the shard runs on a machine that can
// vanish: everything mirrored survives the host, and a failover pushes
// the mirror to the next host, whose worker resumes from it exactly as
// it would from its own log — only un-mirrored jobs recompute.
//
// Appends deduplicate by record index. The pull protocol already
// discards replayed bytes by offset arithmetic, but the mirror is the
// durability boundary, so it enforces the at-most-once invariant itself
// rather than trusting the layer above.
type shardMirror struct {
	path string
	f    *os.File
	w    *engine.RecordWriter
	seen map[int]bool
}

// openShardMirror opens (resuming if present) the mirror log at path —
// for a supervised sweep, engine.ShardLogPath(dir, shard), so the merge
// reads mirrors exactly like local shard logs. A mirror only ever holds
// whole parsed records; one that is already corrupt fails with
// engine.ErrCorruptLog naming the file.
func openShardMirror(path string) (*shardMirror, error) {
	recs, f, err := engine.OpenShardLog(path)
	if err != nil {
		return nil, err
	}
	m := &shardMirror{path: path, f: f,
		w: engine.NewRecordWriterSynced(f, f.Sync), seen: map[int]bool{}}
	for _, r := range recs {
		m.seen[r.Index] = true
	}
	return m, nil
}

// absorb appends the records not yet mirrored, in the order given, and
// returns how many were new.
func (m *shardMirror) absorb(recs []engine.Record) (int, error) {
	added := 0
	for _, r := range recs {
		if m.seen[r.Index] {
			continue
		}
		if err := m.w.Write(r); err != nil {
			return added, err
		}
		m.seen[r.Index] = true
		added++
	}
	return added, nil
}

// bytes returns the mirror's full on-disk contents — what a failover
// pushes to the shard's next host.
func (m *shardMirror) bytes() ([]byte, error) { return os.ReadFile(m.path) }

// close releases the mirror's file handle.
func (m *shardMirror) close() error { return m.f.Close() }

// pullState drives the offset-based incremental pull of one remote
// shard log: it remembers the remote byte offset consumed so far and, on
// each poll, pulls from there, parses only the complete records in the
// chunk, absorbs them into the mirror, and advances by exactly the
// parsed bytes.
//
// The protocol is self-healing against every network shape a pull can
// take. A torn chunk tail (partial pull, slow stream cut short) parses
// as zero-or-more whole records plus a fragment; the offset stops before
// the fragment, so the next poll re-pulls it whole. A transport that
// re-serves earlier bytes after a retry reports from < offset, and the
// replayed prefix is discarded arithmetically before parsing; a
// transport may never skip ahead (from > offset), which poll enforces.
// A failed pull advances nothing — the next poll retries the identical
// range. The one non-recoverable outcome is a terminated malformed line
// in the pulled stream (engine.ErrCorruptLog): the remote log itself is
// damaged, which no re-pull fixes, so poll surfaces it and the
// supervisor declares the shard dead.
type pullState struct {
	transport Transport
	host      string
	path      string
	mirror    *shardMirror
	offset    int64
}

// newPullState starts pulling path on host via t from offset — for a
// fresh attempt, the length of the bytes pushed to the host, so the pull
// resumes exactly past what the supervisor already holds.
func newPullState(t Transport, host, path string, mirror *shardMirror, offset int64) *pullState {
	return &pullState{transport: t, host: host, path: path, mirror: mirror, offset: offset}
}

// poll pulls once and absorbs what arrived. grew reports whether any new
// record landed — the shard's liveness signal. An error from the
// transport itself is returned as-is (the caller scores host health and
// retries next poll); a corrupt stream returns an error wrapping
// engine.ErrCorruptLog after absorbing the valid prefix.
func (ps *pullState) poll(ctx context.Context) (grew bool, err error) {
	data, from, err := ps.transport.Pull(ctx, ps.host, ps.path, ps.offset)
	if err != nil {
		return false, err
	}
	if from > ps.offset {
		return false, fmt.Errorf("dispatch: pull of %s on %s skipped ahead (asked %d, got %d)", ps.path, ps.host, ps.offset, from)
	}
	skip := ps.offset - from
	if skip >= int64(len(data)) {
		return false, nil
	}
	recs, good, perr := engine.ParseRecords(data[skip:])
	if good > 0 {
		if _, aerr := ps.mirror.absorb(recs); aerr != nil {
			return false, aerr
		}
		ps.offset += good
		grew = true
	}
	return grew, perr
}
