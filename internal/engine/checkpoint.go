// Checkpointing: a sharded sweep's on-disk layout, so a killed run
// restarts from where it left off instead of recomputing.
//
// A checkpoint directory holds one manifest plus append-only JSONL logs:
//
//	<dir>/manifest.json   — sweep identity (fingerprint, shards, jobs)
//	<dir>/shard-<i>.jsonl — shard i's completed records, append order
//	<dir>/rescue.jsonl    — records recomputed for dead shards
//
// The logs themselves are the checkpoint: a job is done iff its record
// is in a log, so there is no separate progress file to fall out of
// sync. Resume = read the log, skip the completed indexes, truncate the
// torn tail a kill may have left, append. The manifest only guards
// identity: resuming a directory recorded for a different spec grid or
// shard count fails loudly instead of merging apples into oranges.
// EnsureManifest stamps or checks it before a sweep writes; ReadCheckpoint
// is the one reader, checking it the same way before merging the logs.
//
// # Durability contract
//
// Checkpoints survive machine crashes, not just process crashes. Every
// record append through NewRecordWriterSynced fsyncs before Write
// returns — each record is a checkpoint boundary, so a crash at any
// instant costs at most the record in flight (which the next resume
// truncates as a torn tail). The manifest is written to a temp file,
// fsynced, renamed into place, and the directory fsynced after the
// rename, so the manifest name always refers to a complete old or
// complete new file. OpenShardLog fsyncs the directory after open, so a
// freshly created log's name is durable before any record lands in it.
// What is NOT durable: the torn tail itself (by design), and records
// written through the plain NewRecordWriter (in-memory sharding and
// stdout streams, where durability is meaningless).
package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// ErrManifestMismatch marks a checkpoint directory recorded for a
// different sweep: the manifest parsed cleanly but names another
// fingerprint, shard count or job count. Like ErrCorruptLog it is
// permanent — no retry reconciles two identities — so supervisors test
// for it with errors.Is and fail fast instead of burning attempts.
var ErrManifestMismatch = errors.New("checkpoint manifest mismatch")

// Manifest pins a checkpointed sweep's identity.
type Manifest struct {
	// Fingerprint hashes the sweep's inputs (the caller defines the
	// hash; scenario uses the canonical JSON of the spec grid).
	Fingerprint string `json:"fingerprint"`
	// Shards is the decomposition width; Jobs the global grid size.
	Shards int `json:"shards"`
	Jobs   int `json:"jobs"`
}

// manifestName is the manifest's file name inside a checkpoint dir.
const manifestName = "manifest.json"

// ShardLogPath returns shard i's log path inside a checkpoint dir.
func ShardLogPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", shard))
}

// RescueLogPath returns the rescue stream's path inside a checkpoint
// dir: records recomputed by the supervisor on behalf of dead shards.
// The rescue log is merged ownership-exempt (mergePartial), because
// holding other shards' indexes is its entire purpose.
func RescueLogPath(dir string) string {
	return filepath.Join(dir, "rescue.jsonl")
}

// loadManifest reads a checkpoint directory's manifest. A missing file
// returns os.ErrNotExist (a fresh directory, not an error condition).
func loadManifest(dir string) (Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		// Wraps ErrCorruptLog: an unparseable manifest is permanent
		// checkpoint damage, classified exactly like a corrupt shard log.
		return Manifest{}, fmt.Errorf("engine: corrupt checkpoint manifest in %s: %v (%w)", dir, err, ErrCorruptLog)
	}
	return m, nil
}

// Write persists the manifest atomically (temp file + rename), so a kill
// mid-write leaves either the old manifest or the new one, never a torn
// half.
func (m Manifest) Write(dir string) error {
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, manifestName+".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(append(raw, '\n'))
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("engine: write checkpoint manifest: %w", firstErr(werr, serr, cerr))
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	// Make the rename itself durable: until the directory is synced, a
	// machine crash could resurrect the old name.
	return syncDir(dir)
}

// EnsureManifest opens-or-creates a checkpoint directory for the given
// identity: a fresh directory is stamped with want, an existing one must
// match it exactly (same fingerprint, shard count and job count) or the
// resume is refused.
func EnsureManifest(dir string, want Manifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	err := checkManifest(dir, want)
	if os.IsNotExist(err) {
		return want.Write(dir)
	}
	return err
}

// checkManifest is the identity check: the manifest in dir must exist
// and equal want. A mismatch wraps ErrManifestMismatch and unparseable
// bytes wrap ErrCorruptLog; a missing manifest returns os.ErrNotExist.
func checkManifest(dir string, want Manifest) error {
	have, err := loadManifest(dir)
	if err != nil {
		return err
	}
	if have != want {
		return fmt.Errorf("engine: %w: %s belongs to a different sweep (recorded %d jobs across %d shards, fingerprint %.12s; resuming %d jobs across %d shards, fingerprint %.12s)",
			ErrManifestMismatch, dir, have.Jobs, have.Shards, have.Fingerprint, want.Jobs, want.Shards, want.Fingerprint)
	}
	return nil
}

// ReadCheckpoint reads the checkpoint directory of the sweep want names.
// It checks the manifest without creating it, reads every shard log plus
// the rescue log — a missing file reads as empty: a shard that died
// before its first record is a recovery condition, not an I/O error —
// and merges them (mergePartial), returning the present records in
// index order and the sorted missing indexes. A corrupt log fails with
// ErrCorruptLog naming the file.
func ReadCheckpoint(dir string, want Manifest) (present []Record, missing []int, err error) {
	if err := checkManifest(dir, want); err != nil {
		return nil, nil, err
	}
	streams := make([][]Record, want.Shards)
	for i := range streams {
		if streams[i], err = readLog(ShardLogPath(dir, i)); err != nil {
			return nil, nil, err
		}
	}
	rescue, err := readLog(RescueLogPath(dir))
	if err != nil {
		return nil, nil, err
	}
	return mergePartial(streams, rescue, want.Jobs)
}

// readLog reads one log of a checkpoint directory; a missing file holds
// no records.
func readLog(path string) ([]Record, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	recs, _, err := parseRecords(raw)
	if err != nil {
		return nil, fmt.Errorf("engine: %s: %w", path, err)
	}
	return recs, nil
}

// OpenShardLog opens (creating if absent) a shard's append log for
// resuming: it returns the sorted, deduplicated indexes already completed
// and a file positioned for appending. A torn trailing line from a killed
// writer is truncated away first, so the appended stream stays
// well-formed.
func OpenShardLog(path string) ([]int, *os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	recs, good, err := parseRecords(raw)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("engine: shard log %s: %w", path, err)
	}
	if good != int64(len(raw)) {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	// A freshly created log's directory entry must be durable before any
	// record lands in it, or a machine crash could lose the whole file
	// while the writer believes its records are fsynced.
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, nil, err
	}
	done := make([]int, len(recs))
	for i, r := range recs {
		done[i] = r.Index
	}
	slices.Sort(done)
	return slices.Compact(done), f, nil
}

// syncDir fsyncs a directory, making renames and creations within it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	return firstErr(serr, cerr)
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
