package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzReadRecords drives the shard-log parser with arbitrary byte
// streams — valid logs, torn tails, terminated garbage, interleaved
// fragments — and checks the recovery invariants the supervisor builds
// on:
//
//   - no panic, whatever the input;
//   - the accepted records round-trip: re-encoding them through
//     RecordWriter and re-reading yields semantically identical records
//     (no silent loss or mutation in the salvage path);
//   - a parse error always wraps ErrCorruptLog (so errors.Is
//     classification in the worker cannot miss a corruption);
//   - the accepted records never break mergePartial when fed as a
//     single-shard stream (bounded to in-range indexes).
func FuzzReadRecords(f *testing.F) {
	f.Add([]byte(`{"i":0,"data":"a"}` + "\n" + `{"i":1,"data":"b"}` + "\n"))
	f.Add([]byte(`{"i":0,"data":"a"}` + "\n" + `{"i":1,"da`))          // torn tail
	f.Add([]byte(`{"i":0,"data":"a"}` + "\n" + "{\"i\":corrupt!}\n"))  // terminated garbage
	f.Add([]byte(`{"i":2,"data":{"nested":[1,2]}}` + "\n" + "\x00\n")) // binary garbage line
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"i":-5,"data":null}` + "\n"))
	f.Add([]byte(`{"i":0}{"i":1}` + "\n")) // two objects on one line

	f.Fuzz(func(t *testing.T, raw []byte) {
		recs, err := ReadRecords(bytes.NewReader(raw))
		if err != nil && !errors.Is(err, ErrCorruptLog) {
			t.Fatalf("parse error does not wrap ErrCorruptLog: %v", err)
		}

		// Round-trip: whatever was accepted must survive re-encode +
		// re-read without loss. Data payloads compare compacted, because
		// Marshal normalizes whitespace inside RawMessage.
		var buf bytes.Buffer
		rw := NewRecordWriter(&buf)
		for _, r := range recs {
			if err := rw.Write(r); err != nil {
				// Accepted records must be encodable; RawMessage that
				// parsed as part of a line re-marshals.
				t.Fatalf("re-encode accepted record %d: %v", r.Index, err)
			}
		}
		again, err := ReadRecords(&buf)
		if err != nil {
			t.Fatalf("re-read of re-encoded stream failed: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip lost records: %d -> %d", len(recs), len(again))
		}
		for i := range recs {
			if again[i].Index != recs[i].Index {
				t.Fatalf("record %d: index %d -> %d", i, recs[i].Index, again[i].Index)
			}
			if !jsonEqual(recs[i].Data, again[i].Data) {
				t.Fatalf("record %d: data %q -> %q", i, recs[i].Data, again[i].Data)
			}
		}

		// mergePartial must stay panic-free on any accepted stream; feed
		// it only in-range records as a single-shard decomposition.
		const total = 64
		var stream []Record
		for _, r := range recs {
			if r.Index >= 0 && r.Index < total {
				stream = append(stream, r)
			}
		}
		if _, _, err := mergePartial([][]Record{stream}, nil, total); err != nil {
			t.Fatalf("single-shard mergePartial of accepted in-range records: %v", err)
		}
	})
}

func jsonEqual(a, b json.RawMessage) bool {
	// A record line with no "data" key parses to a nil RawMessage, which
	// re-marshals as explicit null — the same JSON value.
	if len(a) == 0 {
		a = json.RawMessage("null")
	}
	if len(b) == 0 {
		b = json.RawMessage("null")
	}
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return bytes.Equal(a, b)
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// FuzzManifest drives the checkpoint manifest reader and identity check
// with arbitrary bytes — truncated JSON, duplicated keys, mismatched
// fingerprints, binary garbage — and checks the contract supervisors
// build on:
//
//   - no panic, whatever the file holds;
//   - an unparseable manifest errors wrapping ErrCorruptLog (permanent —
//     the same classification a corrupt shard log gets);
//   - a parseable manifest that names a different identity makes
//     EnsureManifest fail wrapping ErrManifestMismatch (also permanent),
//     while a matching identity resumes cleanly;
//   - ReadCheckpoint classifies the same bytes as EnsureManifest does;
//   - a manifest written by Manifest.Write always round-trips.
func FuzzManifest(f *testing.F) {
	f.Add([]byte(`{"fingerprint":"abc","shards":2,"jobs":6}`), "abc", 2, 6)
	f.Add([]byte(`{"fingerprint":"abc","shards":2,"jobs":6}`), "other", 2, 6)             // mismatched fingerprint
	f.Add([]byte(`{"fingerprint":"abc","shards":2,`), "abc", 2, 6)                        // truncated
	f.Add([]byte(`{"fingerprint":"a","fingerprint":"b","shards":1,"jobs":1}`), "b", 1, 1) // duplicated key
	f.Add([]byte(`{}`), "", 0, 0)
	f.Add([]byte("\x00\x01"), "x", 1, 1)
	f.Add([]byte(`[1,2,3]`), "x", 1, 1)

	f.Fuzz(func(t *testing.T, raw []byte, fp string, shards, jobs int) {
		// encoding/json rewrites invalid UTF-8 to replacement runes on
		// marshal; real fingerprints are hex, so pin the fuzzed one to
		// valid UTF-8 rather than asserting through that rewrite.
		fp = strings.ToValidUTF8(fp, "")
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		have, lerr := loadManifest(dir)
		if lerr != nil && !errors.Is(lerr, ErrCorruptLog) {
			t.Fatalf("loadManifest error does not wrap ErrCorruptLog: %v", lerr)
		}

		want := Manifest{Fingerprint: fp, Shards: shards, Jobs: jobs}
		eerr := EnsureManifest(dir, want)
		switch {
		case lerr != nil:
			// Unreadable manifest: EnsureManifest must refuse, permanently.
			if !errors.Is(eerr, ErrCorruptLog) {
				t.Fatalf("EnsureManifest over a corrupt manifest = %v, want ErrCorruptLog", eerr)
			}
		case have != want:
			if !errors.Is(eerr, ErrManifestMismatch) {
				t.Fatalf("EnsureManifest with mismatched identity = %v, want ErrManifestMismatch", eerr)
			}
		default:
			if eerr != nil {
				t.Fatalf("EnsureManifest with matching identity failed: %v", eerr)
			}
		}
		// The reader checks identity the same way (a refused EnsureManifest
		// wrote nothing); its merge needs a grid it can allocate.
		if shards >= 1 && shards <= 64 && jobs >= 0 && jobs <= 1024 {
			_, _, rerr := ReadCheckpoint(dir, want)
			if (rerr == nil) != (eerr == nil) || errors.Is(rerr, ErrCorruptLog) != errors.Is(eerr, ErrCorruptLog) ||
				errors.Is(rerr, ErrManifestMismatch) != errors.Is(eerr, ErrManifestMismatch) {
				t.Fatalf("ReadCheckpoint = %v where EnsureManifest = %v", rerr, eerr)
			}
		}

		// A manifest this code wrote always loads back identically, and a
		// matching resume against it succeeds.
		fresh := t.TempDir()
		if err := EnsureManifest(fresh, want); err != nil {
			t.Fatalf("EnsureManifest on a fresh dir: %v", err)
		}
		got, err := loadManifest(fresh)
		if err != nil || got != want {
			t.Fatalf("round trip = (%+v, %v), want %+v", got, err, want)
		}
		if err := EnsureManifest(fresh, want); err != nil {
			t.Fatalf("matching resume refused: %v", err)
		}
		if err := EnsureManifest(fresh, Manifest{Fingerprint: fp + "x", Shards: shards, Jobs: jobs}); !errors.Is(err, ErrManifestMismatch) {
			t.Fatalf("mismatched resume = %v, want ErrManifestMismatch", err)
		}
	})
}
