package scenario

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// encoded runs job on w and returns the result with its record's bytes.
func encoded(t *testing.T, job compiled, w *world) (Result, []byte) {
	t.Helper()
	res, err := job.run(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := EncodeResult(0, res)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec.Data
}

// TestWorldReusesByPosition: a world keeps the endpoints each flow-table
// row built and the process each link compiled, and reuses them only for
// what they were built from. Each pair differs at row 0 in one thing that
// shapes construction; one world runs A, B, A, B and every result must be
// a fresh world's, record and Work alike. Process specs are compared by
// value: an edit in place is a new spec, a new pointer to an equal one is
// not.
func TestWorldReusesByPosition(t *testing.T) {
	const d, skip = 3 * time.Second, 500 * time.Millisecond
	cubic := streamSpec("cubic", d, skip, 4)
	confidence := func(c float64) Spec {
		s := streamSpec("sprout", d, skip, 4)
		s.Confidence = c
		return s
	}
	tunnel := cubic
	tunnel.Tunnel = true
	att := cubic
	att.Process = &ProcessSpec{Model: "ATT-LTE-down"}
	scaled := cubic
	scaled.Process = &ProcessSpec{Model: "Verizon-LTE-down", Scale: 2}
	pairs := []struct {
		name string
		a, b Spec
	}{
		{"scheme", cubic, streamSpec("cubic-codel", d, skip, 4)},
		{"sprout confidence", confidence(0.95), confidence(0.5)},
		{"mss", cubic, tunnel},
		{"process spec", cubic, att},
		{"process scale", cubic, scaled},
	}
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			var jobs [2]compiled
			var fresh [2]Result
			var freshRec [2][]byte
			for i, s := range []Spec{p.a, p.b} {
				norm, err := s.Normalize()
				if err != nil {
					t.Fatal(err)
				}
				jobs[i] = compile(norm)
				fresh[i], freshRec[i] = encoded(t, jobs[i], newWorld())
			}
			a, b := RecordOf(fresh[0]), RecordOf(fresh[1])
			a.Label, b.Label = "", ""
			if reflect.DeepEqual(a, b) {
				t.Fatal("A and B give one result: the pair cannot tell a wrong reuse from a rebuild")
			}
			w := newWorld()
			for run := 0; run < 4; run++ {
				i := run % 2
				res, rec := encoded(t, jobs[i], w)
				if !bytes.Equal(rec, freshRec[i]) {
					t.Fatalf("run %d on the reused world:\n%s\nfresh world:\n%s", run+1, rec, freshRec[i])
				}
				if res.Work != fresh[i].Work {
					t.Fatalf("run %d: work %+v on the reused world, %+v on a fresh one", run+1, res.Work, fresh[i].Work)
				}
			}
		})
	}

	// A link's process is kept for a spec equal in value to the one it
	// compiled, whatever the pointer, and recompiled for a spec edited in
	// place since its last run.
	norm, err := cubic.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	job, w := compile(norm), newWorld()
	fresh := func(t *testing.T) []byte {
		_, rec := encoded(t, compile(norm), newWorld())
		return rec
	}
	run := func(t *testing.T, step string, want []byte) {
		t.Helper()
		if _, got := encoded(t, job, w); !bytes.Equal(got, want) {
			t.Fatalf("%s on the reused world:\n%s\nfresh world:\n%s", step, got, want)
		}
	}
	t.Run("edited in place", func(t *testing.T) {
		verizon := fresh(t)
		run(t, "first run", verizon)
		norm.Process.Model = "ATT-LTE-down" // job's spec shares this ProcessSpec
		att := fresh(t)
		if bytes.Equal(att, verizon) {
			t.Fatal("the edit does not change the result: the pair cannot tell a stale instance")
		}
		run(t, "after the edit", att)
		norm.Process.Model = "Verizon-LTE-down"
		run(t, "after the edit back", verizon)
	})
	t.Run("equal value, new pointer", func(t *testing.T) {
		run(t, "first run", fresh(t))
		kept := w.cells[0].downProc.proc
		twin := norm
		twin.Process = &ProcessSpec{Model: norm.Process.Model}
		job = compile(twin)
		run(t, "the equal spec", fresh(t))
		if w.cells[0].downProc.proc != kept {
			t.Error("an equal spec behind a new pointer recompiled the link's process")
		}
	})
}
