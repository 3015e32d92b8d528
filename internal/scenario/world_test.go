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
// a fresh world's, record and Work alike.
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
	pairs := []struct {
		name string
		a, b Spec
	}{
		{"scheme", cubic, streamSpec("cubic-codel", d, skip, 4)},
		{"sprout confidence", confidence(0.95), confidence(0.5)},
		{"mss", cubic, tunnel},
		{"process spec", cubic, att},
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
}
