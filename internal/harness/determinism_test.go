package harness

import (
	"reflect"
	"testing"
	"time"

	"sprout/internal/engine"
	"sprout/internal/scenario"
)

// TestRunMatrixDeterministicAcrossWorkers is the engine's core guarantee:
// the full 8-link matrix is byte-identical whether run serially or on a
// parallel worker pool.
func TestRunMatrixDeterministicAcrossWorkers(t *testing.T) {
	schemes := Schemes()
	dur, skip := 20*time.Second, 5*time.Second
	if testing.Short() {
		schemes = []string{"sprout", "cubic", "skype"}
		dur, skip = 12*time.Second, 3*time.Second
	}
	opt := Options{Duration: dur, Skip: skip, Seed: 6}
	serial, st1 := runMatrix(t, opt, schemes, 1)
	parallel, st4 := runMatrix(t, opt, schemes, 4)
	if !reflect.DeepEqual(serial.cells, parallel.cells) {
		for _, l := range serial.links {
			for _, s := range schemes {
				if serial.cells[l][s] != parallel.cells[l][s] {
					t.Errorf("%s on %s: serial %+v != parallel %+v",
						s, l, serial.cells[l][s], parallel.cells[l][s])
				}
			}
		}
		t.Fatal("matrix differs between 1 and 4 workers")
	}
	if st1.Workers != 1 || st4.Workers != 4 {
		t.Errorf("stats workers = %d/%d, want 1/4", st1.Workers, st4.Workers)
	}
}

// TestRunMatrixTraceCache asserts the per-(link,seed) cache with zero-copy
// direction sharing: one immutable pair per network no matter how many
// schemes and directions share it (the matrix's 24 jobs — 3 schemes × 4
// networks × 2 directions — generate exactly 4 pairs).
func TestRunMatrixTraceCache(t *testing.T) {
	specs, _ := MatrixSpecs(Options{Duration: 10 * time.Second, Skip: 2 * time.Second, Seed: 2},
		[]string{"sprout", "sprout-ewma", "cubic"})
	traces := engine.NewCache()
	_, st, err := scenario.RunOn(t.Context(), engine.New(0), specs, traces)
	if err != nil {
		t.Fatal(err)
	}
	reused, generated, _ := traces.Counts()
	if generated != 4 {
		t.Errorf("generated %d trace pairs, want 4 (one per network, shared across directions)", generated)
	}
	if want := 24 - 4; reused != want {
		t.Errorf("reused %d, want %d (every other job served by reference)", reused, want)
	}
	if st.Completed != 24 {
		t.Errorf("completed %d jobs, want 24", st.Completed)
	}
}
