package scenario

import (
	"testing"
	"time"

	"sprout/internal/engine"
)

// TestPooledWorldRerunAllocs pins the world-reuse contract at the
// experiment layer: once a worker's world is warm (arena grown, endpoints
// memoized, trace pair cached), re-running a job allocates nothing. This
// is what makes large scenario grids allocation-flat — every per-packet
// and per-run byte comes from retained state.
func TestPooledWorldRerunAllocs(t *testing.T) {
	spec := Spec{
		Scheme:   "sprout",
		Link:     "Verizon LTE",
		Duration: Duration(2 * time.Second),
		Skip:     Duration(500 * time.Millisecond),
		Seed:     3,
	}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	traces := engine.NewCache()
	w := newWorld()
	run := func() {
		if _, err := runNormalized(norm, traces, w); err != nil {
			t.Fatal(err)
		}
	}
	run() // grow the arena, memoize endpoints, fill the trace cache
	run() // settle any second-order buffer growth
	if avg := testing.AllocsPerRun(5, run); avg > 0 {
		t.Errorf("warm pooled-world re-run allocates %.1f times per run, want 0", avg)
	}
}

// TestPooledWorldRerunAllocsMultiFlow: sharing the path costs a warm world
// nothing — the flow table and the demux are retained like everything
// else — so a multi-group roster allocates exactly what its schemes'
// constructors do per flow: nothing for Sprout (the memoized forecaster
// is Reset in place), two per TCP flow (tcpConstructor asks tcp.NewCC for
// a fresh congestion controller bound to the clock's Now) and two per
// application flow (appConstructor's app.ProfileByName rebuilds and
// lower-cases the profile list).
func TestPooledWorldRerunAllocsMultiFlow(t *testing.T) {
	cases := []struct {
		groups []FlowGroup
		want   float64
	}{
		{[]FlowGroup{{Scheme: "sprout", Count: 3}}, 0},
		{[]FlowGroup{{Scheme: "cubic", Count: 2}, {Scheme: "skype", Count: 1}}, 2*2 + 2},
	}
	for _, c := range cases {
		norm, err := Spec{
			Groups:   c.groups,
			Link:     "Verizon LTE",
			Duration: Duration(2 * time.Second),
			Skip:     Duration(500 * time.Millisecond),
			Seed:     3,
		}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		traces := engine.NewCache()
		w := newWorld()
		run := func() {
			if _, err := runNormalized(norm, traces, w); err != nil {
				t.Fatal(err)
			}
		}
		run()
		run()
		if avg := testing.AllocsPerRun(5, run); avg != c.want {
			t.Errorf("%s: warm re-run allocates %.1f times per run, want %.0f", norm.Label(), avg, c.want)
		}
	}
}

// TestPooledWorldRerunMatchesFresh asserts reuse changes nothing: the same
// normalized spec run on a warm world and on a fresh world produce
// identical results.
func TestPooledWorldRerunMatchesFresh(t *testing.T) {
	spec := Spec{
		Scheme:   "sprout",
		Link:     "T-Mobile 3G (UMTS)",
		Duration: Duration(2 * time.Second),
		Skip:     Duration(500 * time.Millisecond),
		Seed:     9,
	}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	traces := engine.NewCache()
	w := newWorld()
	if _, err := runNormalized(norm, traces, w); err != nil {
		t.Fatal(err) // warm the world on the same spec
	}
	warm, err := runNormalized(norm, traces, w)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := runNormalized(norm, traces, newWorld())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Metrics != fresh.Metrics {
		t.Errorf("reused world diverged:\nwarm  %+v\nfresh %+v", warm.Metrics, fresh.Metrics)
	}
	if warm.Delay95 != fresh.Delay95 || warm.JainIndex != fresh.JainIndex {
		t.Errorf("aggregates diverged: %v/%v vs %v/%v",
			warm.Delay95, warm.JainIndex, fresh.Delay95, fresh.JainIndex)
	}
	if len(warm.Flows) != len(fresh.Flows) {
		t.Fatalf("flow counts differ: %d vs %d", len(warm.Flows), len(fresh.Flows))
	}
	for i := range warm.Flows {
		if warm.Flows[i] != fresh.Flows[i] {
			t.Errorf("flow %d differs: %+v vs %+v", i, warm.Flows[i], fresh.Flows[i])
		}
	}
}

// TestPooledWorldSchemeSwitch asserts the endpoint memo keeps schemes
// apart: alternating schemes (the matrix's scheme-major job order) on one
// world still matches fresh-world results.
func TestPooledWorldSchemeSwitch(t *testing.T) {
	mk := func(scheme string) Spec {
		return Spec{
			Scheme:   scheme,
			Link:     "Verizon LTE",
			Duration: Duration(2 * time.Second),
			Skip:     Duration(500 * time.Millisecond),
			Seed:     4,
		}
	}
	traces := engine.NewCache()
	w := newWorld()
	schemes := []string{"sprout", "cubic", "skype", "sprout", "cubic", "skype"}
	got := make([]Result, len(schemes))
	for i, s := range schemes {
		norm, err := mk(s).Normalize()
		if err != nil {
			t.Fatal(err)
		}
		got[i], err = runNormalized(norm, traces, w)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if got[i].Metrics != got[i+3].Metrics {
			t.Errorf("%s: first run %+v != repeat %+v", schemes[i], got[i].Metrics, got[i+3].Metrics)
		}
		norm, _ := mk(schemes[i]).Normalize()
		fresh, err := runNormalized(norm, traces, newWorld())
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Metrics != fresh.Metrics {
			t.Errorf("%s: pooled %+v != fresh %+v", schemes[i], got[i].Metrics, fresh.Metrics)
		}
	}
}
