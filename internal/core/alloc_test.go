package core

import (
	"slices"
	"testing"
)

// TestModelTickAllocs: the per-20ms inference update (evolve + observe)
// must not allocate — it runs millions of times per experiment grid —
// whether the count reads a shared row (built before the measurement), is
// fractional, or lies past the table's last row.
func TestModelTickAllocs(t *testing.T) {
	m := NewModel(Params{})
	for i := 0; i < 50; i++ {
		m.Tick(6)
	}
	past := float64(len(m.obs.rows[ObsExact]) + 3)
	allocs := testing.AllocsPerRun(200, func() {
		m.Tick(6)
		m.Tick(6.4)
		m.Tick(past)
	})
	if allocs != 0 {
		t.Errorf("Model.Tick allocates %v allocs/op, want 0", allocs)
	}
}

// TestForecastAllocs: a full cautious forecast into a reused buffer must
// not allocate — warm, on rows an earlier forecast folded, and cold, where
// every measured forecast reads a table no forecast has read yet and folds
// its rows on first use into the model's scratch.
func TestForecastAllocs(t *testing.T) {
	f := NewDeliveryForecaster(NewModel(Params{}))
	for i := 0; i < 50; i++ {
		f.Tick(6, ObsExact)
	}
	buf := f.Forecast(nil) // size the buffer
	allocs := testing.AllocsPerRun(200, func() {
		buf = f.Forecast(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("warm Forecast allocates %v allocs/op, want 0", allocs)
	}

	// The cold case swaps unfolded tables in under the sized scratch;
	// AllocsPerRun runs once more than it measures.
	const runs = 4
	cold := make([]*forecastTable, runs+1)
	for i := range cold {
		cold[i] = buildForecastTable(f.model)
	}
	raw := slices.Clone(cold[runs].flat)
	next := 0
	allocs = testing.AllocsPerRun(runs, func() {
		f.tbl = cold[next]
		next++
		buf = f.Forecast(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("cold Forecast allocates %v allocs/op, want 0", allocs)
	}
	if slices.Equal(cold[runs].flat, raw) {
		t.Error("cold Forecast folded no row")
	}
}

// TestObserveAtLeastAllocs covers the censored-update path as well.
func TestObserveAtLeastAllocs(t *testing.T) {
	m := NewModel(Params{})
	for i := 0; i < 50; i++ {
		m.Tick(6)
	}
	m.ObserveAtLeast(4) // build the shared row outside the measurement
	past := float64(len(m.obs.rows[ObsAtLeast]) + 3)
	allocs := testing.AllocsPerRun(200, func() {
		m.Evolve()
		m.ObserveAtLeast(4)
		m.Evolve()
		m.ObserveAtLeast(3.5)
		m.Evolve()
		m.ObserveAtLeast(past)
	})
	if allocs != 0 {
		t.Errorf("Evolve+ObserveAtLeast allocates %v allocs/op, want 0", allocs)
	}
}
