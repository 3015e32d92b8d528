package core

import "testing"

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
// not allocate.
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
		t.Errorf("Forecast allocates %v allocs/op, want 0", allocs)
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
