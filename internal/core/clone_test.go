package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestModelCloneIndependent(t *testing.T) {
	m := NewModel(Params{})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		m.Tick(float64(poissonSample(rng, 6)))
	}
	c := m.Clone()
	if got, want := c.Mean(), m.Mean(); got != want {
		t.Fatalf("clone mean = %v, want %v", got, want)
	}
	// Advancing the original must not disturb the clone, and vice versa.
	beforeClone := c.Distribution(nil)
	m.Tick(0)
	afterClone := c.Distribution(nil)
	for j := range beforeClone {
		if beforeClone[j] != afterClone[j] {
			t.Fatalf("ticking original changed clone at bin %d", j)
		}
	}
	c.Tick(12)
	if c.Mean() == m.Mean() {
		t.Error("clone and original should have diverged")
	}
}

func TestModelCloneMatchesOriginalEvolution(t *testing.T) {
	// A clone fed the same observations as its source must track it bit
	// for bit — the property the parallel engine relies on.
	a := NewModel(Params{})
	rng := rand.New(rand.NewSource(2))
	obs := make([]float64, 200)
	for i := range obs {
		obs[i] = float64(poissonSample(rng, 8))
	}
	for _, o := range obs[:100] {
		a.Tick(o)
	}
	b := a.Clone()
	for _, o := range obs[100:] {
		a.Tick(o)
		b.Tick(o)
	}
	da, db := a.Distribution(nil), b.Distribution(nil)
	for j := range da {
		if da[j] != db[j] {
			t.Fatalf("posteriors diverged at bin %d: %v vs %v", j, da[j], db[j])
		}
	}
}

// TestClonesFillObservationRowsOnce: eight clones ticking the same history
// at once from a cold table (run under -race in CI) must each end bit-equal
// to a model ticked alone, and the table must hold exactly the rows the
// history asked for, each filled by one of them.
func TestClonesFillObservationRowsOnce(t *testing.T) {
	freshTableCache(t)
	rng := rand.New(rand.NewSource(7))
	type obs struct {
		count float64
		mode  Observation
	}
	history := make([]obs, 300)
	asked := map[[2]int]bool{}
	for i := range history {
		o := obs{float64(poissonSample(rng, 8)), Observation(rng.Intn(3))}
		if rng.Intn(4) == 0 {
			o.count += 0.5
		}
		history[i] = o
		switch {
		case o.mode == ObsExact && o.count == math.Floor(o.count):
			asked[[2]int{int(ObsExact), int(o.count)}] = true
		case o.mode == ObsAtLeast && o.count > 0:
			asked[[2]int{int(ObsAtLeast), int(math.Ceil(o.count)) - 1}] = true
		}
	}
	src := NewModel(Params{})
	clones := make([]*Model, 8)
	var wg sync.WaitGroup
	for i := range clones {
		clones[i] = src.Clone()
		wg.Add(1)
		go func(c *Model) {
			defer wg.Done()
			for _, o := range history {
				c.tick(o.count, o.mode)
			}
		}(clones[i])
	}
	wg.Wait()
	for _, o := range history {
		src.tick(o.count, o.mode)
	}
	for i, c := range clones {
		for j := range c.probs {
			if c.probs[j] != src.probs[j] {
				t.Fatalf("clone %d bin %d = %x, alone %x", i, j, c.probs[j], src.probs[j])
			}
		}
	}
	for mode := range src.obs.rows {
		for k := range src.obs.rows[mode] {
			if built, want := src.obs.rows[mode][k].w != nil, asked[[2]int{mode, k}]; built != want {
				t.Errorf("row (mode %d, count %d): built %v, asked for %v", mode, k, built, want)
			}
		}
	}
}

func TestForecasterCloneIdenticalForecasts(t *testing.T) {
	f := trainedForecaster(t, 300, 21)
	c := f.Clone()
	if c.tbl != f.tbl {
		t.Error("clone should share the immutable table")
	}
	a := f.Forecast(nil)
	b := c.Forecast(nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("forecast[%d]: clone %v != original %v", i, b[i], a[i])
		}
	}
	// Independent evolution after cloning.
	f.Tick(0, ObsExact)
	f.Tick(0, ObsExact)
	a = f.Forecast(nil)
	b = c.Forecast(nil)
	if a[7] >= b[7] {
		t.Errorf("original saw an outage, clone did not: %v vs %v", a[7], b[7])
	}
}

// TestForecastTableSharedAcrossForecasters: the cache key is exactly what
// shapes the table. The grid does, and so do σ and λz, whose evolution is
// folded into the rows; confidence shapes only the quantile, so the §5.5
// sweep shares one table.
func TestForecastTableSharedAcrossForecasters(t *testing.T) {
	freshTableCache(t)
	tbl := func(p Params) *forecastTable {
		p.NumBins = 32
		return NewDeliveryForecaster(NewModel(p)).tbl
	}
	base := tbl(Params{})
	if tbl(Params{}) != base {
		t.Error("same parameters should share one table")
	}
	if NewDeliveryForecaster(NewModel(Params{NumBins: 64})).tbl == base {
		t.Error("different grids must not share a table")
	}
	for _, c := range []float64{0.95, 0.75, 0.50, 0.25, 0.05} {
		if tbl(Params{Confidence: c}) != base {
			t.Errorf("confidence %v should reuse the table", c)
		}
	}
	s1, s2 := tbl(Params{Sigma: 100}), tbl(Params{Sigma: 400})
	if s1 == base || s2 == base || s1 == s2 {
		t.Error("two sigmas must get distinct tables")
	}
	if tbl(Params{Sigma: 100}) != s1 {
		t.Error("a sigma's table should be cached")
	}
	z1, z2 := tbl(Params{OutageEscape: 0.5}), tbl(Params{OutageEscape: 3})
	if z1 == base || z2 == base || z1 == z2 {
		t.Error("two outage-escape rates must get distinct tables")
	}
}

func TestForecastTableCacheBounded(t *testing.T) {
	// Sweeping a table-shaping parameter past the cache limit must keep
	// working (uncached builds), not retain a table per value forever.
	freshTableCache(t)
	_, _, before := tables.Counts()
	var fs []*DeliveryForecaster
	for i := 0; i < tableCacheLimit+4; i++ {
		f := NewDeliveryForecaster(NewModel(Params{NumBins: 32, MaxRate: 100 + float64(i)}))
		f.Tick(2, ObsExact)
		if fc := f.Forecast(nil); len(fc) != DefaultForecastTicks {
			t.Fatalf("sweep %d: forecast length %d", i, len(fc))
		}
		fs = append(fs, f)
	}
	n := 0
	tables.Range(func(tableKey, *forecastTable) { n++ })
	if n > tableCacheLimit {
		t.Errorf("table cache grew to %d entries, limit %d", n, tableCacheLimit)
	}
	n = 0
	obsTables.Range(func(obsKey, *obsTable) { n++ })
	if n > tableCacheLimit {
		t.Errorf("observation-row cache grew to %d grids, limit %d", n, tableCacheLimit)
	}
	if _, _, after := tables.Counts(); after-before != 4 {
		t.Errorf("uncached builds = %d, want 4", after-before)
	}
	_ = fs
}

func TestForecastTablePerTickBounds(t *testing.T) {
	p := DefaultParams()
	f := NewDeliveryForecaster(NewModel(Params{}))
	tau := p.Tick.Seconds()
	for i := 0; i < p.ForecastTicks; i++ {
		want := int(p.MaxRate*tau*float64(i+1)*1.25) + 10
		if f.tbl.maxK[i] != want {
			t.Errorf("maxK[%d] = %d, want %d", i, f.tbl.maxK[i], want)
		}
		if i > 0 && f.tbl.maxK[i] <= f.tbl.maxK[i-1] {
			t.Errorf("per-tick bounds must grow: maxK[%d]=%d maxK[%d]=%d",
				i-1, f.tbl.maxK[i-1], i, f.tbl.maxK[i])
		}
	}
	// Spot-check the flattened layout against a direct CDF evaluation:
	// row(tick, k)[j] must be nondecreasing in k for every bin.
	for _, tick := range []int{0, p.ForecastTicks - 1} {
		for j := 0; j < f.tbl.bins; j += 37 {
			prev := -1.0
			for k := 0; k <= f.tbl.maxK[tick]; k++ {
				v := f.tbl.row(tick, k)[j]
				if v < prev {
					t.Fatalf("CDF not monotone at tick %d bin %d count %d", tick, j, k)
				}
				prev = v
			}
			if last := f.tbl.row(tick, f.tbl.maxK[tick])[j]; last < 0.999 {
				t.Errorf("tick %d bin %d: CDF at bound = %v, padding too small", tick, j, last)
			}
		}
	}
}

func TestForecasterClonesConcurrent(t *testing.T) {
	// Hammer clones from multiple goroutines; with -race this proves the
	// shared table and kernel really are read-only.
	base := trainedForecaster(t, 300, 22)
	var wg sync.WaitGroup
	results := make([][]float64, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f := base.Clone()
			for i := 0; i < 50; i++ {
				f.Tick(6, ObsExact)
			}
			results[w] = f.Forecast(nil)
		}(w)
	}
	wg.Wait()
	for w := 1; w < 8; w++ {
		for i := range results[0] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d diverged from worker 0 at tick %d", w, i)
			}
		}
	}
}
