package core

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"sprout/internal/stats"
)

// freshTableCache gives the test empty process-wide caches (forecast tables
// and observation rows) and puts the old ones back afterwards, so what it
// asserts about sharing does not depend on which tests filled the 16 slots
// of either before it.
func freshTableCache(t *testing.T) {
	tableMu.Lock()
	saved := tableCache
	tableCache = map[tableKey]*tableEntry{}
	tableMu.Unlock()
	obsMu.Lock()
	savedObs := obsTables
	obsTables = map[obsKey]*obsTable{}
	obsMu.Unlock()
	t.Cleanup(func() {
		tableMu.Lock()
		tableCache = saved
		tableMu.Unlock()
		obsMu.Lock()
		obsTables = savedObs
		obsMu.Unlock()
	})
}

// evolveForecaster is the reference the folded path is compared against:
// the lookahead as the paper states it. It evolves a copy of the model's
// posterior tick by tick (evolveWindow) and, at each tick, mixes it against
// the raw Poisson CDFs, scanning counts upward from zero.
type evolveForecaster struct {
	m    *Model
	maxK []int
	// cdf[i][j][k] = P(C <= k | λ = bin j for (i+1)·τ).
	cdf [][][]float64
	// w[lo:hi] is the posterior evolved to the tick last mixed.
	w      []float64
	lo, hi int
}

func newEvolveForecaster(m *Model, maxK []int) *evolveForecaster {
	r := &evolveForecaster{m: m, maxK: maxK, cdf: make([][][]float64, len(maxK))}
	tau := m.p.Tick.Seconds()
	for i := range r.cdf {
		r.cdf[i] = make([][]float64, m.NumBins())
		for j, rate := range m.binRate {
			r.cdf[i][j] = stats.PoissonCDFTable(rate*float64(i+1)*tau, maxK[i])
		}
	}
	return r
}

// mixtureCDF is F_tick(k) under w, terms in ascending bin order from +0.
func (r *evolveForecaster) mixtureCDF(tick, k int) float64 {
	var s float64
	for j := r.lo; j < r.hi; j++ {
		s += r.w[j] * r.cdf[tick][j][k]
	}
	return s
}

// ForecastAll is DeliveryForecaster.ForecastAll's contract: per
// confidence and tick, the first count at or after the previous tick's
// answer whose mixture CDF exceeds 1−confidence (the tick's count bound if
// none does).
func (r *evolveForecaster) ForecastAll(confidences []float64) []float64 {
	m, ticks := r.m, r.m.p.ForecastTicks
	out := make([]float64, len(confidences)*ticks)
	cur, next := append([]float64(nil), m.probs...), make([]float64, m.NumBins())
	r.lo, r.hi = m.lo, m.hi
	for i := 0; i < ticks; i++ {
		r.lo, r.hi = evolveWindow(next, cur, m.kernel, m.kernelPad, m.radius, m.outageStay, r.lo, r.hi)
		cur, next = next, cur
		r.w = cur
		for ci, conf := range confidences {
			q := 0
			if i > 0 {
				q = int(out[ci*ticks+i-1])
			}
			for q < r.maxK[i] && r.mixtureCDF(i, q) <= clampP(conf) {
				q++
			}
			out[ci*ticks+i] = float64(q)
		}
	}
	return out
}

// TestEvolveAdjointIdentity: ⟨Eᵀc, p⟩ = ⟨c, E p⟩ up to rounding, where E p
// is what evolveWindow computes — with mass at bin 0 (sticky outage), at
// the top bin and within one radius of both edges (the folds), on a grid
// wider than the kernel and on one narrower than it.
func TestEvolveAdjointIdentity(t *testing.T) {
	for _, p := range []Params{{}, {NumBins: 24, Sigma: 400, OutageEscape: 5}} {
		m := NewModel(p)
		n, r := m.NumBins(), m.radius
		adj := m.evolveAdjoint()
		rng := rand.New(rand.NewSource(7))
		clamp := func(j int) int { return max(0, min(n-1, j)) }
		shapes := []struct {
			name   string
			lo, hi int // random mass on [lo, hi]
		}{
			{"everywhere", 0, n - 1},
			{"bin 0 only", 0, 0},
			{"top bin only", n - 1, n - 1},
			{"near the bottom edge", 0, clamp(r)},
			{"near the top edge", clamp(n - 1 - r), n - 1},
		}
		for _, shape := range shapes {
			name := shape.name
			for trial := 0; trial < 20; trial++ {
				src, c := make([]float64, n), make([]float64, n)
				for j := shape.lo; j <= shape.hi; j++ {
					src[j] = rng.Float64()
				}
				for j := range c {
					c[j] = rng.Float64()
				}
				ep, etc := make([]float64, n), make([]float64, n)
				evolveWindow(ep, src, m.kernel, m.kernelPad, m.radius, m.outageStay, 0, n)
				adj.apply(etc, c)
				var lhs, rhs float64
				for j := range src {
					lhs += etc[j] * src[j]
					rhs += c[j] * ep[j]
				}
				if math.Abs(lhs-rhs) > 1e-12*math.Max(1, math.Abs(rhs)) {
					t.Fatalf("bins %d, %s: <E'c,p> = %v, <c,Ep> = %v", n, name, lhs, rhs)
				}
			}
		}
	}
}

// TestFoldedForecastMatchesEvolvePath is the differential test behind the
// fold: over random observation histories the folded ForecastAll and the
// evolve-path reference, reading one posterior, must return the same
// integers at the five Fig. 9 confidences, and the mixture values they
// compare against p must agree to rounding.
func TestFoldedForecastMatchesEvolvePath(t *testing.T) {
	freshTableCache(t)
	confs := []float64{0.95, 0.75, 0.50, 0.25, 0.05}
	for pi, p := range []Params{
		{},
		{NumBins: 96, ForecastTicks: 5, Sigma: 120},
		{NumBins: 48, MaxRate: 400, ForecastTicks: 11, Sigma: 350, OutageEscape: 4},
	} {
		for seed := int64(0); seed < 6; seed++ {
			m := NewModel(p)
			fold := NewDeliveryForecaster(m)
			ref := newEvolveForecaster(m, fold.tbl.maxK)
			rng := rand.New(rand.NewSource(100*int64(pi) + seed))
			tau, top := m.p.Tick.Seconds(), m.p.MaxRate
			cur, next := make([]float64, m.NumBins()), make([]float64, m.NumBins())
			for tick := 0; tick < 400; {
				// One segment: a rate (outage runs included) and a mix
				// of observation modes.
				rate := []float64{0, 0, 6, 0.05 * top, 0.3 * top, 0.9 * top}[rng.Intn(6)]
				exact, atLeast := rng.Float64(), rng.Float64()
				for n := 3 + rng.Intn(50); n > 0; n, tick = n-1, tick+1 {
					mode := ObsSkip
					switch u := rng.Float64(); {
					case u < exact:
						mode = ObsExact
					case u < exact+atLeast*(1-exact):
						mode = ObsAtLeast
					}
					fold.Tick(float64(poissonSample(rng, rate*tau)), mode)
					if rng.Intn(4) != 0 {
						continue
					}
					got := fold.ForecastAll(nil, confs)
					want := ref.ForecastAll(confs)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("params %d seed %d tick %d slot %d: folded %v, evolve path %v",
								pi, seed, tick, i, got[i], want[i])
						}
					}
					// F itself, at the counts around each answer.
					copy(cur, m.probs)
					lo, hi := m.lo, m.hi
					for i := 0; i < m.p.ForecastTicks; i++ {
						lo, hi = evolveWindow(next, cur, m.kernel, m.kernelPad, m.radius, m.outageStay, lo, hi)
						cur, next = next, cur
						ref.w, ref.lo, ref.hi = cur, lo, hi
						fold.w, fold.lo, fold.hi = m.probs, m.lo, m.hi
						for ci := range confs {
							q := int(want[ci*m.p.ForecastTicks+i])
							for k := max(0, q-1); k <= min(q+1, fold.tbl.maxK[i]); k++ {
								a, b := fold.mixtureCDF(i, k), ref.mixtureCDF(i, k)
								if math.Abs(a-b) > 1e-12 {
									t.Fatalf("params %d seed %d tick %d: F_%d(%d) folded %v, evolve path %v",
										pi, seed, tick, i, k, a, b)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestFoldIndependentOfWorkerCount: rows are folded independently, so the
// table's bits must not depend on GOMAXPROCS.
func TestFoldIndependentOfWorkerCount(t *testing.T) {
	m := NewModel(Params{})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one := buildForecastTable(m)
	runtime.GOMAXPROCS(4)
	four := buildForecastTable(m)
	if len(one.flat) != len(four.flat) {
		t.Fatalf("table sizes differ: %d vs %d", len(one.flat), len(four.flat))
	}
	for i := range one.flat {
		if math.Float64bits(one.flat[i]) != math.Float64bits(four.flat[i]) {
			t.Fatalf("entry %d: %v on 1 worker, %v on 4", i, one.flat[i], four.flat[i])
		}
	}
}

// TestFoldedRowsMonotoneInCount: the search-order argument in
// mixtureQuantileFrom needs every bin of row (i, k) to be nondecreasing in
// k after the fold as well as before it.
func TestFoldedRowsMonotoneInCount(t *testing.T) {
	tbl := buildForecastTable(NewModel(Params{NumBins: 64, Sigma: 300}))
	for i := range tbl.off {
		for k := 1; k <= tbl.maxK[i]; k++ {
			prev, row := tbl.row(i, k-1), tbl.row(i, k)
			for j := range row {
				if row[j] < prev[j] {
					t.Fatalf("tick %d bin %d: row %d = %v < row %d = %v", i, j, k, row[j], k-1, prev[j])
				}
			}
		}
	}
}

// TestTableBuildSingleFlight: concurrent first users of a key share one
// build — one miss, the rest hits on the same table.
func TestTableBuildSingleFlight(t *testing.T) {
	freshTableCache(t)
	const users = 8
	h0, m0, u0 := TableCacheStats()
	tbls := make([]*forecastTable, users)
	var wg sync.WaitGroup
	for i := range tbls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tbls[i] = NewDeliveryForecaster(NewModel(Params{NumBins: 40})).tbl
		}()
	}
	wg.Wait()
	for i, tbl := range tbls {
		if tbl == nil || tbl != tbls[0] {
			t.Fatalf("user %d got table %p, user 0 got %p", i, tbl, tbls[0])
		}
	}
	h1, m1, u1 := TableCacheStats()
	if m1-m0 != 1 || h1-h0 != users-1 || u1 != u0 {
		t.Errorf("hits +%d misses +%d uncached +%d, want +%d +1 +0", h1-h0, m1-m0, u1-u0, users-1)
	}
}
