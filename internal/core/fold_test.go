package core

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sprout/internal/memo"
	"sprout/internal/stats"
)

// row returns the folded bins-long slice at (tick, count k).
func (t *forecastTable) row(tick, k int) []float64 {
	r := t.off[tick] + k
	t.fold(r, tick, make([]float64, t.bins))
	return t.flat[r*t.bins : (r+1)*t.bins]
}

// freshTableCache gives the test empty process-wide caches (forecast tables
// and observation rows) and puts the old ones back afterwards, so what it
// asserts about sharing does not depend on which tests filled the 16 slots
// of either before it.
func freshTableCache(t testing.TB) {
	savedTables, savedObs := tables, obsTables
	tables = memo.New[tableKey, *forecastTable](tableCacheLimit)
	obsTables = memo.New[obsKey, *obsTable](tableCacheLimit)
	t.Cleanup(func() { tables, obsTables = savedTables, savedObs })
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

// TestFoldOnFirstUseIsExact: rows are independent and each folds once,
// single-flight, so four goroutines folding every row of a table, each in
// its own shuffled order, must leave the bits the eager whole-table fold
// left. The SHA-256 of flat's float64 bits (little-endian, index order) is
// pinned per parameter set, and holds with the fold's SIMD kernels on and
// off (eachGather); CI runs this under the race detector.
func TestFoldOnFirstUseIsExact(t *testing.T) {
	eachGather(t, func(t *testing.T, digest hash.Hash) {
		for _, c := range []struct {
			p   Params
			sum string
		}{
			{Params{}, "75590faefa279495540bb9647ebbee7f4154e79f88c533ddff14f28b56e513dc"},
			{Params{NumBins: 64, Sigma: 300}, "31f78271ab985ded8f6b1580af415a19e2fffbcefc2f54d6811e11ac6653192b"},
			{Params{MaxRate: 400, OutageEscape: 2}, "3b8b6bb9f92f7eb0245fa2a201cbbfe2745afef7dc4993042584bc8eb793ace4"},
		} {
			tbl := buildForecastTable(NewModel(c.p))
			var rows [][2]int
			for i := range tbl.off {
				for k := 0; k <= tbl.maxK[i]; k++ {
					rows = append(rows, [2]int{i, k})
				}
			}
			var wg sync.WaitGroup
			for g := int64(0); g < 4; g++ {
				order := slices.Clone(rows)
				rand.New(rand.NewSource(g)).Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
				wg.Add(1)
				go func() {
					defer wg.Done()
					tmp := make([]float64, tbl.bins)
					for _, r := range order {
						tbl.fold(tbl.off[r[0]]+r[1], r[0], tmp)
					}
				}()
			}
			wg.Wait()
			h := sha256.New()
			hashFloats(h, tbl.flat)
			sum := h.Sum(nil)
			if got := hex.EncodeToString(sum); got != c.sum {
				t.Errorf("%+v: table sha256 %s, want %s", c.p, got, c.sum)
			}
			digest.Write(sum)
		}
	})
}

// foldRow is a row to fold: each bin zero with probability 1/8, else a
// uniform draw scaled by 10^e, e uniform in [−spread, spread], so one
// column's terms span up to 2·spread decades.
func foldRow(n int, rng *rand.Rand, spread float64) []float64 {
	c := make([]float64, n)
	for j := range c {
		if rng.Intn(8) > 0 {
			c[j] = rng.Float64() * math.Pow(10, spread*(2*rng.Float64()-1))
		}
	}
	return c
}

// checkFold applies adj to c with the fold's SIMD kernels (where this
// machine has them) and with the portable loop, and requires every bin to
// be equal bit for bit, with guard words either side of dst untouched.
func checkFold(t *testing.T, adj *evolveAdjoint, c []float64) {
	t.Helper()
	n := len(c)
	const guard = 8
	sentinel := math.Float64frombits(0x7ff8_dead_beef_0002)
	run := func(simd bool) []float64 {
		if !simd {
			defer portableGather()()
		}
		buf := make([]float64, n+2*guard)
		for i := range buf {
			buf[i] = sentinel
		}
		dst := buf[guard : guard+n : guard+n]
		adj.apply(dst, c)
		for i, v := range buf {
			if (i < guard || i >= guard+n) && math.Float64bits(v) != math.Float64bits(sentinel) {
				t.Fatalf("simd=%v wrote outside dst at offset %d (n=%d)", simd, i-guard, n)
			}
		}
		return dst
	}
	got, want := run(true), run(false)
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("column %d of %d (interior [%d,%d)): simd %x, portable %x", j, n, adj.jA, adj.jB, got[j], want[j])
		}
	}
}

// TestFoldSIMDMatchesPortable is the fold kernels' differential: Eᵀ·c with
// fold8/fold1 and with apply's portable loop, bit for bit, over every model
// of gatherModels and rows whose magnitudes span from none to 40 decades.
func TestFoldSIMDMatchesPortable(t *testing.T) {
	if !gatherSIMD {
		t.Log("no AVX2 on this machine: both sides are the portable loop")
	}
	rng := rand.New(rand.NewSource(44))
	wide := false
	for _, m := range gatherModels() {
		adj := m.evolveAdjoint()
		wide = wide || adj.jB-adj.jA >= foldLanes
		for i := 0; i < 500; i++ {
			checkFold(t, &adj, foldRow(m.NumBins(), rng, float64(i%21)))
		}
	}
	if !wide {
		t.Fatal("no model has an interior run of eight columns: fold8 is untested")
	}
}

// FuzzFoldApply holds the same equality on whatever model, row and spread
// of magnitudes the fuzzer reaches.
func FuzzFoldApply(f *testing.F) {
	models := gatherModels()
	adjs := make([]evolveAdjoint, len(models))
	for i, m := range models {
		adjs[i] = m.evolveAdjoint()
		f.Add(uint8(i), int64(i), uint8(0))
		f.Add(uint8(i), int64(-i), uint8(20))
	}
	f.Fuzz(func(t *testing.T, model uint8, seed int64, spread uint8) {
		i := int(model) % len(models)
		checkFold(t, &adjs[i], foldRow(models[i].NumBins(), rand.New(rand.NewSource(seed)), float64(spread%40)))
	})
}

// TestBuildMatchesPerBin: the build steps every bin's CDF recurrence
// together, count by count; each raw row must hold, bin for bin, the bits
// stats.PoissonCDFTable gives that bin alone — on the default grid, two
// small ones, and a grid (MaxRate 50000) whose top bins' exp(−mean)
// underflows, so they take PoissonCDFTable's normal approximation.
func TestBuildMatchesPerBin(t *testing.T) {
	for _, p := range []Params{
		{},
		{NumBins: 16, MaxRate: 100},
		{NumBins: 40, MaxRate: 2500, ForecastTicks: 3},
		{NumBins: 16, MaxRate: 50000},
	} {
		m := NewModel(p)
		tbl := buildForecastTable(m)
		tau := m.p.Tick.Seconds()
		underflows := 0
		for i := range tbl.off {
			horizon := float64(i+1) * tau
			for j, r := range m.binRate {
				if math.Exp(-r*horizon) == 0 {
					underflows++
				}
				for k, want := range stats.PoissonCDFTable(r*horizon, tbl.maxK[i]) {
					if got := tbl.flat[(tbl.off[i]+k)*tbl.bins+j]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%+v: tick %d bin %d count %d: built %v, per bin %v", p, i, j, k, got, want)
					}
				}
			}
		}
		if p.MaxRate == 50000 && underflows == 0 {
			t.Fatalf("%+v: no bin's exp(−mean) underflows, so the fallback is untested", p)
		}
	}
}

// TestConcurrentFirstForecasts: eight clones of one forecaster make their
// first forecasts at once on an unfolded table, so their probes fold its
// rows concurrently; each clone's integers must equal what a forecaster on
// a table of its own returns for the same history, run serially.
func TestConcurrentFirstForecasts(t *testing.T) {
	freshTableCache(t)
	const clones = 8
	confs := []float64{0.95, 0.75, 0.50, 0.25, 0.05}
	p := Params{NumBins: 160, Sigma: 240}
	history := func(f *DeliveryForecaster, seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		rate := 40 * float64(seed+1)
		var out []float64
		for tick := 0; tick < 60; tick++ {
			f.Tick(float64(poissonSample(rng, rate*f.TickDuration().Seconds())), ObsExact)
			if tick%3 == 0 {
				out = f.ForecastAll(out, confs)
			}
		}
		return out
	}
	base := NewDeliveryForecaster(NewModel(p))
	got := make([][]float64, clones)
	var wg sync.WaitGroup
	for i := range got {
		f := base.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = history(f, int64(i))
		}()
	}
	wg.Wait()
	for i := range got {
		ref := NewDeliveryForecaster(NewModel(p))
		ref.tbl = buildForecastTable(ref.model)
		if want := history(ref, int64(i)); !slices.Equal(got[i], want) {
			t.Fatalf("clone %d: %v, serial %v", i, got[i], want)
		}
	}
}

// TestFoldedRowsMonotoneInCount: ForecastAll's searches need F
// nondecreasing in the count — any probe order then finds the same first
// count above p — so every bin of row (i, k) must be nondecreasing in k
// after the fold as well as before it.
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
	h0, m0, u0 := tables.Counts()
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
	h1, m1, u1 := tables.Counts()
	if m1-m0 != 1 || h1-h0 != users-1 || u1 != u0 {
		t.Errorf("hits +%d misses +%d uncached +%d, want +%d +1 +0", h1-h0, m1-m0, u1-u0, users-1)
	}
}
