package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"sprout/internal/stats"
)

func almostOne(s float64) bool { return math.Abs(s-1) < 1e-9 }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func TestModelDefaults(t *testing.T) {
	m := NewModel(Params{})
	p := m.Params()
	if p.NumBins != 256 || p.MaxRate != 1000 || p.Tick != 20*time.Millisecond ||
		p.Sigma != 200 || p.OutageEscape != 1 || p.Confidence != 0.95 || p.ForecastTicks != 8 {
		t.Errorf("defaults = %+v", p)
	}
	if m.BinRate(0) != 0 {
		t.Errorf("bin 0 rate = %v, want 0", m.BinRate(0))
	}
	if m.BinRate(255) != 1000 {
		t.Errorf("top bin rate = %v, want 1000", m.BinRate(255))
	}
}

func TestModelUniformPrior(t *testing.T) {
	m := NewModel(Params{})
	d := m.Distribution(nil)
	if !almostOne(sum(d)) {
		t.Errorf("prior sums to %v", sum(d))
	}
	for j, p := range d {
		if math.Abs(p-1.0/256) > 1e-12 {
			t.Fatalf("prior[%d] = %v, want uniform", j, p)
		}
	}
	if got := m.Mean(); math.Abs(got-500) > 2 {
		t.Errorf("uniform-prior mean = %v, want ~500", got)
	}
}

func TestEvolvePreservesProbability(t *testing.T) {
	m := NewModel(Params{})
	for i := 0; i < 100; i++ {
		m.Evolve()
		if s := sum(m.Distribution(nil)); !almostOne(s) {
			t.Fatalf("tick %d: distribution sums to %v", i, s)
		}
	}
}

func TestObservePreservesProbability(t *testing.T) {
	m := NewModel(Params{})
	for _, k := range []float64{0, 1, 5.5, 20} {
		m.Observe(k)
		if s := sum(m.Distribution(nil)); !almostOne(s) {
			t.Fatalf("after observing %v: sums to %v", k, s)
		}
	}
}

func TestModelConvergesToTrueRate(t *testing.T) {
	// Feed observations from a steady Poisson link at 300 pkt/s; the
	// posterior mean must converge near 300.
	m := NewModel(Params{})
	rng := rand.New(rand.NewSource(1))
	tau := m.Params().Tick.Seconds()
	truth := 300.0
	for i := 0; i < 500; i++ {
		k := poissonSample(rng, truth*tau)
		m.Tick(float64(k))
	}
	if got := m.Mean(); math.Abs(got-truth) > 60 {
		t.Errorf("posterior mean = %v, want ~%v", got, truth)
	}
}

func TestModelTracksRateChange(t *testing.T) {
	m := NewModel(Params{})
	rng := rand.New(rand.NewSource(2))
	tau := m.Params().Tick.Seconds()
	for i := 0; i < 300; i++ {
		m.Tick(float64(poissonSample(rng, 500*tau)))
	}
	if m.Mean() < 350 {
		t.Fatalf("did not learn high rate: mean=%v", m.Mean())
	}
	// Rate collapses to 50 pkt/s; within 1 second (50 ticks) the
	// posterior must follow.
	for i := 0; i < 50; i++ {
		m.Tick(float64(poissonSample(rng, 50*tau)))
	}
	if got := m.Mean(); got > 150 {
		t.Errorf("posterior mean after collapse = %v, want < 150", got)
	}
}

func TestModelDetectsOutage(t *testing.T) {
	m := NewModel(Params{})
	rng := rand.New(rand.NewSource(3))
	tau := m.Params().Tick.Seconds()
	for i := 0; i < 200; i++ {
		m.Tick(float64(poissonSample(rng, 200*tau)))
	}
	if m.OutageProbability() > 0.01 {
		t.Fatalf("outage probability = %v while link active", m.OutageProbability())
	}
	// 2 seconds of zero deliveries: outage becomes likely.
	for i := 0; i < 100; i++ {
		m.Tick(0)
	}
	if got := m.OutageProbability(); got < 0.2 {
		t.Errorf("outage probability after 2s silence = %v, want > 0.2", got)
	}
	if got := m.Mean(); got > 50 {
		t.Errorf("mean after 2s silence = %v, want small", got)
	}
}

func TestOutageStickiness(t *testing.T) {
	// Once in the outage state with no observations, evolution should
	// keep substantial mass at zero (sticky outages, §3.1) compared with
	// a non-outage concentration.
	m := NewModel(Params{})
	for i := 0; i < 200; i++ {
		m.Tick(0)
	}
	p0 := m.OutageProbability()
	m.Evolve()
	m.Evolve()
	if got := m.OutageProbability(); got < p0*0.5 {
		t.Errorf("outage mass decayed too fast under evolution: %v -> %v", p0, got)
	}
}

func TestEvolveSpreadsDistribution(t *testing.T) {
	// Concentrate the posterior, then evolve: variance must grow.
	m := NewModel(Params{})
	rng := rand.New(rand.NewSource(4))
	tau := m.Params().Tick.Seconds()
	for i := 0; i < 300; i++ {
		m.Tick(float64(poissonSample(rng, 400*tau)))
	}
	v1 := posteriorStd(m)
	for i := 0; i < 25; i++ { // half a second without observations
		m.Evolve()
	}
	v2 := posteriorStd(m)
	if v2 <= v1 {
		t.Errorf("posterior std did not grow under evolution: %v -> %v", v1, v2)
	}
}

func TestObserveSkipsVsApplies(t *testing.T) {
	// Observing zero must push the posterior down; merely evolving must
	// not.
	mObs := NewModel(Params{})
	mEvo := NewModel(Params{})
	rng := rand.New(rand.NewSource(5))
	tau := 0.02
	for i := 0; i < 300; i++ {
		k := float64(poissonSample(rng, 400*tau))
		mObs.Tick(k)
		mEvo.Tick(k)
	}
	for i := 0; i < 25; i++ {
		mObs.Tick(0)  // observes silence
		mEvo.Evolve() // skips observation (sender idle)
	}
	if mObs.Mean() >= mEvo.Mean() {
		t.Errorf("observed-silence mean %v should be below evolve-only mean %v",
			mObs.Mean(), mEvo.Mean())
	}
	if mEvo.Mean() < 200 {
		t.Errorf("evolve-only mean fell too far: %v", mEvo.Mean())
	}
}

func TestQuantileMonotone(t *testing.T) {
	m := NewModel(Params{})
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		m.Tick(float64(poissonSample(rng, 300*0.02)))
	}
	q05 := m.Quantile(0.05)
	q50 := m.Quantile(0.50)
	q95 := m.Quantile(0.95)
	if !(q05 <= q50 && q50 <= q95) {
		t.Errorf("quantiles not monotone: %v %v %v", q05, q50, q95)
	}
}

func TestModelRecoversFromImpossibleObservation(t *testing.T) {
	m := NewModel(Params{})
	// Drive posterior numerically to a corner, then hit it with an
	// absurd observation; the model must stay a valid distribution.
	for i := 0; i < 500; i++ {
		m.Tick(0)
	}
	m.Observe(1e6)
	if s := sum(m.Distribution(nil)); !almostOne(s) {
		t.Errorf("distribution sums to %v after absurd observation", s)
	}
}

// TestObservationRows pins what the shared rows hold: survival row k is,
// bit for bit, the per-bin 1 − PoissonCDF loop the censored update used to
// run, and likelihood row k is the Poisson likelihood of k scaled so its
// largest entry is exactly 1.
func TestObservationRows(t *testing.T) {
	freshTableCache(t)
	m := NewModel(Params{})
	last := len(m.obs.rows[ObsExact]) - 1
	for _, k := range []int{0, 1, 7, 20, last} {
		surv := m.row(ObsAtLeast, float64(k))
		like := m.row(ObsExact, float64(k))
		lg, _ := math.Lgamma(float64(k) + 1)
		pmf := make([]float64, len(like))
		var peak, scale float64
		for j, rt := range m.obs.rateTau {
			if want := 1 - stats.PoissonCDF(rt, k); surv[j] != want {
				t.Fatalf("survival row %d bin %d = %x, want %x", k, j, surv[j], want)
			}
			pmf[j] = math.Exp(float64(k)*math.Log(rt) - rt - lg)
			scale = math.Max(scale, pmf[j])
			peak = math.Max(peak, like[j])
		}
		if peak != 1 {
			t.Errorf("likelihood row %d peaks at %v, want exactly 1", k, peak)
		}
		for j := range like {
			if math.Abs(like[j]-pmf[j]/scale) > 1e-13 {
				t.Fatalf("likelihood row %d bin %d = %g, want %g", k, j, like[j], pmf[j]/scale)
			}
		}
	}
	// Rows are the table's, not the model's: a second model of the grid
	// reads the same memory, whatever its σ.
	other := NewModel(Params{Sigma: 50, OutageEscape: 3})
	if &other.row(ObsExact, 7)[0] != &m.row(ObsExact, 7)[0] {
		t.Error("models of one grid should share observation rows")
	}
	if NewModel(Params{MaxRate: 500}).obs == m.obs || NewModel(Params{NumBins: 64}).obs == m.obs {
		t.Error("different grids must not share observation rows")
	}
	// A fractional count and one past the last row fill the model's own
	// scratch instead, by the same function.
	for _, k := range []float64{2.5, float64(last + 1)} {
		if row := m.row(ObsExact, k); &row[0] != &m.scratch[0] {
			t.Errorf("count %v should use the model's scratch row", k)
		}
	}
	// Nothing is built until it is used.
	cold := NewModel(Params{MaxRate: 900})
	for mode := range cold.obs.rows {
		for k := range cold.obs.rows[mode] {
			if cold.obs.rows[mode][k].w != nil {
				t.Fatalf("row (%d, %d) of an unused grid is already built", mode, k)
			}
		}
	}
}

func TestModelFractionalObservation(t *testing.T) {
	m := NewModel(Params{})
	m.Tick(2.5) // 3750 bytes in one tick
	if s := sum(m.Distribution(nil)); !almostOne(s) {
		t.Errorf("fractional observation broke normalization: %v", s)
	}
}

func TestModelCustomBins(t *testing.T) {
	m := NewModel(Params{NumBins: 64, MaxRate: 500})
	if m.NumBins() != 64 {
		t.Errorf("NumBins = %d", m.NumBins())
	}
	if m.BinRate(63) != 500 {
		t.Errorf("top rate = %v", m.BinRate(63))
	}
	m.Tick(5)
	if s := sum(m.Distribution(nil)); !almostOne(s) {
		t.Errorf("sum = %v", s)
	}
}

func posteriorStd(m *Model) float64 {
	mean := m.Mean()
	var v float64
	d := m.Distribution(nil)
	for j, p := range d {
		dr := m.BinRate(j) - mean
		v += p * dr * dr
	}
	return math.Sqrt(v)
}

func poissonSample(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

func BenchmarkModelTick(b *testing.B) {
	m := NewModel(Params{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Tick(8)
	}
}

func BenchmarkModelEvolve(b *testing.B) {
	m := NewModel(Params{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Evolve()
	}
}
