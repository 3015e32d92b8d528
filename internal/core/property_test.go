package core

import (
	"hash"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveEvolve is a straightforward reference implementation of the
// evolution step, written independently of the optimized evolveWindow:
// build the full transition matrix row by row and multiply.
func naiveEvolve(src, kernel []float64, radius int, outageStay float64) []float64 {
	n := len(src)
	dst := make([]float64, n)
	// Rows j >= 1: truncated Gaussian with edge folding.
	for j := 1; j < n; j++ {
		for d := -radius; d <= radius; d++ {
			k := j + d
			w := src[j] * kernel[d+radius]
			switch {
			case k < 0:
				dst[0] += w
			case k >= n:
				dst[n-1] += w
			default:
				dst[k] += w
			}
		}
	}
	// Row 0: sticky outage.
	stay := src[0] * outageStay
	esc := src[0] * (1 - outageStay)
	dst[0] += stay
	for d := -radius; d <= radius; d++ {
		k := d
		w := esc * kernel[d+radius]
		switch {
		case k <= 0:
			dst[0] += w
		case k >= n:
			dst[n-1] += w
		default:
			dst[k] += w
		}
	}
	return dst
}

func TestEvolveMatchesNaiveReference(t *testing.T) {
	m := NewModel(Params{NumBins: 64, MaxRate: 250})
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random valid distribution.
		src := make([]float64, m.NumBins())
		var sum float64
		for i := range src {
			src[i] = rng.Float64()
			sum += src[i]
		}
		for i := range src {
			src[i] /= sum
		}
		want := naiveEvolve(src, m.kernel, m.radius, m.outageStay)
		got := make([]float64, len(src))
		lo, hi := evolveWindow(got, src, m.kernel, m.kernelPad, m.radius, m.outageStay, 0, len(src))
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				return false
			}
			if (i < lo || i >= hi) && got[i] != 0 {
				return false // support-window invariant violated
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestModelInvariantsUnderRandomOps drives the filter with arbitrary
// operation sequences and checks the distribution invariants hold at every
// step: nonnegative, sums to one, exactly zero outside the support window,
// summary statistics within range — and that a trim drops no more than
// NumBins·trimMass, all of it from bins under trimMass at the edges.
func TestModelInvariantsUnderRandomOps(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(2))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewModel(Params{NumBins: 128})
		for op := 0; op < 300; op++ {
			switch rng.Intn(6) {
			case 0:
				m.Evolve()
			case 1:
				m.Observe(float64(rng.Intn(30)) + rng.Float64())
			case 2:
				m.ObserveAtLeast(rng.Float64() * 10)
			case 3:
				m.Tick(float64(rng.Intn(25)))
			case 4:
				m.tick(float64(rng.Intn(12)), Observation(rng.Intn(3)))
			case 5:
				// Evolve alone does not trim, so the trim can be watched.
				m.Evolve()
				before := m.Distribution(nil)
				m.trim()
				var dropped float64
				for j, p := range before {
					if m.probs[j] == p {
						continue
					}
					if m.probs[j] != 0 || p >= trimMass || (j >= m.lo && j < m.hi) {
						t.Logf("trim rewrote bin %d: %g -> %g, window [%d,%d)", j, p, m.probs[j], m.lo, m.hi)
						return false
					}
					dropped += p
				}
				if dropped > float64(m.NumBins())*trimMass {
					t.Logf("trim dropped %g", dropped)
					return false
				}
				if m.probs[m.lo] < trimMass || m.probs[m.hi-1] < trimMass {
					t.Logf("trim left an edge bin under trimMass")
					return false
				}
			}
			var sum float64
			for j, p := range m.probs {
				if p < 0 || math.IsNaN(p) {
					return false
				}
				if (j < m.lo || j >= m.hi) && p != 0 {
					t.Logf("op %d: bin %d = %g outside window [%d,%d)", op, j, p, m.lo, m.hi)
					return false
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
			if mean := m.Mean(); mean < 0 || mean > m.p.MaxRate {
				return false
			}
			if q := m.Quantile(0.5); q < 0 || q > m.p.MaxRate {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestTrainedWindowNarrowerThanGrid: a filter that has seen traffic scans
// fewer bins than the grid holds (before the trim the window only ever
// tightened on exact zeros and stayed at the full grid), and a tick that
// observes nothing — a skip, or a censored count of zero — widens it by
// what the diffusion carries over trimMass, not by the kernel radius.
func TestTrainedWindowNarrowerThanGrid(t *testing.T) {
	m := NewModel(Params{})
	for i := 0; i < 200; i++ {
		m.Tick(6)
	}
	if w := m.hi - m.lo; w >= m.NumBins() {
		t.Errorf("trained window spans %d of %d bins", w, m.NumBins())
	}
	for _, mode := range []Observation{ObsSkip, ObsAtLeast} {
		m.Reset()
		for i := 0; i < 200; i++ {
			m.Tick(1)
		}
		untrimmed := m.hi
		for i := 0; i < 3; i++ {
			m.tick(0, mode)
			untrimmed += m.radius
		}
		if untrimmed >= m.NumBins() {
			t.Fatalf("mode %d: the untrimmed window would reach the grid edge; train lower", mode)
		}
		if m.hi >= untrimmed {
			t.Errorf("mode %d: three empty ticks widened the window to %d, as far as no trim at all (%d)", mode, m.hi, untrimmed)
		}
	}
}

// TestForecastMonotoneUnderRandomHistories: whatever the observation
// history, the cumulative forecast must be nondecreasing across ticks and
// nonincreasing in confidence.
func TestForecastMonotoneUnderRandomHistories(t *testing.T) {
	m := NewModel(Params{NumBins: 64, MaxRate: 500})
	fc := NewDeliveryForecaster(m)
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(3))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m.Reset()
		for i := 0; i < 100; i++ {
			mode := Observation(rng.Intn(3))
			fc.Tick(rng.Float64()*float64(rng.Intn(12)), mode)
		}
		lo := fc.ForecastAt(nil, 0.95)
		hi := fc.ForecastAt(nil, 0.50)
		prev := -1.0
		for i := range lo {
			if lo[i] < prev {
				return false
			}
			prev = lo[i]
			if lo[i] > hi[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestObserveAtLeastNeverLowersUpperMass(t *testing.T) {
	// The censored update must never shift probability mass downward:
	// the posterior CDF after ObserveAtLeast(k) is stochastically
	// dominated by (i.e. everywhere <= ) the prior CDF.
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(4))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewModel(Params{NumBins: 64})
		// Random starting posterior via a few random observations.
		for i := 0; i < 10; i++ {
			m.Tick(float64(rng.Intn(15)))
		}
		before := m.Distribution(nil)
		m.ObserveAtLeast(rng.Float64() * 12)
		after := m.Distribution(nil)
		cb, ca := 0.0, 0.0
		for i := range before {
			cb += before[i]
			ca += after[i]
			if ca > cb+1e-9 {
				return false // mass moved downward
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// scatterEvolveReference is the pre-gather evolution implementation,
// kept verbatim as a reference: the branchy scatter whose accumulation
// order defined the golden hashes. evolveWindow must reproduce it bit for
// bit — not approximately — for any support window.
func scatterEvolveReference(dst, src, kernel []float64, radius int, outageStay float64, lo, hi int) (int, int) {
	n := len(src)
	for i := range dst {
		dst[i] = 0
	}
	j := lo
	if j < 1 {
		j = 1
	}
	for ; j < hi && j < radius; j++ {
		pj := src[j]
		if pj == 0 {
			continue
		}
		for k := j - radius; k <= j+radius; k++ {
			w := kernel[k-j+radius]
			switch {
			case k < 0:
				dst[0] += pj * w
			case k >= n:
				dst[n-1] += pj * w
			default:
				dst[k] += pj * w
			}
		}
	}
	for ; j < hi && j < n-radius; j++ {
		pj := src[j]
		if pj == 0 {
			continue
		}
		row := dst[j-radius : j-radius+len(kernel)]
		ker := kernel[:len(row)]
		for t := range row {
			row[t] += pj * ker[t]
		}
	}
	for ; j < hi; j++ {
		pj := src[j]
		if pj == 0 {
			continue
		}
		for k := j - radius; k <= j+radius; k++ {
			w := kernel[k-j+radius]
			switch {
			case k < 0:
				dst[0] += pj * w
			case k >= n:
				dst[n-1] += pj * w
			default:
				dst[k] += pj * w
			}
		}
	}
	p0 := src[0]
	if p0 > 0 {
		dst[0] += p0 * outageStay
		esc := p0 * (1 - outageStay)
		for k := -radius; k <= radius; k++ {
			w := kernel[k+radius]
			if k <= 0 {
				dst[0] += esc * w
			} else if k < n {
				dst[k] += esc * w
			} else {
				dst[n-1] += esc * w
			}
		}
	}
	newLo := lo - radius
	if newLo < 1 {
		newLo = 0
	}
	newHi := hi + radius
	if newHi > n {
		newHi = n
	}
	return newLo, newHi
}

// TestEvolveGatherMatchesScatter pins the gather rewrite to the scatter
// reference bit for bit, across bin counts (including n < 2·radius, where
// both edge folds overlap), kernel radii, support windows and sparse
// posteriors. Equality here is ==, not a tolerance: the golden hashes of
// every figure depend on it. It holds for the gather this machine ships
// with and for the portable loop, whose outputs are also equal as bytes.
func TestEvolveGatherMatchesScatter(t *testing.T) {
	eachGather(t, testEvolveGatherMatchesScatter)
}

func testEvolveGatherMatchesScatter(t *testing.T, digest hash.Hash) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}
	models := []*Model{
		NewModel(Params{}),
		NewModel(Params{NumBins: 64, MaxRate: 250}),
		NewModel(Params{NumBins: 33, MaxRate: 100, Sigma: 700}), // radius > n/2
		NewModel(Params{NumBins: 128, Sigma: 23}),
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := models[rng.Intn(len(models))]
		n := m.NumBins()
		src := make([]float64, n)
		// Random support window; fill it with a mix of zero and nonzero
		// mass (interior zeros exercise the scatter's skip guard).
		lo := rng.Intn(n)
		hi := lo + 1 + rng.Intn(n-lo)
		var sum float64
		for j := lo; j < hi; j++ {
			if rng.Intn(3) == 0 {
				continue
			}
			src[j] = rng.Float64()
			sum += src[j]
		}
		if sum > 0 {
			for j := lo; j < hi; j++ {
				src[j] /= sum
			}
		}
		want := make([]float64, n)
		wLo, wHi := scatterEvolveReference(want, src, m.kernel, m.radius, m.outageStay, lo, hi)
		got := make([]float64, n)
		gLo, gHi := evolveWindow(got, src, m.kernel, m.kernelPad, m.radius, m.outageStay, lo, hi)
		if gLo != wLo || gHi != wHi {
			t.Logf("window mismatch: got [%d,%d) want [%d,%d)", gLo, gHi, wLo, wHi)
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				t.Logf("bin %d: got %x want %x (n=%d radius=%d lo=%d hi=%d)",
					i, got[i], want[i], n, m.radius, lo, hi)
				return false
			}
		}
		hashFloats(digest, got)
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
