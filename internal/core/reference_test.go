package core

import (
	"hash"
	"math"
	"math/rand"
	"testing"

	"sprout/internal/stats"
)

// referenceFilter is the deliberately naive oracle for the inference tick
// (ROADMAP fidelity c): the full grid every pass, naiveEvolve's transition
// matrix, the log-domain Poisson likelihood with its lgamma, max-subtract
// and exp per bin, one stats.PoissonCDF per bin for the censored update —
// no support window, no observation rows, no trim. It shares only the
// kernel and the grid with the Model it checks.
type referenceFilter struct {
	m       *Model // source of kernel, radius, outageStay, binRate
	probs   []float64
	rateTau []float64
}

func newReferenceFilter(m *Model) *referenceFilter {
	n := m.NumBins()
	r := &referenceFilter{m: m, probs: make([]float64, n), rateTau: make([]float64, n)}
	for j := range r.probs {
		r.probs[j] = 1 / float64(n)
		r.rateTau[j] = math.Max(m.binRate[j], likelihoodRateFloor) * m.p.Tick.Seconds()
	}
	return r
}

func (r *referenceFilter) reset() {
	for j := range r.probs {
		r.probs[j] = 1 / float64(len(r.probs))
	}
}

func (r *referenceFilter) normalize() {
	var sum float64
	for _, p := range r.probs {
		sum += p
	}
	if sum == 0 {
		r.reset()
		return
	}
	for j := range r.probs {
		r.probs[j] /= sum
	}
}

func (r *referenceFilter) tick(packets float64, mode Observation) {
	r.probs = naiveEvolve(r.probs, r.m.kernel, r.m.radius, r.m.outageStay)
	switch mode {
	case ObsExact:
		if packets < 0 {
			packets = 0
		}
		lg, _ := math.Lgamma(packets + 1)
		logw := make([]float64, len(r.probs))
		maxLog := math.Inf(-1)
		for j, p := range r.probs {
			logw[j] = math.Log(p) + packets*math.Log(r.rateTau[j]) - r.rateTau[j] - lg
			maxLog = math.Max(maxLog, logw[j])
		}
		if math.IsInf(maxLog, -1) {
			r.reset()
			return
		}
		for j := range r.probs {
			r.probs[j] = math.Exp(logw[j] - maxLog)
		}
		r.normalize()
	case ObsAtLeast:
		if packets <= 0 {
			return
		}
		k := int(math.Ceil(packets)) - 1
		for j := range r.probs {
			r.probs[j] *= 1 - stats.PoissonCDF(r.rateTau[j], k)
		}
		r.normalize()
	}
}

// referenceHistory is the link the model assumes, watched the way the
// receiver watches it: the rate (packets per tick) moves in Brownian motion
// at the model's own σ between a sticky outage at 0 and four times the
// grid's top — a link faster than the grid pins the posterior to the top
// bin and delivers counts past the observation table's last row — and each
// tick's Poisson count arrives whole or with a partial MTU, in any of the
// three modes.
type referenceHistory struct {
	rng  *rand.Rand
	p    Params
	rate float64
}

// newReferenceHistory starts the link at the given fraction of its range.
func newReferenceHistory(seed int64, p Params, start float64) *referenceHistory {
	return &referenceHistory{rng: rand.New(rand.NewSource(seed)), p: p, rate: start * 4 * p.MaxRate * p.Tick.Seconds()}
}

func (h *referenceHistory) next() (float64, Observation) {
	tau := h.p.Tick.Seconds()
	if h.rate > 0 || h.rng.Float64() < 0.1 { // an outage ends one tick in ten
		step := h.rng.NormFloat64() * h.p.Sigma * math.Sqrt(tau) * tau
		h.rate = math.Min(4*h.p.MaxRate*tau, math.Max(0, h.rate+step))
	}
	count := float64(poissonSample(h.rng, h.rate))
	if h.rng.Intn(3) == 0 {
		count += h.rng.Float64()
	}
	return count, Observation(h.rng.Intn(3))
}

// agreement compares the optimized filter with the oracle after a tick:
// the largest per-bin difference, and how many forecast slots differ at the
// five Fig. 9 confidences. The oracle's posterior is forecast through refF,
// a forecaster whose model's window is the whole grid.
func agreement(f, refF *DeliveryForecaster, ref *referenceFilter) (worst float64, slots int) {
	confidences := []float64{0.95, 0.75, 0.50, 0.25, 0.05}
	for j, pj := range f.model.probs {
		worst = math.Max(worst, math.Abs(pj-ref.probs[j]))
	}
	copy(refF.model.probs, ref.probs)
	got, want := f.ForecastAll(nil, confidences), refF.ForecastAll(nil, confidences)
	for i := range got {
		if got[i] != want[i] {
			slots++
		}
	}
	return worst, slots
}

// TestTickMatchesNaiveReference is the differential test the observation
// rows and the window trim answer to: on links that move the way the model
// assumes, the optimized tick stays within rounding of the oracle in every
// bin, stays normalized, and yields the same forecast integers at the five
// Fig. 9 confidences, tick after tick — with the gather this machine ships
// with and with the portable loop, every posterior of the two runs equal
// as bytes.
func TestTickMatchesNaiveReference(t *testing.T) {
	eachGather(t, testTickMatchesNaiveReference)
}

func testTickMatchesNaiveReference(t *testing.T, digest hash.Hash) {
	for _, c := range []struct {
		name string
		p    Params
	}{
		{"defaults", Params{}},
		{"64 bins", Params{NumBins: 64, MaxRate: 250}},
		{"sigma 50", Params{Sigma: 50}},
	} {
		name, p := c.name, c.p
		var seen struct {
			modes                                   [3]int
			fractional, zero, pastLastRow, narrowed int
		}
		const seeds = 6 // seed s starts at (s−1)/5 of the range: from an outage to four times the grid
		for seed := int64(1); seed <= seeds; seed++ {
			f := NewDeliveryForecaster(NewModel(p))
			refF := NewDeliveryForecaster(NewModel(p))
			m := f.Model()
			ref := newReferenceFilter(m)
			h := newReferenceHistory(seed, m.p, float64(seed-1)/(seeds-1))
			for step := 0; step < 600; step++ {
				count, mode := h.next()
				f.Tick(count, mode)
				ref.tick(count, mode)
				worst, slots := agreement(f, refF, ref)
				if worst > 1e-12 || slots != 0 {
					t.Fatalf("%s seed %d step %d (count %v, mode %d): posterior off by %g, %d forecast slots differ",
						name, seed, step, count, mode, worst, slots)
				}
				if s := sum(m.probs); math.Abs(s-1) > 1e-12 {
					t.Fatalf("%s seed %d step %d: posterior sums to 1%+g", name, seed, step, s-1)
				}
				hashFloats(digest, m.probs)
				seen.modes[mode]++
				switch {
				case count == 0:
					seen.zero++
				case count != math.Floor(count):
					seen.fractional++
				case count >= float64(len(m.obs.rows[ObsExact])):
					seen.pastLastRow++
				}
				if m.hi-m.lo < m.NumBins() {
					seen.narrowed++
				}
			}
		}
		if seen.modes[ObsExact]*seen.modes[ObsAtLeast]*seen.modes[ObsSkip]*seen.fractional*seen.zero*seen.pastLastRow*seen.narrowed == 0 {
			t.Errorf("%s: the histories missed a case they are meant to cover: %+v", name, seen)
		}
	}
}

// TestTrimUnderAbruptJumps measures the one place the trim is more than
// rounding (DESIGN §6.3): a link that jumps further than the model allows,
// so that the oracle's answer rests on tails under 2⁻⁸⁰ amplified over
// several ticks of observations the kept mass calls near-impossible. The
// trimmed filter then follows the jump at a kernel radius per tick instead:
// its mean stays within half a percent of the grid of the oracle's, under
// one forecast slot in a hundred differs, and two seconds later the two
// agree again as if nothing had been dropped.
func TestTrimUnderAbruptJumps(t *testing.T) {
	for _, jump := range []struct {
		name         string
		before, then float64
	}{
		{"saturated link into an outage", 30, 0},
		{"long outage into a full-rate link", 0, 20},
	} {
		f := NewDeliveryForecaster(NewModel(Params{}))
		refF := NewDeliveryForecaster(NewModel(Params{}))
		m := f.Model()
		ref := newReferenceFilter(m)
		for i := 0; i < 200; i++ {
			f.Tick(jump.before, ObsExact)
			ref.tick(jump.before, ObsExact)
		}
		if worst, slots := agreement(f, refF, ref); worst > 1e-12 || slots != 0 {
			t.Fatalf("%s: off by %g before the jump", jump.name, worst)
		}
		const ticks = 100
		var peak, last float64
		var differing int
		for step := 0; step < ticks; step++ {
			f.Tick(jump.then, ObsExact)
			ref.tick(jump.then, ObsExact)
			worst, slots := agreement(f, refF, ref)
			peak, last = math.Max(peak, worst), worst
			differing += slots
			var refMean float64
			for j, p := range ref.probs {
				refMean += p * m.binRate[j]
			}
			if d := math.Abs(m.Mean() - refMean); d > 0.005*m.p.MaxRate {
				t.Errorf("%s: tick %d after the jump the mean is %.1f pkt/s, oracle %.1f", jump.name, step, m.Mean(), refMean)
			}
		}
		if total := ticks * 5 * m.p.ForecastTicks; differing*100 > total {
			t.Errorf("%s: %d of %d forecast slots differ from the oracle's", jump.name, differing, total)
		}
		if last > 1e-9 {
			t.Errorf("%s: still off by %g two seconds after the jump", jump.name, last)
		}
		t.Logf("%s: largest per-bin difference %.3g, %d forecast slots differ, %.3g after %d ticks", jump.name, peak, differing, last, ticks)
	}
}
