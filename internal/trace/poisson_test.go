package trace

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// plainPoisson is poissonDraw as it was before its comparisons were
// certified: inversion against math.Exp(−mean) itself. consulted reports
// whether a product the inversion compared landed inside expBracket's
// bounds, which is when poissonDraw calls math.Exp.
func plainPoisson(rng *rand.Rand, mean float64) (n int, consulted bool) {
	if mean <= 0 {
		return 0, false
	}
	if mean > 30 {
		n := int(mean + math.Sqrt(mean)*rng.NormFloat64() + 0.5)
		if n < 0 {
			n = 0
		}
		return n, false
	}
	lo, hi := expBracket(mean)
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p > lo && p <= hi {
			consulted = true
		}
		if p <= l {
			return k, consulted
		}
		k++
		if k > 1000 {
			return k, consulted
		}
	}
}

// TestExpBracket: the bracket holds math.Exp(−mean) on random means in
// (0, 30], at 30, at tiny means and on both sides of every cell edge
// j·ln2/64, and it is never wider than 1.3e-4 relative.
func TestExpBracket(t *testing.T) {
	means := []float64{30, math.Nextafter(30, 0), 5e-324, 1e-300, 1e-17, 1e-9, 1e-4}
	for j := 1; float64(j)*cellWidth <= 30; j++ {
		e := float64(j) * math.Ln2 / 64
		means = append(means, e, math.Nextafter(e, 0), math.Nextafter(e, 31))
	}
	rng := rand.New(rand.NewSource(1))
	n := 5_000_000
	if testing.Short() {
		n = 500_000
	}
	for i := 0; i < n; i++ {
		means = append(means, 30*(1-rng.Float64()))
	}
	widest := 0.0
	for _, m := range means {
		lo, hi := expBracket(m)
		if e := math.Exp(-m); !(lo <= e && e <= hi) {
			t.Fatalf("mean %v: exp(−mean) = %v outside [%v, %v]", m, e, lo, hi)
		}
		w := hi/lo - 1
		if !(w <= 1.3e-4) {
			t.Fatalf("mean %v: bracket [%v, %v] is %.3g wide", m, lo, hi, w)
		}
		widest = max(widest, w)
	}
	t.Logf("%d means, widest bracket %.3g relative", len(means), widest)
}

// replaySource hands out its Int63 values in order, then zeros: a
// rand.Float64 of v is v/2⁶³, exactly for the v used here.
type replaySource struct {
	vals []int64
	next int
}

func (s *replaySource) Int63() int64 {
	if s.next == len(s.vals) {
		return 0
	}
	s.next++
	return s.vals[s.next-1]
}

func (s *replaySource) Seed(int64) {}

// TestPoissonDrawAtTheBracket puts the inversion's first product on each
// side of both bounds of the bracket and of exp(−mean) itself: inside the
// bracket the draw must be what comparing with math.Exp gives, on either
// side of it. Random streams land above exp(−mean) but inside the bracket
// too rarely to show a draw that trusts the upper bound (the band is
// r³/6 wide there, against r²/2 below).
func TestPoissonDrawAtTheBracket(t *testing.T) {
	for _, mean := range []float64{1e-6, 0.01, 0.37, 1, 2.5, 4.2, 6.5} {
		l := math.Exp(-mean)
		lo, hi := expBracket(mean)
		for _, p := range []float64{lo, math.Nextafter(lo, 1), math.Nextafter(l, 0), l, math.Nextafter(l, 1), hi, math.Nextafter(hi, 1)} {
			v := int64(p * (1 << 63)) // exact: p ≥ 2⁻¹⁰
			if float64(v)/(1<<63) != p {
				t.Fatalf("mean %v: uniform %v is not v/2⁶³", mean, p)
			}
			got := poissonDraw(rand.New(&replaySource{vals: []int64{v}}), mean)
			want, _ := plainPoisson(rand.New(&replaySource{vals: []int64{v}}), mean)
			if got != want {
				t.Errorf("mean %v, first product %v (exp(−mean) %v, bracket [%v, %v]): drew %d, plain inversion %d",
					mean, p, l, lo, hi, got, want)
			}
		}
	}
}

// FuzzPoissonDraw: on any seed and mean (means ≤ 0, above 30 and NaN
// too) the certified draws equal the plain inversion's and consume the
// same uniforms.
func FuzzPoissonDraw(f *testing.F) {
	for i, m := range []float64{0.5, 0, -1, 30, 31, 1e-300, 10.5, 100 * cellWidth, 4.2, math.NaN(), math.Inf(1)} {
		f.Add(int64(i+1), m)
	}
	f.Fuzz(func(t *testing.T, seed int64, mean float64) {
		got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < 32; i++ {
			g := poissonDraw(got, mean)
			if w, _ := plainPoisson(want, mean); g != w {
				t.Fatalf("seed %d mean %v draw %d: %d, plain inversion %d", seed, mean, i, g, w)
			}
		}
		if got.Int63() != want.Int63() {
			t.Fatalf("seed %d mean %v: the draws consumed different uniforms", seed, mean)
		}
	})
}

// TestCertifiedStepsMatchPlainInversion is the fallback gate: every step
// of every canonical link on seeds 1–20 over 600 s draws what the plain
// inversion draws, and math.Exp is consulted on at most 1e-4 of the steps.
func TestCertifiedStepsMatchPlainInversion(t *testing.T) {
	const steps = int(600 * time.Second / modelStep)
	seeds := int64(20)
	if testing.Short() {
		seeds = 2
	}
	var total, consulted int
	for _, m := range CanonicalLinks() {
		sp := m.stepper()
		for seed := int64(1); seed <= seeds; seed++ {
			got, want := rand.New(new(source)), rand.New(new(source))
			got.Seed(seed)
			want.Seed(seed)
			gotSt := modelState{lambda: m.MeanRate}
			wantSt := gotSt
			var gotBuf, wantBuf []float64
			for i := 0; i < steps; i++ {
				gotBuf = sp.stepOnce(&gotSt, got, gotBuf)
				var c bool
				wantBuf, c = plainStep(&sp, &wantSt, want, wantBuf)
				if c {
					consulted++
				}
				if len(gotBuf) != len(wantBuf) {
					t.Fatalf("%s seed %d step %d: %d deliveries, plain inversion %d", m.Name, seed, i, len(gotBuf), len(wantBuf))
				}
				for j := range gotBuf {
					if gotBuf[j] != wantBuf[j] {
						t.Fatalf("%s seed %d step %d: offset %d %v, plain inversion %v", m.Name, seed, i, j, gotBuf[j], wantBuf[j])
					}
				}
			}
			total += steps
		}
	}
	t.Logf("math.Exp consulted on %d of %d steps (%.2g)", consulted, total, float64(consulted)/float64(total))
	if float64(consulted) > 1e-4*float64(total) {
		t.Errorf("math.Exp consulted on %d of %d steps, more than 1e-4 of them", consulted, total)
	}
}

// plainStep is stepOnce with the plain inversion, reporting whether its
// draw landed inside the bracket.
func plainStep(m *stepper, st *modelState, rng *rand.Rand, scratch []float64) ([]float64, bool) {
	dtSec := modelStep.Seconds()
	if st.inOutage {
		if rng.Float64() < m.pEscape {
			st.inOutage = false
			st.lambda = m.MeanRate * (0.1 + 0.4*rng.Float64())
		} else {
			return scratch[:0], false
		}
	} else if m.OutageRate > 0 && rng.Float64() < m.pOutage {
		st.inOutage = true
		return scratch[:0], false
	}
	st.lambda += m.Reversion*(m.MeanRate-st.lambda)*dtSec + m.noise*rng.NormFloat64()
	if st.lambda < 0 {
		st.lambda = 0
	}
	if m.MaxRate > 0 && st.lambda > m.MaxRate {
		st.lambda = m.MaxRate
	}
	n, consulted := plainPoisson(rng, st.lambda*dtSec)
	offsets := scratch[:0]
	for i := 0; i < n; i++ {
		offsets = append(offsets, rng.Float64())
	}
	for i := 1; i < len(offsets); i++ {
		for j := i; j > 0 && offsets[j] < offsets[j-1]; j-- {
			offsets[j], offsets[j-1] = offsets[j-1], offsets[j]
		}
	}
	return offsets, consulted
}
