package trace

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// fitLinkModel estimates LinkModel parameters from an observed trace. It is
// the independent estimator these tests hold LinkModel.Generate against: a
// generated trace must give back the mean rate, the σ ordering and the
// outage structure of the model that generated it.
//
// Method of moments on the per-tick delivery counts k_i (tick = 20 ms):
//
//   - mean rate λ̄ from the overall count;
//   - Brownian power σ from the variance of successive rate differences:
//     for counts k_i ~ Poisson(λ_i τ) with λ_{i+1} = λ_i + σ√τ·N(0,1),
//     Var[k_{i+1}−k_i] = 2·E[λ]τ (Poisson part) + σ²τ·τ², so
//     σ² = (Var[Δk] − 2·λ̄τ) / τ³ ;
//   - outages from gaps longer than outageGapThreshold: the entry rate is
//     outages per active second, the escape rate the inverse mean gap.
//
// Robustness over elegance: differences spanning detected outage gaps are
// excluded from the σ estimate, and σ is clamped to a sane band.
func fitLinkModel(t *Trace, name string) LinkModel {
	const (
		tick               = 20 * time.Millisecond
		outageGapThreshold = time.Second
	)
	tau := tick.Seconds()
	m := LinkModel{Name: name, Reversion: 0.3}
	dur := t.Duration()
	if dur <= 0 || t.Count() < 2 {
		return m
	}

	// Outage detection from long gaps.
	var outageTime time.Duration
	outages := 0
	for _, g := range t.Interarrivals() {
		if g >= outageGapThreshold {
			outages++
			outageTime += g
		}
	}
	activeSec := (dur - outageTime).Seconds()
	if activeSec <= 0 {
		activeSec = dur.Seconds()
	}
	m.MeanRate = float64(t.Count()) / activeSec
	if outages > 0 {
		m.OutageRate = float64(outages) / activeSec
		m.OutageEscape = float64(outages) / outageTime.Seconds()
	}

	// Per-tick counts, with outage ticks flagged.
	nTicks := int(dur/tick) + 1
	counts := make([]float64, nTicks)
	for _, op := range t.Opportunities {
		counts[int(op/tick)]++
	}
	inOutage := make([]bool, nTicks)
	prev := t.Opportunities[0]
	for _, op := range t.Opportunities[1:] {
		if op-prev >= outageGapThreshold {
			for i := int(prev / tick); i <= int(op/tick) && i < nTicks; i++ {
				inOutage[i] = true
			}
		}
		prev = op
	}

	// Variance of successive count differences, excluding outage spans.
	var sumD, sumD2 float64
	n := 0
	for i := 1; i < nTicks; i++ {
		if inOutage[i] || inOutage[i-1] {
			continue
		}
		d := counts[i] - counts[i-1]
		sumD += d
		sumD2 += d * d
		n++
	}
	if n > 10 {
		meanD := sumD / float64(n)
		varD := sumD2/float64(n) - meanD*meanD
		num := varD - 2*m.MeanRate*tau
		if num > 0 {
			m.Sigma = math.Sqrt(num / (tau * tau * tau))
		}
	}
	// Clamp σ to a plausible band; an unresolvable fit falls back to the
	// paper's frozen constant scaled by the link's rate class.
	switch {
	case m.Sigma <= 0:
		m.Sigma = math.Max(25, m.MeanRate/2)
	case m.Sigma < 10:
		m.Sigma = 10
	case m.Sigma > 2000:
		m.Sigma = 2000
	}
	m.MaxRate = m.MeanRate * 3
	if m.MaxRate < 50 {
		m.MaxRate = 50
	}
	return m
}

func TestFitRecoverMeanRate(t *testing.T) {
	gen := LinkModel{Name: "g", MeanRate: 200, Sigma: 60, Reversion: 0.4, MaxRate: 600}
	tr := gen.Generate(180*time.Second, rand.New(rand.NewSource(1)))
	fit := fitLinkModel(tr, "fit")
	if fit.MeanRate < 160 || fit.MeanRate > 240 {
		t.Errorf("fitted mean rate = %.0f, want ~200", fit.MeanRate)
	}
}

func TestFitRecoversSigmaOrdering(t *testing.T) {
	// The fit need not recover σ exactly (the generator is mean-reverting
	// and the estimator moment-based), but a calm link must fit a smaller
	// σ than a wild one.
	calm := LinkModel{Name: "calm", MeanRate: 300, Sigma: 30, Reversion: 0.4, MaxRate: 900}
	wild := LinkModel{Name: "wild", MeanRate: 300, Sigma: 400, Reversion: 0.4, MaxRate: 900}
	calmFit := fitLinkModel(calm.Generate(180*time.Second, rand.New(rand.NewSource(2))), "c")
	wildFit := fitLinkModel(wild.Generate(180*time.Second, rand.New(rand.NewSource(3))), "w")
	if calmFit.Sigma >= wildFit.Sigma {
		t.Errorf("calm fit σ=%.0f should be below wild fit σ=%.0f", calmFit.Sigma, wildFit.Sigma)
	}
	if wildFit.Sigma < 100 {
		t.Errorf("wild fit σ=%.0f too small", wildFit.Sigma)
	}
}

func TestFitDetectsOutages(t *testing.T) {
	gen := LinkModel{
		Name: "o", MeanRate: 150, Sigma: 40, Reversion: 0.4, MaxRate: 450,
		OutageRate: 1.0 / 15, OutageEscape: 0.5,
	}
	tr := gen.Generate(300*time.Second, rand.New(rand.NewSource(4)))
	fit := fitLinkModel(tr, "fit")
	if fit.OutageRate == 0 {
		t.Fatal("no outages detected despite 1/15s entry rate")
	}
	// Entry rate within a factor of ~3 (small-sample statistic).
	if fit.OutageRate < gen.OutageRate/3 || fit.OutageRate > gen.OutageRate*3 {
		t.Errorf("fitted outage rate = %.4f, want ~%.4f", fit.OutageRate, gen.OutageRate)
	}
	if fit.OutageEscape <= 0 {
		t.Errorf("fitted escape rate = %v", fit.OutageEscape)
	}
}

func TestFitDegenerateInputs(t *testing.T) {
	if m := fitLinkModel(&Trace{}, "empty"); m.MeanRate != 0 {
		t.Errorf("empty fit = %+v", m)
	}
	one := &Trace{Opportunities: []time.Duration{time.Second}}
	if m := fitLinkModel(one, "one"); m.MeanRate != 0 {
		t.Errorf("single-op fit = %+v", m)
	}
}

func TestFittedModelRegenerates(t *testing.T) {
	// Round trip: generate → fit → regenerate → compare gross statistics.
	gen, _ := CanonicalLink("TMobile-3G-down")
	orig := gen.Generate(180*time.Second, rand.New(rand.NewSource(5)))
	fit := fitLinkModel(orig, "refit")
	regen := fit.Generate(180*time.Second, rand.New(rand.NewSource(6)))
	r1 := orig.MeanRateBps()
	r2 := regen.MeanRateBps()
	if r2 < r1*0.7 || r2 > r1*1.3 {
		t.Errorf("regenerated rate %.0f vs original %.0f", r2/1000, r1/1000)
	}
	s1 := orig.ComputeStats()
	s2 := regen.ComputeStats()
	// Rate variability must be in the same regime (both swing, ratio of
	// p90/p10 within a factor of ~2.5 of each other).
	v1 := (s1.PerSecondP90 + 1) / (s1.PerSecondP10 + 1)
	v2 := (s2.PerSecondP90 + 1) / (s2.PerSecondP10 + 1)
	if v2 > v1*2.5 || v2 < v1/2.5 {
		t.Errorf("variability regime mismatch: original %.1f, regenerated %.1f", v1, v2)
	}
}
