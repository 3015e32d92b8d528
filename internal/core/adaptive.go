package core

import (
	"math"

	"sprout/internal/stats"
)

// AdaptiveForecaster implements the extension the paper sketches in §3.1
// and §7: "a more sophisticated system would allow σ and λz to vary slowly
// with time to better match more- or less-variable networks". It wraps the
// Bayesian DeliveryForecaster and tunes the Brownian noise power σ online.
//
// The signal is predictive coverage: before each exact observation the
// filter's one-step predictive distribution for the tick's count has mean
// μ = Σ p(λ)·λτ and variance Var[C] = E[λτ] + Var[λτ] (Poisson mixture).
// If observations routinely land further from μ than the predictive
// standard deviation, the model is underestimating how fast the link
// moves — σ should grow; if they hug the mean, σ can shrink and forecasts
// tighten. An EWMA of the squared normalized innovation drives a slow
// multiplicative update, bounded to [MinSigma, MaxSigma].
type AdaptiveForecaster struct {
	*DeliveryForecaster

	// innovation tracking
	z2     *stats.EWMA
	every  int // adapt once per this many exact observations
	count  int
	gain   float64
	minSig float64
	maxSig float64
	sigma0 float64 // construction-time σ, restored by Reset

	adaptations int64
}

// AdaptiveConfig tunes the σ controller. Zero values take defaults.
type AdaptiveConfig struct {
	// Gain is the multiplicative step per adaptation (default 0.05).
	Gain float64
	// Every is the number of exact observations between adaptations
	// (default 25, i.e. every half second of saturated ticks).
	Every int
	// MinSigma and MaxSigma bound σ (defaults 25 and 1600 pkt/s/√s).
	MinSigma, MaxSigma float64
}

func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.Gain == 0 {
		c.Gain = 0.05
	}
	if c.Every == 0 {
		c.Every = 25
	}
	if c.MinSigma == 0 {
		c.MinSigma = 25
	}
	if c.MaxSigma == 0 {
		c.MaxSigma = 1600
	}
	return c
}

// NewAdaptiveForecaster wraps a model with online σ adaptation. Its σ
// moves at run time, so no table folded for one σ fits it: it forecasts by
// the evolve-then-mix lookahead over the unfolded table from the start.
func NewAdaptiveForecaster(m *Model, cfg AdaptiveConfig) *AdaptiveForecaster {
	cfg = cfg.withDefaults()
	f := &DeliveryForecaster{model: m}
	f.unfold()
	return &AdaptiveForecaster{
		DeliveryForecaster: f,
		z2:                 stats.NewEWMA(0.05),
		every:              cfg.Every,
		gain:               cfg.Gain,
		minSig:             cfg.MinSigma,
		maxSig:             cfg.MaxSigma,
		sigma0:             m.Sigma(),
	}
}

// Reset implements Forecaster: beyond the embedded forecaster's reset it
// restores the construction-time σ (rebuilding the kernel if adaptation
// moved it) and clears the innovation statistics.
func (a *AdaptiveForecaster) Reset() {
	if a.Model().Sigma() != a.sigma0 {
		a.Model().SetSigma(a.sigma0)
	}
	a.DeliveryForecaster.Reset()
	a.z2.Reset()
	a.count = 0
	a.adaptations = 0
}

// Sigma returns the current Brownian noise power.
func (a *AdaptiveForecaster) Sigma() float64 { return a.Model().Sigma() }

// Adaptations returns how many σ updates have been applied.
func (a *AdaptiveForecaster) Adaptations() int64 { return a.adaptations }

// Tick overrides the embedded forecaster: exact observations first feed
// the innovation statistic, then the normal Bayesian update runs.
func (a *AdaptiveForecaster) Tick(observed float64, mode Observation) {
	if mode == ObsExact {
		a.observeInnovation(observed)
	}
	a.DeliveryForecaster.Tick(observed, mode)
}

func (a *AdaptiveForecaster) observeInnovation(observed float64) {
	m := a.Model()
	// Predictive distribution for this tick's count after evolution;
	// approximating with the pre-evolution posterior is fine at these
	// gains (evolution shifts the variance by one tick of diffusion).
	tau := m.p.Tick.Seconds()
	var mean, second float64
	for j := m.lo; j < m.hi; j++ { // bins outside the window are exact zeros
		p, lt := m.probs[j], m.binRate[j]*tau
		mean += p * lt
		second += p * lt * lt
	}
	varMix := second - mean*mean // Var[λτ]
	varC := mean + varMix        // Poisson mixture variance
	if varC < 1e-9 {
		varC = 1e-9
	}
	d := observed - mean
	a.z2.Observe(d * d / varC)
	a.count++
	if a.count < a.every {
		return
	}
	a.count = 0
	z2 := a.z2.Value()
	sigma := m.Sigma()
	switch {
	case z2 > 1.3:
		sigma *= 1 + a.gain
	case z2 < 0.8:
		sigma *= 1 - a.gain
	default:
		return
	}
	sigma = math.Min(math.Max(sigma, a.minSig), a.maxSig)
	if sigma != m.Sigma() {
		m.SetSigma(sigma)
		a.adaptations++
	}
}
