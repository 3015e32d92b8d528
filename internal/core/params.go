// Package core implements Sprout's stochastic link model and packet-delivery
// forecaster — the primary contribution of the paper (§3).
//
// The receiver models the link as a doubly-stochastic process: packet
// deliveries are Poisson with rate λ, and λ itself wanders in Brownian
// motion with noise power σ, with a sticky outage state at λ = 0 escaped at
// rate λz. λ is discretized into 256 bins sampled uniformly on
// [0, 1000] MTU-packets/s. Every 20 ms "tick" the model:
//
//  1. evolves the probability distribution on λ by the Brownian transition
//     kernel (with the outage-stickiness bias at λ = 0),
//  2. multiplies in the Poisson likelihood of the observed packet count, and
//  3. renormalizes,
//
// which is exact Bayesian filtering on the discretized state space. The
// forecaster then reports, for each of the next 8 ticks, a cautious
// (default 5th-percentile) lower bound on the cumulative number of packets
// the link will deliver under the distribution evolved that far forward
// without observations (§3.3) — an evolution precomputed into the forecast
// table, so the runtime work is a weighted sum over each λ.
package core

import "time"

// Default model constants, frozen in the paper's implementation before the
// trace collection (§3.1, §5).
const (
	DefaultNumBins       = 256
	DefaultMaxRate       = 1000.0 // MTU-packets per second ≈ 11 Mbps
	DefaultTick          = 20 * time.Millisecond
	DefaultSigma         = 200.0 // packets/s per √s of Brownian noise
	DefaultOutageEscape  = 1.0   // λz, 1/s
	DefaultConfidence    = 0.95  // forecast certainty: 5th-percentile bound
	DefaultForecastTicks = 8     // 160 ms forecast horizon
)

// Params configures the model. Zero fields take the paper defaults.
type Params struct {
	// NumBins is the number of discrete λ values.
	NumBins int
	// MaxRate is the largest representable λ in MTU-packets/s.
	MaxRate float64
	// Tick is the inference interval τ.
	Tick time.Duration
	// Sigma is the Brownian noise power in packets/s/√s.
	Sigma float64
	// OutageEscape is λz: outages end at this rate (1/s).
	OutageEscape float64
	// Confidence is the forecast certainty c in (0,1): the forecast is
	// the (1−c) quantile of the cumulative-delivery distribution, so
	// deliveries meet or exceed it with probability ≥ c. The paper's
	// §5.5 sweeps this parameter (95/75/50/25/5%).
	Confidence float64
	// ForecastTicks is the forecast horizon in ticks.
	ForecastTicks int
}

// withDefaults fills zero fields with the paper's frozen constants.
func (p Params) withDefaults() Params {
	if p.NumBins == 0 {
		p.NumBins = DefaultNumBins
	}
	if p.MaxRate == 0 {
		p.MaxRate = DefaultMaxRate
	}
	if p.Tick == 0 {
		p.Tick = DefaultTick
	}
	if p.Sigma == 0 {
		p.Sigma = DefaultSigma
	}
	if p.OutageEscape == 0 {
		p.OutageEscape = DefaultOutageEscape
	}
	if p.Confidence == 0 {
		p.Confidence = DefaultConfidence
	}
	if p.ForecastTicks == 0 {
		p.ForecastTicks = DefaultForecastTicks
	}
	return p
}

// DefaultParams returns the paper's frozen parameters.
func DefaultParams() Params { return Params{}.withDefaults() }

// Observation classifies what a tick's packet count means, resolving the
// queue-underflow ambiguity of §3.2: the receiver cannot tell an empty
// queue from an outage by counts alone, so the sender's time-to-next
// markings determine how each tick's count is interpreted.
type Observation int

const (
	// ObsExact means the bottleneck queue was backlogged for the whole
	// tick, so the count equals what the link's service process
	// delivered: apply the full Poisson likelihood.
	ObsExact Observation = iota
	// ObsAtLeast means the queue may have underflowed (the newest
	// received packet declared a pending time-to-next): the service
	// process delivered everything offered, so the count is only a
	// lower bound. Apply the censored likelihood P(C >= count). This is
	// the information-preserving form of the paper's skip rule — with a
	// count of zero it degenerates to a pure skip, and a single tiny
	// heartbeat "does much to dispel" the outage hypothesis exactly as
	// §3.2 describes, without dragging down the rate estimate.
	ObsAtLeast
	// ObsSkip applies time evolution only (the paper's literal skip).
	ObsSkip
)

// Forecaster is the interface the transport consumes: a per-tick model of
// the link that yields cumulative delivery forecasts. Two implementations
// exist: the Bayesian Model+DeliveryForecaster of Sprout proper, and the
// EWMA tracker of Sprout-EWMA (§5.3).
type Forecaster interface {
	// Tick advances the model by one tick. observed is the number of
	// MTU-equivalent packets received during the tick (bytes/1500, may
	// be fractional), interpreted according to mode.
	Tick(observed float64, mode Observation)
	// Forecast appends the cumulative cautious delivery forecast, in
	// MTU-packets, for each of the next Params.ForecastTicks ticks, to
	// dst.
	Forecast(dst []float64) []float64
	// TickDuration returns τ.
	TickDuration() time.Duration
	// Reset restores the forecaster to its freshly constructed state
	// (the prior, no observations) without freeing retained state, so a
	// pooled experiment world can reuse one forecaster across runs.
	Reset()
}
