package trace

import (
	"math"
	"math/rand"
	"strings"
	"time"
)

// LinkModel parameterizes the synthetic cellular link generator. The model
// is the paper's own (§3.1): packet deliveries form a Poisson process whose
// rate λ (MTU-packets per second) wanders with Brownian noise, plus a sticky
// outage state entered at random and escaped at rate λz. To keep synthetic
// traces stationary over arbitrary durations the Brownian motion is given a
// gentle mean reversion toward MeanRate (an Ornstein–Uhlenbeck process);
// over the sub-second horizons that matter to Sprout's forecasts this is
// indistinguishable from pure Brownian motion.
type LinkModel struct {
	Name string
	// MeanRate is the long-run average link rate in MTU-packets/s.
	MeanRate float64
	// Sigma is the Brownian noise power in packets/s/√s (the paper
	// measured σ ≈ 200 on Verizon LTE).
	Sigma float64
	// Reversion is the OU mean-reversion rate in 1/s (small; keeps the
	// process from drifting to the boundaries over long traces).
	Reversion float64
	// MaxRate caps λ (packets/s).
	MaxRate float64
	// OutageRate is the rate (1/s) of spontaneous transitions into a
	// full outage (λ pinned to 0).
	OutageRate float64
	// OutageEscape is the escape rate λz (1/s) from an outage; outage
	// durations are exponential with mean 1/OutageEscape.
	OutageEscape float64
}

// modelStep is the grid on which the §3.1 rate process is stepped. Both
// Generate and the streaming ModelProcess advance on it with identical
// arithmetic, which is what makes their outputs bit-identical.
const modelStep = 10 * time.Millisecond

// modelState is the evolving state of the rate process: the current
// Poisson rate λ and whether the link is in the sticky outage state.
type modelState struct {
	lambda   float64
	inOutage bool
}

// stepper is a LinkModel prepared for stepping: the model plus the three
// per-step constants that depend only on it and on modelStep, computed
// once at set-up instead of on every 10 ms step (two exponentials and a
// square root per step otherwise).
type stepper struct {
	LinkModel
	pEscape float64 // 1-exp(-λz·dt): chance one step ends an outage
	pOutage float64 // 1-exp(-OutageRate·dt): chance one step starts one
	noise   float64 // σ·√dt: the Brownian increment's scale
}

func (m LinkModel) stepper() stepper {
	dtSec := modelStep.Seconds()
	return stepper{
		LinkModel: m,
		pEscape:   1 - math.Exp(-m.OutageEscape*dtSec),
		pOutage:   1 - math.Exp(-m.OutageRate*dtSec),
		noise:     m.Sigma * math.Sqrt(dtSec),
	}
}

// stepOnce advances the rate process by one modelStep and returns the
// sorted fractional offsets (in [0,1) of the step) of the deliveries drawn
// for it, reusing the scratch slice. The RNG consumption order is frozen:
// Generate and ModelProcess both run exactly this sequence, so a given
// (model, seed) yields one opportunity stream no matter which form pulls
// it.
func (m *stepper) stepOnce(st *modelState, rng *rand.Rand, scratch []float64) []float64 {
	dtSec := modelStep.Seconds()
	if st.inOutage {
		// Escape with probability 1-exp(-λz·dt).
		if rng.Float64() < m.pEscape {
			st.inOutage = false
			// Resume at a fraction of the mean rate: links come back
			// weak and recover.
			st.lambda = m.MeanRate * (0.1 + 0.4*rng.Float64())
		} else {
			return scratch[:0] // no deliveries during outage
		}
	} else if m.OutageRate > 0 && rng.Float64() < m.pOutage {
		st.inOutage = true
		return scratch[:0]
	}
	// OU step: mean reversion plus Brownian noise.
	st.lambda += m.Reversion*(m.MeanRate-st.lambda)*dtSec + m.noise*rng.NormFloat64()
	if st.lambda < 0 {
		st.lambda = 0
	}
	if m.MaxRate > 0 && st.lambda > m.MaxRate {
		st.lambda = m.MaxRate
	}
	n := poissonDraw(rng, st.lambda*dtSec)
	if n == 0 {
		return scratch[:0]
	}
	if cap(scratch) < n {
		scratch = make([]float64, n)
	}
	offsets := scratch[:n]
	for i := range offsets {
		offsets[i] = rng.Float64()
	}
	// Sort offsets (insertion sort; n is small).
	for i := 1; i < len(offsets); i++ {
		for j := i; j > 0 && offsets[j] < offsets[j-1]; j-- {
			offsets[j], offsets[j-1] = offsets[j-1], offsets[j]
		}
	}
	return offsets
}

// Generate synthesizes a trace of the given duration using the model and
// the provided random source. The rate process is stepped on a 10 ms grid;
// within each step, deliveries are drawn Poisson(λ·dt) and spread uniformly.
// The opportunities are stepped into a pooled scratch buffer and the trace
// keeps one exact-length copy of them (see collect), so Generate is safe to
// call from several goroutines, each with its own rng.
func (m LinkModel) Generate(d time.Duration, rng *rand.Rand) *Trace {
	steps := int(d / modelStep)
	st := modelState{lambda: m.MeanRate}
	sp := m.stepper()
	opps, _ := collect(func(s *scratch) error { // stepping cannot fail
		for i := 0; i < steps; i++ {
			start := time.Duration(i) * modelStep
			s.offsets = sp.stepOnce(&st, rng, s.offsets)
			for _, o := range s.offsets {
				s.opps = append(s.opps, start+time.Duration(o*float64(modelStep)))
			}
		}
		return nil
	})
	return &Trace{Name: m.Name, Opportunities: opps}
}

// poissonDraw samples a Poisson random variate with the given mean using
// inversion for small means and the normal approximation for large ones.
// The inversion multiplies uniforms until the product p first reaches
// p ≤ exp(−mean); each comparison is decided from expBracket's bounds,
// and math.Exp is called only when a product lands between them, so the
// draws and the uniforms consumed are those of comparing against
// math.Exp(−mean) itself.
func poissonDraw(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := int(mean + math.Sqrt(mean)*rng.NormFloat64() + 0.5)
		if n < 0 {
			n = 0
		}
		return n
	}
	lo, hi := expBracket(mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= lo {
			return k
		}
		if p <= hi { // undecided: settle the bracket on the exact value
			lo = math.Exp(-mean)
			hi = lo
			if p <= lo {
				return k
			}
		}
		k++
		if k > 1000 {
			return k
		}
	}
}

// expCells holds 2^(−j/64) for j = 0…63.
var expCells = func() (t [64]float64) {
	for j := range t {
		t[j] = math.Exp2(-float64(j) / 64)
	}
	return t
}()

const (
	cellsPerUnit = 64 / math.Ln2 // expCells cells per unit of mean
	cellWidth    = math.Ln2 / 64
	// bracketSlack widens the bracket past the rounding of r, of the
	// table and of the products (about 1e-14 together for means ≤ 30).
	bracketSlack = 1e-9
)

// expBracket returns lo ≤ math.Exp(−mean) ≤ hi for mean in (0, 30]
// without calling math.Exp; a NaN mean gives NaN bounds. With mean =
// n·ln2/64 + r and 0 ≤ r < ln2/64, exp(−mean) is the power of two
// 2^(−⌊n/64⌋), times expCells[n mod 64], times e^(−r), and 1−r ≤ e^(−r)
// ≤ 1−r+r²/2; so hi/lo − 1 ≤ 6e-5. The float64 conversions keep each
// product rounded on its own, so no platform fuses them into a
// multiply-add.
func expBracket(mean float64) (lo, hi float64) {
	n := int(float64(mean * cellsPerUnit))
	r := mean - float64(float64(n)*cellWidth)
	base := math.Float64frombits(uint64(1023-(n>>6))<<52) * expCells[n&63]
	lo = float64(base*(1-r)) * (1 - bracketSlack)
	hi = float64(base*(1-r+float64(r*r/2))) * (1 + bracketSlack)
	return lo, hi
}

// CanonicalLinks returns models for the eight links measured in the paper
// (§4.1): Verizon LTE, Verizon 3G (1xEV-DO), AT&T LTE, T-Mobile 3G (UMTS),
// downlink and uplink each. Mean rates are set to match the capacity ranges
// visible in Figure 7; volatility uses the paper's σ = 200 for LTE and
// proportionally less for the slower 3G links; all links exhibit occasional
// multi-second outages as described in §2.1.
func CanonicalLinks() []LinkModel {
	return []LinkModel{
		{
			Name:     "Verizon-LTE-down",
			MeanRate: 420, // ≈ 5.0 Mbps
			Sigma:    200, Reversion: 0.35, MaxRate: 1000,
			OutageRate: 1.0 / 50, OutageEscape: 1.0,
		},
		{
			Name:     "Verizon-LTE-up",
			MeanRate: 300, // ≈ 3.6 Mbps
			Sigma:    160, Reversion: 0.35, MaxRate: 800,
			OutageRate: 1.0 / 45, OutageEscape: 0.8,
		},
		{
			Name:     "Verizon-3G-down",
			MeanRate: 45, // ≈ 540 kbps
			Sigma:    25, Reversion: 0.30, MaxRate: 150,
			OutageRate: 1.0 / 40, OutageEscape: 0.6,
		},
		{
			Name:     "Verizon-3G-up",
			MeanRate: 50, // ≈ 600 kbps
			Sigma:    25, Reversion: 0.30, MaxRate: 150,
			OutageRate: 1.0 / 45, OutageEscape: 0.7,
		},
		{
			Name:     "ATT-LTE-down",
			MeanRate: 320, // ≈ 3.8 Mbps
			Sigma:    180, Reversion: 0.35, MaxRate: 900,
			OutageRate: 1.0 / 55, OutageEscape: 1.2,
		},
		{
			Name:     "ATT-LTE-up",
			MeanRate: 75, // ≈ 900 kbps
			Sigma:    45, Reversion: 0.30, MaxRate: 250,
			OutageRate: 1.0 / 50, OutageEscape: 1.0,
		},
		{
			Name:     "TMobile-3G-down",
			MeanRate: 135, // ≈ 1.6 Mbps
			Sigma:    75, Reversion: 0.30, MaxRate: 400,
			OutageRate: 1.0 / 45, OutageEscape: 0.8,
		},
		{
			Name:     "TMobile-3G-up",
			MeanRate: 85, // ≈ 1.0 Mbps
			Sigma:    50, Reversion: 0.30, MaxRate: 300,
			OutageRate: 1.0 / 40, OutageEscape: 0.7,
		},
	}
}

// canonicalLinks is the table CanonicalLink reads (CanonicalLinks builds
// a fresh one per call); it is only ever read.
var canonicalLinks = CanonicalLinks()

// CanonicalLink returns the model with the given name, or false.
func CanonicalLink(name string) (LinkModel, bool) {
	for _, m := range canonicalLinks {
		if m.Name == name {
			return m, true
		}
	}
	return LinkModel{}, false
}

// NetworkPair names a bidirectional network: a downlink and uplink model
// pair for one carrier, as used by the paper's eight-chart evaluation.
type NetworkPair struct {
	Name     string
	Down, Up LinkModel
}

// CanonicalNetworks returns the four measured networks as down/up pairs.
func CanonicalNetworks() []NetworkPair {
	links := CanonicalLinks()
	return []NetworkPair{
		{Name: "Verizon LTE", Down: links[0], Up: links[1]},
		{Name: "Verizon 3G (1xEV-DO)", Down: links[2], Up: links[3]},
		{Name: "AT&T LTE", Down: links[4], Up: links[5]},
		{Name: "T-Mobile 3G (UMTS)", Down: links[6], Up: links[7]},
	}
}

// canonicalNetworks is the table LookupNetwork reads (CanonicalNetworks
// builds a fresh one per call); it is only ever read.
var canonicalNetworks = CanonicalNetworks()

// LookupNetwork returns the canonical network with the given name,
// matched case-insensitively on the full name, or false.
func LookupNetwork(name string) (NetworkPair, bool) {
	for _, p := range canonicalNetworks {
		if strings.EqualFold(p.Name, name) {
			return p, true
		}
	}
	return NetworkPair{}, false
}
