package core

import (
	"math"
	"slices"
	"sync"
	"time"

	"sprout/internal/memo"
	"sprout/internal/stats"
)

// likelihoodRateFloor is the minimum Poisson mean (packets/s) used in the
// observation likelihood. Bin 0 represents a true outage (λ = 0), whose
// literal likelihood would be zero for any positive observation and one
// otherwise; a small floor keeps the filter numerically regular when a
// stray fraction of a packet arrives during an apparent outage.
const likelihoodRateFloor = 0.5

// trimMass is the mass under which an edge bin of the support window is
// dropped at the end of every tick. Everything one tick drops is under
// NumBins·2⁻⁸⁰ < 2⁻⁶⁰, below the rounding (2⁻⁵³) of a sum that equals 1, so
// the posterior is not renormalized for it. The dropped tail could matter
// only to later observations 2⁸⁰ times likelier under it than under the
// mass kept; DESIGN §6.3 measures that case.
const trimMass = 0x1p-80

// Model is the discretized Bayesian filter over the link rate λ.
// It is not safe for concurrent use.
type Model struct {
	p        Params
	binRate  []float64 // λ value of each bin, packets/s
	binWidth float64   // packets/s between adjacent bins
	probs    []float64 // current posterior over bins, sums to 1
	scratch  []float64 // Evolve's destination; between evolutions, Observe's own row and a forecast's fold buffer
	obs      *obsTable // observation rows of this λ grid, shared process-wide

	kernel     []float64 // Brownian transition kernel per tick, by bin offset
	kernelPad  []float64 // kernel zero-padded for the multi-lane gather (padKernel)
	radius     int       // kernel half-width in bins
	outageStay float64   // exp(-λz τ): probability an outage persists a tick

	// [lo, hi) bounds the posterior's support: probs[j] == 0 for every j
	// outside the window, always. Evolution widens the window by the kernel
	// radius; every tick ends by trimming it back to the bins that hold
	// mass (trim). The evolution, observation and mixture-CDF inner loops
	// scan only the window.
	lo, hi int
}

// NewModel builds a model with the given parameters (zero fields take the
// paper defaults) and a uniform prior over rates.
func NewModel(p Params) *Model {
	p = p.withDefaults()
	n := p.NumBins
	m := &Model{
		p:        p,
		binRate:  make([]float64, n),
		probs:    make([]float64, n),
		scratch:  make([]float64, n),
		binWidth: p.MaxRate / float64(n-1),
	}
	for j := 0; j < n; j++ {
		m.binRate[j] = float64(j) * m.binWidth
	}
	tau := p.Tick.Seconds()
	m.obs = obsTableFor(p, m.binRate)
	stdBins := p.Sigma * math.Sqrt(tau) // packets/s of diffusion per tick
	m.radius = int(math.Ceil(4*stdBins/m.binWidth)) + 1
	if m.radius >= n {
		m.radius = n - 1
	}
	m.kernel = stats.GaussianKernel(stdBins, m.binWidth, m.radius)
	m.kernelPad = padKernel(m.kernel)
	m.outageStay = math.Exp(-p.OutageEscape * tau)
	m.Reset()
	return m
}

// Clone returns an independent copy of the filter: the posterior and
// scratch buffers are deep-copied, while the bin grid, the observation
// rows (filled single-flight, never rewritten) and the transition kernel
// (never written after NewModel) are shared. Clones may be Ticked
// concurrently.
func (m *Model) Clone() *Model {
	c := *m
	c.probs = append([]float64(nil), m.probs...)
	c.scratch = make([]float64, len(m.scratch))
	return &c
}

// Params returns the (defaulted) parameters the model was built with.
func (m *Model) Params() Params { return m.p }

// Reset restores the uniform prior (all rates equally probable, §3.1).
func (m *Model) Reset() {
	u := 1 / float64(len(m.probs))
	for i := range m.probs {
		m.probs[i] = u
	}
	m.lo, m.hi = 0, len(m.probs)
}

// NumBins returns the number of λ bins.
func (m *Model) NumBins() int { return len(m.probs) }

// BinRate returns the λ value (packets/s) of bin j.
func (m *Model) BinRate(j int) float64 { return m.binRate[j] }

// Distribution copies the current posterior into dst (allocating if nil).
func (m *Model) Distribution(dst []float64) []float64 {
	dst = append(dst[:0], m.probs...)
	return dst
}

// Evolve advances the posterior one tick of Brownian motion with the
// outage-stickiness bias (§3.2 step 1). The forecast side uses the same
// operator transposed: evolveAdjoint folds it into the forecast table.
func (m *Model) Evolve() {
	m.lo, m.hi = evolveWindow(m.scratch, m.probs, m.kernel, m.kernelPad, m.radius, m.outageStay, m.lo, m.hi)
	m.probs, m.scratch = m.scratch, m.probs
}

// gatherLanes is how many destination bins one pass of the portable gather
// computes. The lane accumulators live in registers and share a single scan
// of the source window, made branch-free by the zero-padded kernel. Eight
// lanes matter because each lane is a serial float add chain: with fewer
// lanes the pass is latency-bound on the accumulator adds rather than
// throughput-bound, and the measured cost nearly doubles.
const gatherLanes = 8

// simdLanes is how many destination bins one call of the SIMD kernel
// (gather16) computes: four 4-wide vector accumulators.
const simdLanes = 16

// kernelPadding is how many zeros padKernel puts on each side of the
// kernel: one less than the widest gather group.
const kernelPadding = simdLanes - 1

// padKernel returns kernel zero-padded by kernelPadding entries on each
// side, so lane m of a gather group starting at destination k can read
// kernelPad[k+radius+kernelPadding-j+m] for every source bin j in the
// group's union window without an in-range branch. The padding only ever
// contributes exact +0 terms, which leave the non-negative lane sums
// bit-identical.
func padKernel(kernel []float64) []float64 {
	pad := make([]float64, len(kernel)+2*kernelPadding)
	copy(pad[kernelPadding:], kernel)
	return pad
}

// gatherGroup computes the simdLanes interior destinations from k on with
// the SIMD kernel. The three slice expressions are the kernel's bounds
// checks: it reads and writes exactly these spans and nothing else.
func gatherGroup(dst, src, kernelPad []float64, k, radius, jlo, hi int) {
	j0 := max(k-radius, jlo)
	j1 := min(k+simdLanes-1+radius, hi-1)
	base := k + radius + kernelPadding
	gather16(dst[k:k+simdLanes], src[j0:j1+1], kernelPad[base-j1:base-j0+simdLanes])
}

// evolveWindow computes one evolution step from src into dst. dst and src
// must be distinct slices of equal length. Probability mass diffusing below
// bin 0 collects in bin 0 (entering an outage); mass above the top bin folds
// into the top bin. Bin 0 itself keeps fraction outageStay in place and
// diffuses only the escaping remainder.
//
// [lo, hi) bounds src's nonzero support; only those bins are scanned. The
// returned window bounds dst's support (one kernel radius wider, clamped).
//
// The pass is a gather: each destination bin's convolution sum accumulates
// in a register and is stored exactly once, instead of the classic scatter
// that read-modify-writes every bin under the kernel once per source bin.
// Interior destinations are computed a group at a time against the
// zero-padded kernel, so one scan of the group's shared source window feeds
// every lane. Where gatherSIMD is set a group is simdLanes (sixteen) vector
// lanes, and the last group is the interior's final sixteen bins again:
// overlapping the group before it recomputes the same values, so no scalar
// remainder runs. The portable loop — gatherLanes (eight) register
// accumulators per group, then one bin at a time — is every other
// platform's path, what an interior narrower than one SIMD group runs, and
// the oracle the kernel is tested against. On both paths every destination
// receives its terms in ascending source-bin order — exactly the order the
// scatter produced — each term a multiply rounded before its add (unfused
// on every platform: the kernel has no FMA, and each Go product is an
// explicit float64 conversion, which the spec rounds before the add), and
// the only extra terms are the padding's exact zeros added to
// non-negative sums, so every floating-point result is bit-identical to
// the scatter form (TestEvolveGatherMatchesScatter and
// TestGatherSIMDMatchesPortable pin this). The two boundary bins keep
// dedicated loops because their sums also fold in the out-of-grid kernel
// tail, again in the scatter's ascending-offset order.
func evolveWindow(dst, src, kernel, kernelPad []float64, radius int, outageStay float64, lo, hi int) (int, int) {
	n := len(src)
	// dst's support is src's support widened by one radius; any mass that
	// would land below bin 1 folds into bin 0, so the window snaps to 0.
	newLo := lo - radius
	if newLo < 1 {
		newLo = 0
	}
	newHi := hi + radius
	if newHi > n {
		newHi = n
	}
	for i := 0; i < newLo; i++ {
		dst[i] = 0
	}
	for i := newHi; i < n; i++ {
		dst[i] = 0
	}
	jlo := lo
	if jlo < 1 {
		jlo = 1 // bin 0 diffuses through the sticky-outage step below
	}

	// Bin 0 gathers the kernel mass at and below it (offsets <= 0, the
	// into-outage fold) from every source bin within one radius.
	if newLo == 0 {
		jmax := radius
		if jmax > hi-1 {
			jmax = hi - 1
		}
		var d0 float64
		for j := jlo; j <= jmax; j++ {
			pj := src[j]
			row := kernel[:radius-j+1]
			for _, w := range row {
				d0 += float64(pj * w)
			}
		}
		dst[0] = d0
	}

	// Interior bins: pure convolution, a group of lanes at a time.
	kLo := newLo
	if kLo < 1 {
		kLo = 1
	}
	kHi := newHi
	if kHi > n-1 {
		kHi = n - 1
	}
	k := kLo
	if gatherSIMD && kHi-kLo >= simdLanes {
		for ; k+simdLanes <= kHi; k += simdLanes {
			gatherGroup(dst, src, kernelPad, k, radius, jlo, hi)
		}
		if k < kHi {
			gatherGroup(dst, src, kernelPad, kHi-simdLanes, radius, jlo, hi)
		}
		k = kHi
	}
	for ; k+gatherLanes-1 < kHi; k += gatherLanes {
		j0 := k - radius
		if j0 < jlo {
			j0 = jlo
		}
		j1 := k + gatherLanes - 1 + radius
		if j1 > hi-1 {
			j1 = hi - 1
		}
		base := k + radius + kernelPadding
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		j := j0
		for ; j+1 <= j1; j += 2 {
			pj := src[j]
			w := kernelPad[base-j : base-j+gatherLanes]
			a0 += float64(pj * w[0])
			a1 += float64(pj * w[1])
			a2 += float64(pj * w[2])
			a3 += float64(pj * w[3])
			a4 += float64(pj * w[4])
			a5 += float64(pj * w[5])
			a6 += float64(pj * w[6])
			a7 += float64(pj * w[7])
			pq := src[j+1]
			v := kernelPad[base-j-1 : base-j-1+gatherLanes]
			a0 += float64(pq * v[0])
			a1 += float64(pq * v[1])
			a2 += float64(pq * v[2])
			a3 += float64(pq * v[3])
			a4 += float64(pq * v[4])
			a5 += float64(pq * v[5])
			a6 += float64(pq * v[6])
			a7 += float64(pq * v[7])
		}
		for ; j <= j1; j++ {
			pj := src[j]
			w := kernelPad[base-j : base-j+gatherLanes]
			a0 += float64(pj * w[0])
			a1 += float64(pj * w[1])
			a2 += float64(pj * w[2])
			a3 += float64(pj * w[3])
			a4 += float64(pj * w[4])
			a5 += float64(pj * w[5])
			a6 += float64(pj * w[6])
			a7 += float64(pj * w[7])
		}
		dst[k], dst[k+1], dst[k+2], dst[k+3] = a0, a1, a2, a3
		dst[k+4], dst[k+5], dst[k+6], dst[k+7] = a4, a5, a6, a7
	}
	for ; k < kHi; k++ {
		j0 := k - radius
		if j0 < jlo {
			j0 = jlo
		}
		j1 := k + radius
		if j1 > hi-1 {
			j1 = hi - 1
		}
		base := k + radius
		var acc float64
		for j := j0; j <= j1; j++ {
			acc += float64(src[j] * kernel[base-j])
		}
		dst[k] = acc
	}

	// Top bin: its direct kernel term plus the folded above-grid tail
	// (offsets >= n-1-j, ascending), from every source bin within reach.
	if newHi == n {
		j0 := n - 1 - radius
		if j0 < jlo {
			j0 = jlo
		}
		var dn float64
		for j := j0; j < hi; j++ {
			pj := src[j]
			row := kernel[n-1-j+radius:]
			for _, w := range row {
				dn += float64(pj * w)
			}
		}
		dst[n-1] = dn
	}

	// Bin 0: sticky outage. Stay with probability outageStay; otherwise
	// escape by diffusing from 0 (half of that kernel folds back into 0,
	// making outages even stickier, as observed on real links).
	p0 := src[0]
	if p0 > 0 {
		dst[0] += float64(p0 * outageStay)
		esc := p0 * (1 - outageStay)
		for k := -radius; k <= radius; k++ {
			w := kernel[k+radius]
			if k <= 0 {
				dst[0] += float64(esc * w)
			} else if k < n {
				dst[k] += float64(esc * w)
			} else {
				dst[n-1] += float64(esc * w)
			}
		}
	}
	return newLo, newHi
}

// evolveAdjoint is Eᵀ, the transpose of the one-tick evolution E that
// evolveWindow applies on the full grid. Column j of E — where a unit of
// mass at bin j goes in one tick — is evolveWindow's own output for that
// unit mass (so every boundary rule is E's by construction: the
// below-grid fold into bin 0, the above-grid fold into the top bin, the
// sticky-outage stay/escape of bin 0), and it is nonzero only on
// [lo[j], hi[j]), at most one kernel radius either side of j. Columns
// [jA, jB) are the interior: each one's band is exactly kernel, starting
// one radius below its bin (at the defaults, 196 of 256 columns).
type evolveAdjoint struct {
	lo, hi []int
	w      []float64 // column j's band starts at w[j*stride]
	stride int
	kernel []float64
	jA, jB int
}

func (m *Model) evolveAdjoint() evolveAdjoint {
	n := len(m.probs)
	a := evolveAdjoint{lo: make([]int, n), hi: make([]int, n), stride: 2*m.radius + 1, kernel: m.kernel}
	a.w = make([]float64, n*a.stride)
	buf := make([]float64, 2*n)
	unit, col := buf[:n], buf[n:]
	for j := range unit {
		unit[j] = 1
		a.lo[j], a.hi[j] = evolveWindow(col, unit, m.kernel, m.kernelPad, m.radius, m.outageStay, j, j+1)
		band := col[a.lo[j]:a.hi[j]]
		copy(a.w[j*a.stride:], band)
		unit[j] = 0
		// The weights are non-negative, so == is bit equality. The columns
		// are compared, not predicted: which edge columns still carry the
		// plain kernel depends on the boundary rules.
		if a.lo[j] == j-m.radius && slices.Equal(band, m.kernel) {
			if a.jB != j {
				a.jA = j
			}
			a.jB = j + 1
		}
	}
	return a
}

// apply sets dst = Eᵀ·c, that is dst[j] = Σ_k E[k][j]·c[k], so that
// ⟨dst, p⟩ = ⟨c, E·p⟩ for every posterior p: mixing c against the evolved
// posterior equals mixing Eᵀ·c against the current one. The weights are
// non-negative and each dst[j] sums its terms in an order that does not
// depend on c, so c ≤ c' pointwise implies dst ≤ dst' pointwise in
// floating point too (multiply and add are monotone). The four partial
// sums only break the serial add chain. Where gatherSIMD is set the AVX2
// kernels compute the same sums (applySIMD); this loop is every other
// platform's path and their oracle.
func (a *evolveAdjoint) apply(dst, c []float64) {
	if gatherSIMD {
		a.applySIMD(dst, c)
		return
	}
	for j := range dst {
		col := a.w[j*a.stride:][:a.hi[j]-a.lo[j]]
		cc := c[a.lo[j]:a.hi[j]]
		var s0, s1, s2, s3 float64
		k := 0
		for ; k+3 < len(col); k += 4 {
			s0 += float64(col[k] * cc[k])
			s1 += float64(col[k+1] * cc[k+1])
			s2 += float64(col[k+2] * cc[k+2])
			s3 += float64(col[k+3] * cc[k+3])
		}
		for ; k < len(col); k++ {
			s0 += float64(col[k] * cc[k])
		}
		dst[j] = (s0 + s1) + (s2 + s3)
	}
}

// foldLanes is how many interior columns one call of fold8 computes.
const foldLanes = 8

// applySIMD is apply on the AVX2 kernels: fold8 for the interior columns
// eight at a time, fold1 for the edge columns and the interior's remainder.
// Both kernels take each column's terms in apply's order — four strided
// partial sums, the tail in the first, (s0+s1)+(s2+s3) last — so dst is
// apply's bit for bit (TestFoldSIMDMatchesPortable). The slice expressions
// are the kernels' bounds checks.
func (a *evolveAdjoint) applySIMD(dst, c []float64) {
	j := 0
	for ; j < a.jA; j++ {
		dst[j] = fold1(a.w[j*a.stride:][:a.hi[j]-a.lo[j]], c[a.lo[j]:a.hi[j]])
	}
	for ; j+foldLanes <= a.jB; j += foldLanes {
		fold8(dst[j:j+foldLanes], c[a.lo[j]:a.lo[j]+len(a.kernel)+foldLanes-1], a.kernel)
	}
	for ; j < len(dst); j++ {
		dst[j] = fold1(a.w[j*a.stride:][:a.hi[j]-a.lo[j]], c[a.lo[j]:a.hi[j]])
	}
}

// obsTable holds what an observation needs of one λ grid: the per-bin
// Poisson means and, per integral count k, the factor each bin's mass is
// multiplied by — the likelihood of exactly k packets in a tick under
// ObsExact, the survival P(C > k) under ObsAtLeast. All of it depends on
// (NumBins, MaxRate, Tick, k) and on nothing a run changes (σ and λz shape
// the evolution, not the observation): one
// table per grid is shared process-wide by every Model and clone, and each
// row is filled by its first user, single-flight, and never written again.
// A grid retains at most 2·rows·NumBins·8 bytes (~0.23 MB at the defaults).
type obsTable struct {
	rateTau    []float64   // max(binRate[j], likelihoodRateFloor)·τ
	logRateTau []float64   // log of the same
	rows       [2][]obsRow // by mode (ObsExact, ObsAtLeast), then by count
}

type obsRow struct {
	once sync.Once
	w    []float64
}

type obsKey struct {
	bins    int
	maxRate float64
	tick    time.Duration
}

// obsTables is the process-wide observation-table cache, one per λ grid.
var obsTables = memo.New[obsKey, *obsTable](tableCacheLimit)

// obsTableFor returns the process-wide table of p's grid, built by its
// first user. Rows cover counts up to twice what the top bin delivers per
// tick; rarer counts are computed per observation. Like the forecast-table
// cache it stops storing at tableCacheLimit grids, past which each model
// gets a table of its own.
func obsTableFor(p Params, binRate []float64) *obsTable {
	return obsTables.Get(obsKey{p.NumBins, p.MaxRate, p.Tick}, func() *obsTable {
		tau := p.Tick.Seconds()
		t := &obsTable{rateTau: make([]float64, len(binRate)), logRateTau: make([]float64, len(binRate))}
		for j, rate := range binRate {
			if rate < likelihoodRateFloor {
				rate = likelihoodRateFloor
			}
			t.rateTau[j] = rate * tau
			t.logRateTau[j] = math.Log(rate * tau)
		}
		for mode := range t.rows {
			t.rows[mode] = make([]obsRow, int(2*p.MaxRate*tau)+16)
		}
		return t
	})
}

// fill computes dst[lo:hi] of the row for count k. The likelihood
// k·log(λτ) − λτ − lgamma(k+1) is stored as exp(· − max over [lo, hi)): the
// k-dependent constant cancels in the normalization, and the largest entry
// is exactly 1, so a row never overflows and underflows only where the
// count is e⁷⁰⁰ times less likely than under the best bin.
func (t *obsTable) fill(dst []float64, mode Observation, k float64, lo, hi int) {
	if mode == ObsAtLeast {
		for j := lo; j < hi; j++ {
			dst[j] = 1 - stats.PoissonCDF(t.rateTau[j], int(k))
		}
		return
	}
	max := math.Inf(-1)
	for j := lo; j < hi; j++ {
		dst[j] = float64(k*t.logRateTau[j]) - t.rateTau[j]
		if dst[j] > max {
			max = dst[j]
		}
	}
	for j := lo; j < hi; j++ {
		dst[j] = math.Exp(dst[j] - max)
	}
}

// row returns the factors for count k >= 0, valid on the support window at
// least: the shared row when k is integral and inside the table, else the
// model's scratch (free between evolutions) filled by the same function.
func (m *Model) row(mode Observation, k float64) []float64 {
	t := m.obs
	if i := int(k); float64(i) == k && i < len(t.rows[mode]) {
		r := &t.rows[mode][i]
		r.once.Do(func() {
			r.w = make([]float64, len(t.rateTau))
			t.fill(r.w, mode, k, 0, len(r.w))
		})
		return r.w
	}
	t.fill(m.scratch, mode, k, m.lo, m.hi)
	return m.scratch
}

// Observe multiplies in the Poisson likelihood of seeing `packets`
// MTU-equivalents during one tick and renormalizes (§3.2 steps 2–3).
// packets may be fractional (bytes divided by the MTU).
func (m *Model) Observe(packets float64) {
	if packets < 0 {
		packets = 0
	}
	m.multiply(m.row(ObsExact, packets))
}

// ObserveAtLeast multiplies in the censored likelihood P(C >= packets) and
// renormalizes. This is the correct update when the bottleneck queue may
// have underflowed: the link delivered everything offered, so the count
// only lower-bounds what the service process could have delivered.
// A count of zero multiplies nothing in (P(C >= 0) = 1 for every rate).
func (m *Model) ObserveAtLeast(packets float64) {
	if packets <= 0 {
		m.trim()
		return
	}
	m.multiply(m.row(ObsAtLeast, math.Ceil(packets)-1)) // P(C >= n) = 1 − CDF(n−1)
}

// multiply is the observation step: one pass multiplies the window by the
// row and sums, one normalizes, and trim drops the edges the observation
// emptied. An observation that leaves no representable mass — impossible
// under every live hypothesis — falls back to the prior.
func (m *Model) multiply(row []float64) {
	p := m.probs[m.lo:m.hi]
	row = row[m.lo:m.hi]
	var sum float64
	for j, w := range row {
		p[j] = float64(p[j] * w)
		sum += p[j]
	}
	if !(sum >= 0x1p-1022) { // zero, subnormal (1/sum may overflow) or NaN
		m.Reset()
		return
	}
	inv := 1 / sum
	for j := range p {
		p[j] *= inv
	}
	m.trim()
}

// trim shortens the window from both edges while the edge bin holds less
// than trimMass, zeroing what it drops so the window invariant holds. The
// posterior sums to 1, so some bin stays.
func (m *Model) trim() {
	lo, hi := m.lo, m.hi
	for ; lo < hi && m.probs[lo] < trimMass; lo++ {
		m.probs[lo] = 0
	}
	for ; hi > lo && m.probs[hi-1] < trimMass; hi-- {
		m.probs[hi-1] = 0
	}
	m.lo, m.hi = lo, hi
}

// tick evolves one tick, then applies the observation in the given mode.
// Every mode ends in trim — a tick that multiplies nothing in (a skip, or
// a censored count of zero) too, so the window never grows on idle links.
func (m *Model) tick(packets float64, mode Observation) {
	m.Evolve()
	switch mode {
	case ObsExact:
		m.Observe(packets)
	case ObsAtLeast:
		m.ObserveAtLeast(packets)
	case ObsSkip:
		m.trim()
	}
}

// Mean returns the posterior mean rate in packets/s. Bins outside the
// support window are exactly zero, so the windowed sum is bit-identical to
// the full scan.
func (m *Model) Mean() float64 {
	var s float64
	for j := m.lo; j < m.hi; j++ {
		s += float64(m.probs[j] * m.binRate[j])
	}
	return s
}

// Quantile returns the smallest rate r with mass such that P(λ <= r) >= p.
func (m *Model) Quantile(p float64) float64 {
	var c float64
	for j := m.lo; j < m.hi; j++ {
		c += m.probs[j]
		if c >= p {
			return m.binRate[j]
		}
	}
	return m.binRate[len(m.binRate)-1]
}

// OutageProbability returns the posterior mass on λ = 0.
func (m *Model) OutageProbability() float64 { return m.probs[0] }
