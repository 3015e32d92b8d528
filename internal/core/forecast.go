package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sprout/internal/stats"
)

// forecastTable is the precomputed table behind the cautious forecast. It
// is immutable once built, so one table is shared by every forecaster (and
// every Clone) whose model has the same table-shaping parameters; a
// process running thousands of parallel experiments builds it exactly
// once per parameter set.
//
// Row (i, k) starts from the Poisson CDF cdf_i[k][j] = P(C <= k | λ = bin
// j for (i+1)·τ) and stores G_i[k] = (Eᵀ)^(i+1)·cdf_i[k], where E is the
// model's one-tick evolution (see evolveAdjoint): the lookahead the
// forecast would otherwise run on the posterior p is linear,
// ⟨cdf_i[k], E^(i+1)·p⟩ = ⟨G_i[k], p⟩, so it is applied to the rows once
// and a runtime forecast is the paper's "weighted sum over each λ" (§3.3)
// against the current posterior. σ and λz are frozen per model (§3.1), so
// E is fixed for a table's lifetime.
//
// The entries are one contiguous slice laid out so that a mixture
// evaluation at a fixed (tick, count) reads the bin dimension
// consecutively:
//
//	flat[off[i] + k*bins + j] = row (i, k) at bin j
//
// Each tick has its own count bound maxK[i] ≈ MaxRate·(i+1)·τ (padded 25%
// plus a constant so quantile scans never clip): early ticks store and
// scan far fewer counts than the horizon tick needs.
type forecastTable struct {
	bins int
	flat []float64
	off  []int
	maxK []int
}

// row returns the bins-long slice at (tick, count k).
func (t *forecastTable) row(tick, k int) []float64 {
	base := t.off[tick] + k*t.bins
	return t.flat[base : base+t.bins]
}

// buildForecastTable builds the table for m's parameters, m's evolution
// folded into the rows. It only reads m.
func buildForecastTable(m *Model) *forecastTable {
	tau, ticks := m.p.Tick.Seconds(), m.p.ForecastTicks
	t := &forecastTable{
		bins: len(m.binRate),
		off:  make([]int, ticks),
		maxK: make([]int, ticks),
	}
	total := 0
	for i := 0; i < ticks; i++ {
		t.off[i] = total
		t.maxK[i] = int(m.p.MaxRate*tau*float64(i+1)*1.25) + 10
		total += (t.maxK[i] + 1) * t.bins
	}
	t.flat = make([]float64, total)
	for i := 0; i < ticks; i++ {
		horizon := float64(i+1) * tau
		for j, r := range m.binRate {
			cdf := stats.PoissonCDFTable(r*horizon, t.maxK[i])
			for k, v := range cdf {
				t.flat[t.off[i]+k*t.bins+j] = v
			}
		}
	}
	t.fold(m.evolveAdjoint())
	return t
}

// fold replaces every row (i, k) by (Eᵀ)^(i+1) applied to it, in place, so
// only one table's worth of memory is ever resident. Rows are independent,
// so they are handed out to GOMAXPROCS workers and the resulting bits do
// not depend on how many there are.
func (t *forecastTable) fold(adj *evolveAdjoint) {
	rows := len(t.flat) / t.bins
	var next atomic.Int64
	work := func() {
		tmp := make([]float64, t.bins)
		for {
			r := int(next.Add(1)) - 1
			if r >= rows {
				return
			}
			tick := 0
			for tick+1 < len(t.off) && t.off[tick+1] <= r*t.bins {
				tick++
			}
			row := t.flat[r*t.bins : (r+1)*t.bins]
			for n := 0; n <= tick; n++ {
				adj.apply(tmp, row)
				copy(row, tmp)
			}
		}
	}
	var wg sync.WaitGroup
	for w := runtime.GOMAXPROCS(0); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// tableKey captures exactly the parameters the table depends on: the bin
// grid (NumBins + MaxRate determine binRate), the tick length, the horizon
// and — because the evolution is folded into the rows — the two parameters
// that shape E, Sigma and OutageEscape. Confidence does not shape the
// table, so the §5.5 sweep shares one table across all its runs.
type tableKey struct {
	bins         int
	ticks        int
	maxRate      float64
	tick         time.Duration
	sigma        float64
	outageEscape float64
}

// TableCacheLimit bounds the process-wide forecast-table cache: a table at
// the default parameters holds ~250k float64s (~2 MB) and takes ~35 CPU-ms
// to fold, and entries are never evicted, so a library consumer sweeping a
// table-shaping parameter (Sigma and OutageEscape among them) past this
// many distinct values gets uncached (per-forecaster) tables rather than
// unbounded retained memory. TableCacheStats makes that degradation
// observable.
const TableCacheLimit = 16

// tableEntry is one cache slot; once makes the build single-flight.
type tableEntry struct {
	once sync.Once
	tbl  *forecastTable
}

var (
	tableMu       sync.Mutex
	tableCache    = map[tableKey]*tableEntry{}
	tableHits     int64
	tableMisses   int64
	tableUncached int64
)

// TableCacheStats reports the process-wide forecast-table cache counters:
// hits (a forecaster reused a cached table, waiting for its one builder if
// the build was still running), misses (a build that was stored — one per
// key, however many forecasters asked at once), and uncached builds (the
// cache was already at its size limit, so the build could not be stored
// and every further forecaster at those parameters rebuilds its own ~2 MB
// table). A nonzero uncached count means a parameter sweep has silently
// outgrown the cache.
func TableCacheStats() (hits, misses, uncached int64) {
	tableMu.Lock()
	defer tableMu.Unlock()
	return tableHits, tableMisses, tableUncached
}

// forecastTableFor returns the table for m's parameters. The first user of
// a key builds it (outside the lock, so different keys build in parallel);
// concurrent users of the same key wait for that one build.
func forecastTableFor(m *Model) *forecastTable {
	key := tableKey{
		bins:         m.NumBins(),
		ticks:        m.p.ForecastTicks,
		maxRate:      m.p.MaxRate,
		tick:         m.p.Tick,
		sigma:        m.p.Sigma,
		outageEscape: m.p.OutageEscape,
	}
	tableMu.Lock()
	e, ok := tableCache[key]
	switch {
	case ok:
		tableHits++
	case len(tableCache) < TableCacheLimit:
		e = &tableEntry{}
		tableCache[key] = e
		tableMisses++
	default:
		e = &tableEntry{} // this caller's own, never stored
		tableUncached++
	}
	tableMu.Unlock()
	e.once.Do(func() { e.tbl = buildForecastTable(m) })
	return e.tbl
}

// DeliveryForecaster produces Sprout's cautious packet-delivery forecast
// (§3.3): for each of the next HorizonTicks ticks, a lower bound Q_i such
// that the cumulative number of packets delivered by tick i meets or
// exceeds Q_i with probability at least Confidence.
//
// As in the paper, the steps are precomputed: the table indexed by (tick,
// count, rate bin) holds the Poisson CDFs with the observation-free
// evolution of the posterior already folded in, built once per parameter
// set (including σ and λz, which shape the evolution) and shared
// process-wide, so a runtime forecast is only weighted sums of table rows
// over the live bins of the current posterior.
//
// The cumulative count by future tick i, conditioned on the rate path, is a
// Poisson with mean ∫λ dt. Following the paper's "sum over each λ" step we
// approximate the path integral by λ_i · i·τ where λ_i is the rate at tick
// i drawn from the evolved (observation-free) posterior; the Brownian
// evolution itself carries the uncertainty between ticks.
//
// A DeliveryForecaster is not safe for concurrent use, but Clone returns
// an independent copy (sharing only the immutable table) so each worker in
// a parallel experiment owns its own filter state.
type DeliveryForecaster struct {
	model *Model
	tbl   *forecastTable

	// w[lo:hi] is the weight vector the mixture sums run against and its
	// support window: the model's posterior, read at each forecast.
	w      []float64
	lo, hi int

	// Sweep scratch for ForecastAll: the requested confidences as
	// p-values sorted ascending, each remembering its caller slot, plus
	// each confidence's previous-tick quantile (its warm start and
	// monotonic clamp). Retained so repeated sweeps allocate nothing.
	sweepP    []float64
	sweepIdx  []int
	sweepPrev []int
	one       [1]float64 // ForecastAt's single-confidence view
}

// NewDeliveryForecaster builds the forecaster for the model, reusing the
// process-wide folded table when one with matching parameters exists.
func NewDeliveryForecaster(m *Model) *DeliveryForecaster {
	return &DeliveryForecaster{model: m, tbl: forecastTableFor(m)}
}

// Clone returns an independent forecaster whose model and scratch state
// are deep-copied while the immutable table is shared. The clone may be
// Ticked concurrently with the original.
func (f *DeliveryForecaster) Clone() *DeliveryForecaster {
	return &DeliveryForecaster{model: f.model.Clone(), tbl: f.tbl}
}

// Model returns the underlying Bayesian filter.
func (f *DeliveryForecaster) Model() *Model { return f.model }

// Reset implements Forecaster: the model returns to its uniform prior; the
// shared table and the scratch buffers (overwritten by every Forecast) are
// retained, so reuse allocates nothing.
func (f *DeliveryForecaster) Reset() { f.model.Reset() }

// Tick implements Forecaster: evolve one tick, then apply the observation
// in the requested mode.
func (f *DeliveryForecaster) Tick(observed float64, mode Observation) {
	f.model.tick(observed, mode)
}

// HorizonTicks implements Forecaster.
func (f *DeliveryForecaster) HorizonTicks() int { return f.model.p.ForecastTicks }

// TickDuration implements Forecaster.
func (f *DeliveryForecaster) TickDuration() time.Duration { return f.model.p.Tick }

// Forecast implements Forecaster: at each horizon tick it returns the
// (1−Confidence) quantile of the cumulative-delivery mixture under the
// posterior evolved that many ticks without observations.
// The result is nondecreasing across ticks.
func (f *DeliveryForecaster) Forecast(dst []float64) []float64 {
	return f.ForecastAt(dst, f.model.p.Confidence)
}

// ForecastAt is Forecast with an explicit confidence: a one-confidence
// ForecastAll.
func (f *DeliveryForecaster) ForecastAt(dst []float64, confidence float64) []float64 {
	f.one[0] = confidence
	return f.ForecastAll(dst, f.one[:])
}

// clampP converts a confidence into the quantile probability the searches
// compare against, clamped inside (0, 1).
func clampP(confidence float64) float64 {
	p := 1 - confidence
	if p <= 0 {
		p = 1e-9
	}
	if p >= 1 {
		p = 1 - 1e-9
	}
	return p
}

// ForecastAll appends the cautious forecast at every requested confidence
// to dst: confidences[0]'s HorizonTicks values first, then
// confidences[1]'s, and so on — each block exactly what ForecastAt at
// that confidence appends (bit-identical, any order, duplicates allowed).
//
// This is the §5.5 sweep entry point. Within a tick the quantile searches
// share one monotone walk up the count axis: the p-values are visited in
// ascending order and each search warm-starts at the previous answer
// (provably its lower bound), so later confidences usually cost a handful
// of extra mixture probes. A k-confidence sweep is therefore close to the
// price of one.
func (f *DeliveryForecaster) ForecastAll(dst []float64, confidences []float64) []float64 {
	nc := len(confidences)
	if nc == 0 {
		return dst
	}
	m := f.model
	ticks := m.p.ForecastTicks
	base := len(dst)
	dst = extendFloats(dst, nc*ticks)

	// Order the p-values ascending (insertion sort into retained
	// scratch; sweeps are tiny), remembering each one's caller slot.
	f.sweepP, f.sweepIdx, f.sweepPrev = f.sweepP[:0], f.sweepIdx[:0], f.sweepPrev[:0]
	for ci, conf := range confidences {
		p := clampP(conf)
		at := ci
		f.sweepP = append(f.sweepP, 0)
		f.sweepIdx = append(f.sweepIdx, 0)
		for ; at > 0 && f.sweepP[at-1] > p; at-- {
			f.sweepP[at] = f.sweepP[at-1]
			f.sweepIdx[at] = f.sweepIdx[at-1]
		}
		f.sweepP[at], f.sweepIdx[at] = p, ci
		f.sweepPrev = append(f.sweepPrev, 0)
	}

	f.w, f.lo, f.hi = m.probs, m.lo, m.hi
	for i := 0; i < ticks; i++ {
		// One monotone walk answers every confidence: ascending p means
		// ascending quantile, so each search starts at the larger of its
		// own previous-tick bound and the preceding confidence's answer
		// this tick. Both are exact lower bounds of its result, so the
		// answer — and the appended forecast — is bit-identical to an
		// independent per-confidence search.
		walk := 0
		for s := 0; s < nc; s++ {
			ci := f.sweepIdx[s]
			from := f.sweepPrev[ci]
			if walk > from {
				from = walk
			}
			q := f.mixtureQuantileFrom(i, f.sweepP[s], from)
			f.sweepPrev[ci] = q
			walk = q
			dst[base+ci*ticks+i] = float64(q)
		}
	}
	return dst
}

// ForecastBatch appends, for each forecaster in fs, its cautious forecast
// at its own configured confidence — fs[0]'s HorizonTicks values, then
// fs[1]'s, and so on — exactly as if each had run Forecast independently
// (bit-identical). The forecasters must be distinct (they keep per-call
// scratch); they may differ in parameters, including horizon. This is the
// inference call of a shared-cell scheduler that forecasts many
// co-scheduled flows at the same instant.
func ForecastBatch(dst []float64, fs []*DeliveryForecaster) []float64 {
	for _, f := range fs {
		dst = f.Forecast(dst)
	}
	return dst
}

// extendFloats grows dst by n slots (contents unspecified — the callers
// overwrite every new slot), reusing capacity when available so the
// steady-state path allocates nothing.
func extendFloats(dst []float64, n int) []float64 {
	if cap(dst)-len(dst) < n {
		g := make([]float64, len(dst), len(dst)+n)
		copy(g, dst)
		dst = g
	}
	return dst[:len(dst)+n]
}

// mixtureQuantileFrom returns max(lo0, q) where q is the smallest count
// whose mixture CDF exceeds p — the cautious bound at the given tick,
// already clamped to the nondecreasing cumulative forecast. The search
// warm-starts at lo0 and is capped by the precomputed per-tick count
// bound.
//
// Search strategy cannot change the result: F is a pure nondecreasing
// function of k (every evaluation an independent windowed dot product
// against rows that are pointwise nondecreasing in k — the raw CDFs are,
// and evolveAdjoint.apply preserves it), so any probe order finds the same
// first count with F(k) > p. The shape below exists purely for speed. An
// evaluation is a chain of dependent adds, so a pass over two counts costs
// no more than a pass over one, a pass over four about half as much again,
// and a pass over five up to twice as much (so none is that wide). The
// cumulative bound usually advances little from tick to tick — not at all
// in nine searches of ten for a flow sharing a cell, by under six counts
// in three of four for a flow that has a link to itself — so the first
// pass probes the warm start and its successor, the second the four counts
// after them, and only then does the search split the range.
func (f *DeliveryForecaster) mixtureQuantileFrom(tick int, p float64, lo0 int) int {
	hi := f.tbl.maxK[tick]
	if lo0 >= hi {
		return lo0
	}
	lo := lo0
	if lo+5 <= hi {
		f0, f1 := f.mixtureCDF2(tick, lo, lo+1)
		switch {
		case f0 > p:
			return lo
		case f1 > p:
			return lo + 1
		}
		f2, f3, f4, f5 := f.mixtureCDF4(tick, lo+2, lo+3, lo+4, lo+5)
		switch {
		case f2 > p:
			return lo + 2
		case f3 > p:
			return lo + 3
		case f4 > p:
			return lo + 4
		case f5 > p:
			return lo + 5
		}
		lo += 5
		// Quinary search: four interior probes per pass split (lo, hi]
		// five ways, maintaining F(lo) <= p < F at (or beyond) hi.
		for hi-lo > 5 {
			step := (hi - lo) / 5
			m1 := lo + step
			m2 := m1 + step
			m3 := m2 + step
			m4 := m3 + step
			f1, f2, f3, f4 := f.mixtureCDF4(tick, m1, m2, m3, m4)
			switch {
			case f1 > p:
				hi = m1
			case f2 > p:
				lo, hi = m1, m2
			case f3 > p:
				lo, hi = m2, m3
			case f4 > p:
				lo, hi = m3, m4
			default:
				lo = m4
			}
		}
		lo++
	}
	// F <= p below lo, and at most four candidates lo…hi-1 remain: one
	// pass decides among them. Probes past the last are clamped to hi,
	// whose row exists; whatever F is there, the answer it gives is hi.
	if lo < hi {
		k2, k3, k4 := min(lo+1, hi), min(lo+2, hi), min(lo+3, hi)
		f1, f2, f3, f4 := f.mixtureCDF4(tick, lo, k2, k3, k4)
		switch {
		case f1 > p:
			return lo
		case f2 > p:
			return k2
		case f3 > p:
			return k3
		case f4 > p:
			return k4
		}
	}
	return hi
}

// mixtureCDF4 evaluates the mixture CDF F(k) = Σ_j w_j · row(tick, k)[j]
// at four counts in one pass over the support window (weights outside it
// are exactly zero): the four dot products share the weight loads and
// accumulate independently. Each sum takes its terms in ascending bin
// order from +0, so all four values are bit-identical to four separate
// evaluations.
func (f *DeliveryForecaster) mixtureCDF4(tick, k1, k2, k3, k4 int) (float64, float64, float64, float64) {
	lo, hi := f.lo, f.hi
	// Slice every operand to the support window so the indexed loop runs
	// bounds-check-free.
	r1 := f.tbl.row(tick, k1)[lo:hi]
	r2 := f.tbl.row(tick, k2)[lo:hi]
	r3 := f.tbl.row(tick, k3)[lo:hi]
	r4 := f.tbl.row(tick, k4)[lo:hi]
	w := f.w[lo:hi]
	var s1, s2, s3, s4 float64
	for j, wj := range w {
		s1 += wj * r1[j]
		s2 += wj * r2[j]
		s3 += wj * r3[j]
		s4 += wj * r4[j]
	}
	return s1, s2, s3, s4
}

// mixtureCDF2 is mixtureCDF4 at two counts.
func (f *DeliveryForecaster) mixtureCDF2(tick, k1, k2 int) (float64, float64) {
	lo, hi := f.lo, f.hi
	r1 := f.tbl.row(tick, k1)[lo:hi]
	r2 := f.tbl.row(tick, k2)[lo:hi]
	w := f.w[lo:hi]
	var s1, s2 float64
	for j, wj := range w {
		s1 += wj * r1[j]
		s2 += wj * r2[j]
	}
	return s1, s2
}

// EWMAForecaster is the Sprout-EWMA variant (§5.3): it tracks the observed
// per-tick delivery rate with an exponentially weighted moving average and
// simply predicts that the link will continue at that speed for the whole
// horizon, with no caution.
type EWMAForecaster struct {
	tick    time.Duration
	horizon int
	gain    float64
	rate    float64 // packets per tick
	primed  bool
}

// DefaultEWMAGain is the per-tick EWMA gain. One eighth per 20 ms tick
// tracks rate increases within ~150 ms while still smoothing Poisson noise.
const DefaultEWMAGain = 0.125

// NewEWMAForecaster returns the Sprout-EWMA rate tracker. Zero gain,
// tick or horizon select the defaults (DefaultEWMAGain, 20 ms, 8).
func NewEWMAForecaster(gain float64, tick time.Duration, horizon int) *EWMAForecaster {
	if gain == 0 {
		gain = DefaultEWMAGain
	}
	if tick == 0 {
		tick = DefaultTick
	}
	if horizon == 0 {
		horizon = DefaultForecastTicks
	}
	return &EWMAForecaster{tick: tick, horizon: horizon, gain: gain}
}

// Tick implements Forecaster. Exact observations fold into the moving
// average; censored (at-least) observations can only raise the estimate,
// since the true deliverable count was at least what arrived; skipped
// ticks leave the estimate untouched.
func (e *EWMAForecaster) Tick(observed float64, mode Observation) {
	switch mode {
	case ObsSkip:
		return
	case ObsAtLeast:
		if observed > e.rate {
			e.rate = observed
			e.primed = true
		}
		return
	}
	if !e.primed {
		e.rate = observed
		e.primed = true
		return
	}
	e.rate += e.gain * (observed - e.rate)
}

// Rate returns the current smoothed rate estimate in packets per tick.
func (e *EWMAForecaster) Rate() float64 { return e.rate }

// Reset implements Forecaster: back to the unprimed zero-rate state.
func (e *EWMAForecaster) Reset() { e.rate, e.primed = 0, false }

// HorizonTicks implements Forecaster.
func (e *EWMAForecaster) HorizonTicks() int { return e.horizon }

// TickDuration implements Forecaster.
func (e *EWMAForecaster) TickDuration() time.Duration { return e.tick }

// Forecast implements Forecaster: a straight line at the current rate.
func (e *EWMAForecaster) Forecast(dst []float64) []float64 {
	for i := 1; i <= e.horizon; i++ {
		dst = append(dst, math.Max(0, e.rate*float64(i)))
	}
	return dst
}
