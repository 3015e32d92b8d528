package core

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"sprout/internal/memo"
	"sprout/internal/stats"
)

// forecastTable is the precomputed table behind the cautious forecast.
// Each row is written once, by its fold, and never again, so one table is
// shared by every forecaster (and every Clone) whose model has the same
// table-shaping parameters; a process running thousands of parallel
// experiments builds it exactly once per parameter set.
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
//	flat[(off[i] + k)*bins + j] = row (i, k) at bin j
//
// Each tick has its own count bound maxK[i] ≈ MaxRate·(i+1)·τ (padded 25%
// plus a constant so quantile scans never clip): early ticks store and
// scan far fewer counts than the horizon tick needs.
//
// The build stores the raw CDF rows, and fold folds each in place on its
// first use, single-flight per row like obsTable's rows, so a process pays
// only for the rows its forecasts read. Rows are independent, so a row's
// bits do not depend on which caller folds it, or when.
type forecastTable struct {
	bins   int
	flat   []float64
	off    []int // tick i's first row
	maxK   []int
	adj    *evolveAdjoint
	folds  []sync.Once   // per row: its single-flight fold
	folded []atomic.Bool // per row: set when its fold is done; lockstep's check, inlined
}

// fold folds row r (of tick) in place on its first call, single-flight:
// (Eᵀ)^(tick+1) applied with tmp (bins long, overwritten) as the buffer.
func (t *forecastTable) fold(r, tick int, tmp []float64) {
	t.folds[r].Do(func() {
		row := t.flat[r*t.bins : (r+1)*t.bins]
		for n := 0; n <= tick; n++ {
			t.adj.apply(tmp, row)
			copy(row, tmp)
		}
		t.folded[r].Store(true)
	})
}

// buildForecastTable builds the table for m's parameters: the raw CDF rows
// and m's evolution, to be folded into each row on its first use. It only
// reads m.
func buildForecastTable(m *Model) *forecastTable {
	tau, ticks := m.p.Tick.Seconds(), m.p.ForecastTicks
	t := &forecastTable{
		bins: len(m.binRate),
		off:  make([]int, ticks),
		maxK: make([]int, ticks),
		adj:  m.evolveAdjoint(),
	}
	rows := 0
	for i := 0; i < ticks; i++ {
		t.off[i] = rows
		t.maxK[i] = int(m.p.MaxRate*tau*float64(i+1)*1.25) + 10
		rows += t.maxK[i] + 1
	}
	t.flat = make([]float64, rows*t.bins)
	t.folds, t.folded = make([]sync.Once, rows), make([]atomic.Bool, rows)
	for i := 0; i < ticks; i++ {
		horizon := float64(i+1) * tau
		for j, r := range m.binRate {
			cdf := stats.PoissonCDFTable(r*horizon, t.maxK[i])
			for k, v := range cdf {
				t.flat[(t.off[i]+k)*t.bins+j] = v
			}
		}
	}
	return t
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

// tableCacheLimit bounds the process-wide forecast-table cache: a table at
// the default parameters holds ~250k float64s (~2 MB) and takes ~3.5 ms to
// build (its rows then fold on first use), and entries are never evicted,
// so a library consumer sweeping a table-shaping parameter (Sigma and
// OutageEscape among them) past this many distinct values gets uncached
// (per-forecaster) tables rather than unbounded retained memory.
const tableCacheLimit = 16

// tables is the process-wide forecast-table cache; the tests read its
// Counts to check the sharing.
var tables = memo.New[tableKey, *forecastTable](tableCacheLimit)

// forecastTableFor returns the table for m's parameters, built once by the
// first user of its key.
func forecastTableFor(m *Model) *forecastTable {
	key := tableKey{
		bins:         m.NumBins(),
		ticks:        m.p.ForecastTicks,
		maxRate:      m.p.MaxRate,
		tick:         m.p.Tick,
		sigma:        m.p.Sigma,
		outageEscape: m.p.OutageEscape,
	}
	return tables.Get(key, func() *forecastTable { return buildForecastTable(m) })
}

// DeliveryForecaster produces Sprout's cautious packet-delivery forecast
// (§3.3): for each of the next HorizonTicks ticks, a lower bound Q_i such
// that the cumulative number of packets delivered by tick i meets or
// exceeds Q_i with probability at least Confidence.
//
// As in the paper, the steps are precomputed: the table indexed by (tick,
// count, rate bin) holds the Poisson CDFs with the observation-free
// evolution of the posterior folded in (each row on its first read), built
// once per parameter set (including σ and λz, which shape the evolution)
// and shared process-wide, so a runtime forecast is only weighted sums of
// table rows over the live bins of the current posterior.
//
// The cumulative count by future tick i, conditioned on the rate path, is a
// Poisson with mean ∫λ dt. Following the paper's "sum over each λ" step we
// approximate the path integral by λ_i · i·τ where λ_i is the rate at tick
// i drawn from the evolved (observation-free) posterior; the Brownian
// evolution itself carries the uncertainty between ticks.
//
// A DeliveryForecaster is not safe for concurrent use, but Clone returns
// an independent copy (sharing only the table) so each worker in
// a parallel experiment owns its own filter state.
type DeliveryForecaster struct {
	model *Model
	tbl   *forecastTable

	// Scratch for ForecastAll, retained so repeated forecasts allocate
	// nothing: the requested confidences as p-values sorted ascending,
	// each remembering its caller slot; one search per (sorted slot,
	// tick), slot-major, which only ever grows, so each keeps its last
	// answer as the next search's start whatever was asked in between;
	// and the unresolved searches' indices.
	sweepP   []float64
	sweepIdx []int
	searches []search
	live     []int
	one      [1]float64 // ForecastAt's single-confidence view
}

// NewDeliveryForecaster builds the forecaster for the model, reusing the
// process-wide table when one with matching parameters exists.
func NewDeliveryForecaster(m *Model) *DeliveryForecaster {
	return &DeliveryForecaster{model: m, tbl: forecastTableFor(m)}
}

// Clone returns an independent forecaster: the model is deep-copied, the
// scratch (search starts included) is the clone's own from its first
// forecast, and the table is shared. The clone may be Ticked
// concurrently with the original.
func (f *DeliveryForecaster) Clone() *DeliveryForecaster {
	return &DeliveryForecaster{model: f.model.Clone(), tbl: f.tbl}
}

// Model returns the underlying Bayesian filter.
func (f *DeliveryForecaster) Model() *Model { return f.model }

// Reset implements Forecaster: the model returns to its uniform prior and
// the searches forget their starts, so the work of a forecast does not
// depend on what the forecaster ran before; the shared table and the
// scratch buffers are retained, so reuse allocates nothing.
func (f *DeliveryForecaster) Reset() {
	f.model.Reset()
	clear(f.searches)
}

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
// This is the §5.5 sweep entry point. The forecast at slot s of the
// p-values sorted ascending and tick i is
//
//	q(s, i) = max(q(s, i−1), q(s−1, i), r(s, i))
//
// (a missing neighbour counts 0), where r(s, i) is the first count whose
// mixture CDF at tick i exceeds p_s, capped at the tick's count bound:
// the bound is nondecreasing across ticks and across confidences by
// construction. Each r is a search of its own, independent of every
// other, so all of them run in lockstep: every pass over the posterior's
// window answers one probe from each unresolved search (mixturePass). A
// search starts at its own answer in the previous forecast and gallops,
// then bisects; F is nondecreasing in the count, so any correct search
// finds the same r, and the start decides only how many passes it takes.
func (f *DeliveryForecaster) ForecastAll(dst []float64, confidences []float64) []float64 {
	nc := len(confidences)
	if nc == 0 {
		return dst
	}
	m, tbl := f.model, f.tbl
	ticks := m.p.ForecastTicks
	base := len(dst)
	dst = extendFloats(dst, nc*ticks)

	// Order the p-values ascending (insertion sort into retained
	// scratch; sweeps are tiny), remembering each one's caller slot.
	f.sweepP, f.sweepIdx = f.sweepP[:0], f.sweepIdx[:0]
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
	}

	for len(f.searches) < nc*ticks {
		f.searches = append(f.searches, search{})
	}
	ss := f.searches[:nc*ticks]
	live := f.live[:0]
	for s, p := range f.sweepP {
		for i := 0; i < ticks; i++ {
			if ss[s*ticks+i].start(p, i, tbl.maxK[i]) {
				live = append(live, s*ticks+i)
			}
		}
	}
	f.live = live
	tbl.lockstep(ss, live, m.probs[m.lo:m.hi], m.lo, m.scratch)

	for s := range f.sweepP {
		ci := f.sweepIdx[s]
		q := 0
		for i := 0; i < ticks; i++ {
			q = max(q, ss[s*ticks+i].hi)
			if s > 0 {
				q = max(q, int(dst[base+f.sweepIdx[s-1]*ticks+i]))
			}
			dst[base+ci*ticks+i] = float64(q)
		}
	}
	return dst
}

// search is one (p, tick) search of ForecastAll for r, the first count
// whose mixture CDF F at tick exceeds p, or the tick's count bound maxK
// when no count below it does (F(maxK) is never evaluated). F is
// nondecreasing in the count, so lo < r <= hi holds throughout: F(lo) <= p
// (lo == -1 until a probe shows one), and hi == maxK or F(hi) > p. A
// resolved search holds r in hi, which is where the next search in its
// slot starts.
type search struct {
	p      float64
	tick   int
	lo, hi int
	k      int // the next probe: lo < k < hi
	stride int // the gallop's next step
}

// start begins the search for p at tick from the previous answer in hi
// (0 after Reset; any value is only a start). It reports whether the
// search needs a probe.
func (s *search) start(p float64, tick, maxK int) bool {
	*s = search{p: p, tick: tick, lo: -1, hi: maxK, k: min(max(s.hi, 0), maxK-1), stride: 1}
	return maxK > 0
}

// observe narrows the search by v, F at its probe, and picks the next
// probe: a gallop away from the one bound the probes have moved — strides
// 1, 2, 4, … from the last probe — until both have moved, then bisection.
// A start that was the answer costs two probes (one when r is 0 or maxK).
// It reports whether the search needs another probe.
func (s *search) observe(v float64, maxK int) bool {
	if v > s.p {
		s.hi = s.k
	} else {
		s.lo = s.k
	}
	switch {
	case s.hi-s.lo <= 1:
		return false
	case s.lo < 0:
		s.k = max(s.hi-s.stride, 0)
	case s.hi == maxK:
		s.k = min(s.lo+s.stride, maxK-1)
	default:
		s.k = s.lo + (s.hi-s.lo)/2
	}
	s.stride *= 2
	return true
}

// lockstep runs the searches ss[j] for j in live to resolution against
// the posterior window w, which starts at bin lo: every pass takes one
// probe from each unresolved search, probeLanes per mixturePass, each
// probe's row folded first if it is the row's first use (tmp, bins long,
// is the fold's buffer). live is overwritten.
func (t *forecastTable) lockstep(ss []search, live []int, w []float64, lo int, tmp []float64) {
	var at [probeLanes]int
	var sums [probeLanes]float64
	for len(live) > 0 {
		// The searches still unresolved after this pass are compacted to
		// the front of live as they go; the write index never passes the
		// read index, so no unread entry is overwritten.
		kept := 0
		for c := 0; c < len(live); c += probeLanes {
			chunk := live[c:min(c+probeLanes, len(live))]
			for x, j := range chunk {
				r := t.off[ss[j].tick] + ss[j].k
				if !t.folded[r].Load() {
					t.fold(r, ss[j].tick, tmp)
				}
				at[x] = r*t.bins + lo
			}
			mixturePass(sums[:len(chunk)], w, t.flat, at[:len(chunk)])
			for x, j := range chunk {
				if ss[j].observe(sums[x], t.maxK[ss[j].tick]) {
					live[kept] = j
					kept++
				}
			}
		}
		live = live[:kept]
	}
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

// probeLanes is how many probes one pass of the mixture kernel evaluates:
// two YMM accumulators of four.
const probeLanes = 8

// mixturePass sets sums[n] = Σ_j w[j]·flat[at[n]+j] for every probe n <
// len(sums) == len(at) <= probeLanes: the mixture CDF at each probe's
// (tick, count), whose row starts at at[n] already offset to the
// posterior's window w (weights outside it are exactly zero). Every sum
// takes its terms in ascending bin order from +0, each product rounded
// before its add, so each value is bit-identical to a plain one-row loop
// (sweep_test.go's mixtureCDF) whatever the path or the probe count.
//
// Where gatherSIMD is set, the bins of w's whole four-bin blocks go to the
// AVX2 kernel (mixture8), which holds one bin of four probes per YMM
// register; the tail bins follow in the portable loop, which is every
// other platform's whole pass: four probes per scan of w, each its own
// serial add chain. Lanes past len(sums) repeat the last probe's row and
// are dropped. Each row is sliced here, so the kernel reads only what Go
// has bounds-checked.
func mixturePass(sums, w, flat []float64, at []int) {
	n := len(sums)
	var acc [probeLanes]float64
	done := 0
	if gatherSIMD && len(w) >= 4 {
		done = len(w) &^ 3
		var rows [probeLanes]*float64
		for i := range rows {
			rows[i] = &flat[at[min(i, n-1)]:][:len(w)][0]
		}
		mixture8(&acc, w[:done], &rows)
	}
	tail := w[done:]
	for g := 0; g < n; g += 4 {
		r0 := flat[at[g]+done:][:len(tail)]
		r1 := flat[at[min(g+1, n-1)]+done:][:len(tail)]
		r2 := flat[at[min(g+2, n-1)]+done:][:len(tail)]
		r3 := flat[at[min(g+3, n-1)]+done:][:len(tail)]
		s0, s1, s2, s3 := acc[g], acc[g+1], acc[g+2], acc[g+3]
		for j, wj := range tail {
			s0 += float64(wj * r0[j])
			s1 += float64(wj * r1[j])
			s2 += float64(wj * r2[j])
			s3 += float64(wj * r3[j])
		}
		acc[g], acc[g+1], acc[g+2], acc[g+3] = s0, s1, s2, s3
	}
	copy(sums, acc[:n])
}

// EWMAForecaster is the Sprout-EWMA variant (§5.3): it tracks the observed
// per-tick delivery rate with an exponentially weighted moving average and
// simply predicts that the link will continue at that speed for the whole
// horizon, with no caution. It runs on Sprout's 20 ms tick and 8-tick
// horizon.
type EWMAForecaster struct {
	rate   float64 // packets per tick
	primed bool
}

// ewmaGain is the per-tick EWMA gain. One eighth per 20 ms tick tracks
// rate increases within ~150 ms while still smoothing Poisson noise.
const ewmaGain = 0.125

// NewEWMAForecaster returns the Sprout-EWMA rate tracker.
func NewEWMAForecaster() *EWMAForecaster { return &EWMAForecaster{} }

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
	e.rate += float64(ewmaGain * (observed - e.rate))
}

// Rate returns the current smoothed rate estimate in packets per tick.
func (e *EWMAForecaster) Rate() float64 { return e.rate }

// Reset implements Forecaster: back to the unprimed zero-rate state.
func (e *EWMAForecaster) Reset() { e.rate, e.primed = 0, false }

// HorizonTicks implements Forecaster.
func (e *EWMAForecaster) HorizonTicks() int { return DefaultForecastTicks }

// TickDuration implements Forecaster.
func (e *EWMAForecaster) TickDuration() time.Duration { return DefaultTick }

// Forecast implements Forecaster: a straight line at the current rate.
func (e *EWMAForecaster) Forecast(dst []float64) []float64 {
	for i := 1; i <= DefaultForecastTicks; i++ {
		dst = append(dst, math.Max(0, e.rate*float64(i)))
	}
	return dst
}
