package core

import (
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestForecastAllMatchesForecastAt: ForecastAll must append, per
// confidence, exactly the block a standalone ForecastAt call appends —
// bit-identical, for any order, duplicates and extreme values included.
// This is the contract that lets Fig9's §5.5 sweep share one walk.
func TestForecastAllMatchesForecastAt(t *testing.T) {
	forecasters := []*DeliveryForecaster{
		trainedForecaster(t, 6, 11),
		trainedForecaster(t, 300, 12),
		trainedForecaster(t, 950, 13),
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(6))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fc := forecasters[rng.Intn(len(forecasters))]
		nc := 1 + rng.Intn(7)
		confs := make([]float64, nc)
		for i := range confs {
			switch rng.Intn(5) {
			case 0: // duplicate of an earlier entry
				confs[i] = confs[rng.Intn(i+1)]
			case 1: // extremes clampP must absorb
				confs[i] = []float64{0, 1, 0.999999}[rng.Intn(3)]
			default:
				confs[i] = rng.Float64()
			}
		}
		all := fc.ForecastAll(nil, confs)
		ticks := fc.model.p.ForecastTicks
		if len(all) != nc*ticks {
			t.Logf("len(all) = %d, want %d", len(all), nc*ticks)
			return false
		}
		for ci, conf := range confs {
			want := fc.ForecastAt(nil, conf)
			got := all[ci*ticks : (ci+1)*ticks]
			for i := range want {
				if got[i] != want[i] {
					t.Logf("conf %v tick %d: ForecastAll %v, ForecastAt %v (confs %v)",
						conf, i, got[i], want[i], confs)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// mixtureCDF is F(k) = Σ_j w_j · row(tick, k)[j] under the model's
// posterior, written the plain way, one count per pass: what
// linearForecast scans with and every mixturePass lane must equal.
func (f *DeliveryForecaster) mixtureCDF(tick, k int) float64 {
	m := f.model
	row := f.tbl.row(tick, k)
	var s float64
	for j := m.lo; j < m.hi; j++ {
		s += m.probs[j] * row[j]
	}
	return s
}

// linearForecast is what ForecastAll must return, computed the way the
// search before the lockstep one defined it: per confidence and tick, a
// linear scan from the previous tick's answer for the first count whose
// mixtureCDF exceeds p, stopping at the tick's count bound.
func (f *DeliveryForecaster) linearForecast(confidences []float64) []float64 {
	ticks := f.model.p.ForecastTicks
	out := make([]float64, len(confidences)*ticks)
	for ci, conf := range confidences {
		q := 0
		for i := 0; i < ticks; i++ {
			for q < f.tbl.maxK[i] && f.mixtureCDF(i, q) <= clampP(conf) {
				q++
			}
			out[ci*ticks+i] = float64(q)
		}
	}
	return out
}

// searchGrids are the parameter sets the search tests cross: bin counts
// around one and several four-bin kernel blocks, horizons of one tick to
// past the default. -short keeps only the default horizon of the 256-bin
// grid, whose tables are most of the build time under the race detector.
func searchGrids() []Params {
	var ps []Params
	for _, bins := range []int{8, 17, 64, 256} {
		for _, ticks := range []int{1, 3, 8, 12} {
			if bins == 256 && ticks != DefaultForecastTicks && testing.Short() {
				continue
			}
			ps = append(ps, Params{NumBins: bins, ForecastTicks: ticks})
		}
	}
	return ps
}

// searchConfidences are Fig. 9's five, the extremes clampP absorbs, and
// duplicates, in no order.
var searchConfidences = [][]float64{
	{0.95},
	{0.95, 0.75, 0.50, 0.25, 0.05},
	{0, 1, 0.5},
	{0.05, 0.95, 0.05, 1, 0.95, 0},
}

// setPosterior replaces f's posterior with random mass on [lo, lo+width):
// each bin kept with probability (keep+1)/256, the window's edge bins
// always, normalized. Any non-negative weights keep F nondecreasing in
// the count, which is all the searches assume.
func setPosterior(f *DeliveryForecaster, lo, width int, seed int64, keep uint8) {
	m := f.model
	n := m.NumBins()
	lo %= n
	width = 1 + width%(n-lo)
	rng := rand.New(rand.NewSource(seed))
	clear(m.probs)
	var sum float64
	for j := lo; j < lo+width; j++ {
		if j == lo || j == lo+width-1 || rng.Intn(256) <= int(keep) {
			m.probs[j] = rng.Float64() + 0x1p-70
			sum += m.probs[j]
		}
	}
	for j := lo; j < lo+width; j++ {
		m.probs[j] /= sum
	}
	m.lo, m.hi = lo, lo+width
}

// setHints points every search's start, for confidences, at its current
// start plus shift (mode "shift"), at the tick's count bound ("maxK") or
// at a random count from below zero to past the bound ("random"); "none"
// clears them as Reset does.
func setHints(f *DeliveryForecaster, nconf int, mode string, shift int, rng *rand.Rand) {
	ticks := f.model.p.ForecastTicks
	for len(f.searches) < nconf*ticks {
		f.searches = append(f.searches, search{})
	}
	for si := range f.searches[:nconf*ticks] {
		s, maxK := &f.searches[si], f.tbl.maxK[si%ticks]
		switch mode {
		case "none":
			*s = search{}
		case "shift":
			s.hi += shift
		case "maxK":
			s.hi = maxK
		case "random":
			s.hi = rng.Intn(maxK+5) - 2
		}
	}
}

// checkForecast requires ForecastAll on f's current posterior and
// searches to equal want, f.linearForecast(confs), slot for slot, ==.
func checkForecast(t *testing.T, f *DeliveryForecaster, confs, want []float64, what string) {
	t.Helper()
	got := f.ForecastAll(nil, confs)
	for i := range want {
		if got[i] != want[i] {
			m := f.model
			t.Fatalf("%s: bins %d ticks %d window [%d,%d) confs %v slot %d: ForecastAll %v, linear scan %v\n got %v\nwant %v",
				what, m.NumBins(), f.model.p.ForecastTicks, m.lo, m.hi, confs, i, got[i], want[i], got, want)
		}
	}
}

// TestForecastMatchesLinearScan: the lockstep search returns the linear
// scan's integers from every start — none, the answer itself, the answer
// off by 1 up to the count bound either way, every start at the bound, and
// random ones — on trained posteriors and on random windows one to a few
// bins wide, at every grid of searchGrids and every confidence set.
func TestForecastMatchesLinearScan(t *testing.T) {
	freshTableCache(t)
	rng := rand.New(rand.NewSource(25))
	for _, p := range searchGrids() {
		f := NewDeliveryForecaster(NewModel(p))
		top := f.tbl.maxK[len(f.tbl.maxK)-1]
		var shifts []int
		for d := 1; d <= top; d = max(d+1, d*3/2) {
			shifts = append(shifts, d, -d)
		}
		shifts = append(shifts, top, -top)
		for trial := 0; trial < 6; trial++ {
			if trial < 3 {
				f.Reset()
				rate := rng.Float64() * 1.2 * f.model.p.MaxRate * f.model.p.Tick.Seconds()
				for i := 20 + rng.Intn(200); i > 0; i-- {
					f.Tick(float64(poissonSample(rng, rate)), Observation(rng.Intn(3)))
				}
			} else {
				width := []int{1, 2, 3, 5, 6, 7, 9, 13}[rng.Intn(8)]
				setPosterior(f, rng.Intn(f.model.NumBins()), width-1, rng.Int63(), uint8(rng.Intn(256)))
			}
			for _, confs := range searchConfidences {
				want := f.linearForecast(confs)
				setHints(f, len(confs), "none", 0, rng)
				checkForecast(t, f, confs, want, "no start")
				checkForecast(t, f, confs, want, "exact start")
				for _, d := range shifts {
					setHints(f, len(confs), "shift", d, rng)
					checkForecast(t, f, confs, want, fmt.Sprintf("start off by %+d", d))
				}
				setHints(f, len(confs), "maxK", 0, rng)
				checkForecast(t, f, confs, want, "start at the bound")
				for i := 0; i < 4; i++ {
					setHints(f, len(confs), "random", 0, rng)
					checkForecast(t, f, confs, want, "random start")
				}
			}
		}
	}
}

// FuzzForecastAll holds the lockstep search to the linear scan on
// whatever grid, posterior window, confidence set and starts the fuzzer
// reaches.
func FuzzForecastAll(f *testing.F) {
	freshTableCache(f)
	grids := searchGrids()
	fcs := make([]*DeliveryForecaster, len(grids))
	for i, p := range grids {
		fcs[i] = NewDeliveryForecaster(NewModel(p))
	}
	modes := []string{"none", "shift", "maxK", "random"}
	for gi := range grids {
		for ci := range searchConfidences {
			f.Add(uint8(gi), uint16(0), uint16(65535), int64(gi), uint8(255), uint8(ci), uint8(0), int16(0))
			f.Add(uint8(gi), uint16(3*gi), uint16(gi%4), int64(-gi), uint8(90), uint8(ci), uint8(1), int16(1-gi))
			f.Add(uint8(gi), uint16(gi), uint16(7), int64(gi), uint8(30), uint8(ci), uint8(2), int16(0))
			f.Add(uint8(gi), uint16(5), uint16(40), int64(gi+7), uint8(200), uint8(ci), uint8(3), int16(0))
		}
	}
	f.Fuzz(func(t *testing.T, grid uint8, lo, width uint16, seed int64, keep, conf, mode uint8, shift int16) {
		fc := fcs[int(grid)%len(fcs)]
		setPosterior(fc, int(lo), int(width), seed, keep)
		confs := searchConfidences[int(conf)%len(searchConfidences)]
		want := fc.linearForecast(confs)
		checkForecast(t, fc, confs, want, "warm start")
		setHints(fc, len(confs), modes[int(mode)%len(modes)], int(shift), rand.New(rand.NewSource(seed)))
		checkForecast(t, fc, confs, want, modes[int(mode)%len(modes)])
	})
}

// TestMixturePassMatchesOracle is the forecast kernel's differential: at
// every probe count 1…8 and window width 1…300, each sum equals the plain
// one-row loop, ==, rows overlapping and repeating, with NaN guard words
// either side of the outputs untouched; eachGather requires the AVX2
// kernel's sums and the portable loop's to hash alike.
func TestMixturePassMatchesOracle(t *testing.T) {
	eachGather(t, func(t *testing.T, digest hash.Hash) {
		rng := rand.New(rand.NewSource(8))
		flat := make([]float64, 4096)
		for i := range flat {
			flat[i] = rng.Float64()
		}
		const guard = 4
		sentinel := math.Float64frombits(0x7ff8_dead_beef_0002)
		buf := make([]float64, probeLanes+2*guard)
		for width := 1; width <= 300; width++ {
			w := make([]float64, width)
			for j := range w {
				w[j] = rng.Float64() / float64(width)
			}
			for n := 1; n <= probeLanes; n++ {
				at := make([]int, n)
				for i := range at {
					at[i] = rng.Intn(len(flat) - width + 1)
				}
				if n > 1 && rng.Intn(3) == 0 {
					at[n-1] = at[0] // a repeated row
				}
				for i := range buf {
					buf[i] = sentinel
				}
				sums := buf[guard : guard+n : guard+n]
				mixturePass(sums, w, flat, at)
				for i, v := range buf {
					if (i < guard || i >= guard+n) && math.Float64bits(v) != math.Float64bits(sentinel) {
						t.Fatalf("width %d probes %d: wrote outside sums at offset %d", width, n, i-guard)
					}
				}
				for i, got := range sums {
					var want float64
					for j, wj := range w {
						want += wj * flat[at[i]+j]
					}
					if got != want {
						t.Fatalf("width %d probes %d lane %d: pass %x, one-row loop %x", width, n, i, got, want)
					}
				}
				hashFloats(digest, sums)
			}
		}
	})
}

// TestForecastAllAppendSemantics: ForecastAll appends after an existing
// prefix, like every other dst-appending API in the package.
func TestForecastAllAppendSemantics(t *testing.T) {
	fc := trainedForecaster(t, 100, 14)
	prefix := []float64{-1, -2}
	out := fc.ForecastAll(prefix, []float64{0.95, 0.5})
	if len(out) != 2+2*fc.model.p.ForecastTicks {
		t.Fatalf("len = %d, want %d", len(out), 2+2*fc.model.p.ForecastTicks)
	}
	if out[0] != -1 || out[1] != -2 {
		t.Fatalf("prefix clobbered: %v", out[:2])
	}
}

// TestForecastBatchMatchesIndependent: a batch over N distinct forecasters
// — different rates, confidences and horizons — must equal the
// concatenation of their independent Forecast calls, bit for bit.
func TestForecastBatchMatchesIndependent(t *testing.T) {
	mk := func(p Params, rate float64, seed int64) *DeliveryForecaster {
		f := NewDeliveryForecaster(NewModel(p))
		rng := rand.New(rand.NewSource(seed))
		tau := f.Model().Params().Tick.Seconds()
		for i := 0; i < 300; i++ {
			f.Tick(float64(poissonSample(rng, rate*tau)), ObsExact)
		}
		return f
	}
	fs := []*DeliveryForecaster{
		mk(Params{}, 6, 21),
		mk(Params{Confidence: 0.5}, 300, 22),
		mk(Params{ForecastTicks: 12}, 80, 23), // ragged horizon
		mk(Params{Confidence: 0.25, ForecastTicks: 3}, 500, 24),
	}
	got := ForecastBatch(nil, fs)
	var want []float64
	for _, f := range fs {
		want = f.Forecast(want)
	}
	if len(got) != len(want) {
		t.Fatalf("batch len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d: batch %v, independent %v", i, got[i], want[i])
		}
	}
}

func TestForecastAllAllocs(t *testing.T) {
	fc := trainedForecaster(t, 200, 31)
	confs := []float64{0.95, 0.75, 0.50, 0.25, 0.05}
	buf := fc.ForecastAll(nil, confs) // warm the scratch
	if n := testing.AllocsPerRun(200, func() {
		buf = fc.ForecastAll(buf[:0], confs)
	}); n != 0 {
		t.Errorf("ForecastAll allocates %.1f per run, want 0", n)
	}
	// One forecaster alternating a single confidence with the sweep: the
	// scratch keeps the sweep's size, so neither call regrows it.
	alt := trainedForecaster(t, 200, 32)
	buf = alt.ForecastAll(alt.ForecastAt(buf[:0], 0.95), confs)
	if n := testing.AllocsPerRun(200, func() {
		buf = alt.ForecastAt(buf[:0], 0.95)
		buf = alt.ForecastAll(buf[:0], confs)
	}); n != 0 {
		t.Errorf("ForecastAt alternating with ForecastAll allocates %.1f per run, want 0", n)
	}
}

func TestForecastBatchAllocs(t *testing.T) {
	fs := make([]*DeliveryForecaster, 8)
	for i := range fs {
		fs[i] = trainedForecaster(t, float64(50+100*i), int64(40+i))
	}
	buf := ForecastBatch(nil, fs) // warm the scratch
	if n := testing.AllocsPerRun(200, func() {
		buf = ForecastBatch(buf[:0], fs)
	}); n != 0 {
		t.Errorf("ForecastBatch allocates %.1f per run, want 0", n)
	}
}
