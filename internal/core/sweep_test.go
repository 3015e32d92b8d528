package core

import (
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
		ticks := fc.HorizonTicks()
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

// mixtureCDF is F(k) = Σ_j w_j · row(tick, k)[j] written the plain way, one
// count per pass: the oracle the multi-count passes of the quantile search
// are held to.
func (f *DeliveryForecaster) mixtureCDF(tick, k int) float64 {
	row := f.tbl.row(tick, k)
	var s float64
	for j := f.lo; j < f.hi; j++ {
		s += f.w[j] * row[j]
	}
	return s
}

// TestQuantileSearchMatchesLinearScan: mixtureQuantileFrom's multi-count
// passes and quinary search return exactly what a linear scan from lo0
// returns — the first count at or after lo0 whose mixture CDF exceeds p —
// on random trained posteriors, at every horizon tick and the five Fig. 9
// confidences, from warm starts that reach every branch: the bottom, the
// previous tick's answer, a random count, past the tick's bound, and every
// count within six of it (with fewer than five counts left the first pass
// is the last). Near the bound F is all but 1, so no confidence sends a
// search there: each start is also searched at thresholds taken from F
// itself, which put the answer at chosen counts, and at one F never
// exceeds.
func TestQuantileSearchMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 40; trial++ {
		p := []Params{{}, {NumBins: 64, MaxRate: 250}, {MaxRate: 60, ForecastTicks: 3}}[trial%3]
		f := NewDeliveryForecaster(NewModel(p))
		rate := rng.Float64() * 1.2 * f.model.p.MaxRate * f.model.p.Tick.Seconds()
		for i := 20 + rng.Intn(200); i > 0; i-- {
			f.Tick(float64(poissonSample(rng, rate)), Observation(rng.Intn(3)))
		}
		f.w, f.lo, f.hi = f.model.probs, f.model.lo, f.model.hi
		for _, conf := range []float64{0.05, 0.25, 0.50, 0.75, 0.95} {
			prev := 0
			for tick := 0; tick < f.HorizonTicks(); tick++ {
				hi := f.tbl.maxK[tick]
				starts := []int{0, prev, rng.Intn(hi + 1), hi + 2}
				for d := 0; d <= 6; d++ {
					starts = append(starts, max(0, hi-d))
				}
				for _, lo0 := range starts {
					ps := []float64{clampP(conf), 2}
					for k := lo0; k <= min(lo0+6, hi); k++ {
						ps = append(ps, f.mixtureCDF(tick, k))
					}
					for _, pv := range ps {
						want := max(lo0, hi)
						for k := lo0; k < hi; k++ {
							if f.mixtureCDF(tick, k) > pv {
								want = k
								break
							}
						}
						if got := f.mixtureQuantileFrom(tick, pv, lo0); got != want {
							t.Fatalf("trial %d tick %d p %v from %d (bound %d): search %d, linear scan %d",
								trial, tick, pv, lo0, hi, got, want)
						}
					}
				}
				prev = f.mixtureQuantileFrom(tick, clampP(conf), prev)
			}
		}
	}
}

// TestForecastAllAppendSemantics: ForecastAll appends after an existing
// prefix, like every other dst-appending API in the package.
func TestForecastAllAppendSemantics(t *testing.T) {
	fc := trainedForecaster(t, 100, 14)
	prefix := []float64{-1, -2}
	out := fc.ForecastAll(prefix, []float64{0.95, 0.5})
	if len(out) != 2+2*fc.HorizonTicks() {
		t.Fatalf("len = %d, want %d", len(out), 2+2*fc.HorizonTicks())
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
