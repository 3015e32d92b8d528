package core

import (
	"math"
	"math/rand"
	"testing"
)

// BenchmarkBuildForecastTable is the cold cost of a table's eager part,
// the raw CDF rows and the adjoint evolution, paid once per process per
// parameter set; each row's fold is paid on the row's first use.
func BenchmarkBuildForecastTable(b *testing.B) {
	m := NewModel(Params{})
	for i := 0; i < b.N; i++ {
		buildForecastTable(m)
	}
}

// BenchmarkForecastPosterior times one cautious forecast against a
// posterior that moves as a run's does: 64 consecutive posteriors of a
// filter fed a wandering Poisson link, replayed in order, so each
// forecast's searches start from the previous one's answers. "solo" is a
// flow with the link to itself; "cell" sees a sixth of its deliveries, the
// share bench/probes gives each of its 24 cell flows, and its bound moves
// less from forecast to forecast.
func BenchmarkForecastPosterior(b *testing.B) {
	for _, c := range []struct {
		name  string
		share float64
	}{{"solo", 1}, {"cell", 1.0 / 6}} {
		b.Run(c.name, func(b *testing.B) {
			f := NewDeliveryForecaster(NewModel(Params{}))
			m := f.model
			rng := rand.New(rand.NewSource(3))
			tau := m.p.Tick.Seconds()
			rate := 300.0
			type snapshot struct {
				probs  []float64
				lo, hi int
			}
			var snaps []snapshot
			for i := 0; i < 264; i++ {
				rate = min(max(rate+rng.NormFloat64()*m.p.Sigma*math.Sqrt(tau), 0), m.p.MaxRate)
				f.Tick(float64(poissonSample(rng, rate*tau*c.share)), ObsExact)
				if i >= 200 {
					snaps = append(snaps, snapshot{append([]float64(nil), m.probs...), m.lo, m.hi})
				}
			}
			var buf []float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := snaps[i%len(snaps)]
				copy(m.probs, s.probs)
				m.lo, m.hi = s.lo, s.hi
				buf = f.Forecast(buf[:0])
			}
		})
	}
}

func BenchmarkModelClone(b *testing.B) {
	m := NewModel(Params{})
	for i := 0; i < 100; i++ {
		m.Tick(6)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Clone()
	}
}
