package core

import "testing"

// BenchmarkBuildForecastTable is the cold cost of the folded table (CDF
// rows plus the adjoint evolution applied to each) — paid once per process
// per parameter set.
func BenchmarkBuildForecastTable(b *testing.B) {
	m := NewModel(Params{})
	for i := 0; i < b.N; i++ {
		buildForecastTable(m)
	}
}

// BenchmarkMixtureQuantile isolates the flattened-table quantile scan that
// Forecast performs once per horizon tick.
func BenchmarkMixtureQuantile(b *testing.B) {
	f := trainedForecaster(b, 300, 12)
	f.w, f.lo, f.hi = f.model.probs, f.model.lo, f.model.hi
	p := 1 - DefaultConfidence
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.mixtureQuantileFrom(i%DefaultForecastTicks, p, 0)
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
