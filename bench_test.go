// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5). The ablations of the design choices called out in DESIGN.md §5.5
// are a test, TestAblations in ablation_test.go.
//
// BenchmarkSuite executes each row of harness.Suite in virtual time and
// logs the section sproutbench would print for it, so `go test -bench`
// output doubles as a compact results table. Durations are shorter than
// cmd/sproutbench's defaults to keep the full bench run in minutes; the
// shapes are the same. How fast any of it runs is not recorded here: that
// is bench/ and BENCHMARK.json.
package sprout_test

import (
	"context"
	"testing"
	"time"

	"sprout"
	"sprout/internal/engine"
	"sprout/internal/harness"
)

// benchOpt keeps macro-bench runs short but past warmup.
var benchOpt = harness.Options{Duration: 60 * time.Second, Skip: 15 * time.Second}

// BenchmarkSuite regenerates the paper's tables and figures, one
// sub-benchmark per row of the suite table, on every core; the text is
// identical at any worker count (the engine's determinism guarantee).
func BenchmarkSuite(b *testing.B) {
	eng := engine.New(0)
	for _, row := range harness.Suite {
		b.Run(row.Key, func(b *testing.B) {
			var sections []string
			for i := 0; i < b.N; i++ {
				var err error
				sections, _, err = harness.Run(context.Background(), eng, engine.NewCache(), []harness.Experiment{row}, benchOpt)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.Log(sections[0])
		})
	}
}

// BenchmarkForecastSweepNaive is the one benchmark here that reports time:
// the §5.5 five-confidence sweep as five independent ForecastAt calls, each
// a lockstep search of its own over the ticks (the five take turns at the
// one confidence slot's starts). bench/probes times the single ForecastAll
// call that answers all five together (core.forecast_all5_us).
func BenchmarkForecastSweepNaive(b *testing.B) {
	f := sprout.NewDeliveryForecaster(sprout.NewModel(sprout.Params{}))
	for i := 0; i < 200; i++ {
		f.Tick(6, sprout.ObsExact)
	}
	confidences := []float64{0.95, 0.75, 0.50, 0.25, 0.05}
	var buf []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for _, c := range confidences {
			buf = f.ForecastAt(buf, c)
		}
	}
}
