// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5), plus ablations of the design choices called out in DESIGN.md §5.5.
//
// BenchmarkSuite executes each row of harness.Suite in virtual time and
// logs the section sproutbench would print for it; the ablations report
// their headline numbers as custom metrics (kbps, delay-ms), so `go test
// -bench` output doubles as a compact results table. Durations are shorter
// than cmd/sproutbench's defaults to keep the full bench run in minutes;
// the shapes are the same. How fast any of it runs is not recorded here:
// that is bench/ and BENCHMARK.json.
package sprout_test

import (
	"context"
	"math/rand"
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

// --- Ablations (DESIGN.md §5.5) ---

// ablate runs Sprout on the Verizon LTE downlink with custom model
// parameters and reports throughput and delay.
func ablate(b *testing.B, params sprout.Params, lookahead int) {
	b.Helper()
	down, _ := sprout.CanonicalLink("Verizon-LTE-down")
	up, _ := sprout.CanonicalLink("Verizon-LTE-up")
	dur := benchOpt.Duration
	var m sprout.Metrics
	for i := 0; i < b.N; i++ {
		data := down.Generate(dur+5*time.Second, rand.New(rand.NewSource(1)))
		fbt := up.Generate(dur+5*time.Second, rand.New(rand.NewSource(2)))
		loop := sprout.NewSimulation()
		var rcv *sprout.Receiver
		var snd *sprout.Sender
		fwd := sprout.NewLink(loop, sprout.LinkConfig{
			Trace: data, PropagationDelay: 20 * time.Millisecond,
		}, func(p *sprout.Packet) { rcv.Receive(p) })
		fwd.RecordDeliveries(true)
		rev := sprout.NewLink(loop, sprout.LinkConfig{
			Trace: fbt, PropagationDelay: 20 * time.Millisecond,
		}, func(p *sprout.Packet) { snd.Receive(p) })
		fc := sprout.NewDeliveryForecaster(sprout.NewModel(params))
		rcv = sprout.NewReceiver(sprout.ReceiverConfig{Clock: loop, Conn: rev, Forecaster: fc})
		scfg := sprout.SenderConfig{Clock: loop, Conn: fwd, Tick: params.Tick}
		if lookahead > 0 {
			scfg.LookaheadTicks = lookahead
		}
		snd = sprout.NewSender(scfg)
		loop.Run(dur)
		m = sprout.Evaluate(fwd.Deliveries(), data, 20*time.Millisecond, benchOpt.Skip, dur)
	}
	b.ReportMetric(m.ThroughputBps/1000, "kbps")
	b.ReportMetric(float64(m.SelfInflicted95)/float64(time.Millisecond), "delay-ms")
}

// BenchmarkAblateTick varies the inference tick (paper: 20 ms).
func BenchmarkAblateTick10ms(b *testing.B) {
	ablate(b, sprout.Params{Tick: 10 * time.Millisecond}, 0)
}
func BenchmarkAblateTick20ms(b *testing.B) { ablate(b, sprout.Params{}, 0) }
func BenchmarkAblateTick40ms(b *testing.B) {
	ablate(b, sprout.Params{Tick: 40 * time.Millisecond}, 0)
}

// BenchmarkAblateBins varies the λ discretization (paper: 256 bins).
func BenchmarkAblateBins64(b *testing.B)  { ablate(b, sprout.Params{NumBins: 64}, 0) }
func BenchmarkAblateBins256(b *testing.B) { ablate(b, sprout.Params{}, 0) }
func BenchmarkAblateBins512(b *testing.B) { ablate(b, sprout.Params{NumBins: 512}, 0) }

// BenchmarkAblateSigma varies the Brownian noise power (paper: 200).
func BenchmarkAblateSigma50(b *testing.B)  { ablate(b, sprout.Params{Sigma: 50}, 0) }
func BenchmarkAblateSigma200(b *testing.B) { ablate(b, sprout.Params{}, 0) }
func BenchmarkAblateSigma800(b *testing.B) { ablate(b, sprout.Params{Sigma: 800}, 0) }

// BenchmarkAblateLookahead varies the sender's window horizon
// (paper: 5 ticks = 100 ms).
func BenchmarkAblateLookahead3(b *testing.B) { ablate(b, sprout.Params{}, 3) }
func BenchmarkAblateLookahead5(b *testing.B) { ablate(b, sprout.Params{}, 5) }
func BenchmarkAblateLookahead8(b *testing.B) { ablate(b, sprout.Params{}, 8) }

// BenchmarkAblateObservationRule compares the censored-observation update
// (this implementation's default; DESIGN.md §6.1) against the paper's
// literal skip rule for underflowed ticks. The literal rule leaves the
// estimate frozen whenever the sender is not saturating, which starves the
// ramp; the censored update preserves the skip semantics for empty ticks
// while still extracting the lower bound from partial ones.
func BenchmarkAblateObservationRule(b *testing.B) {
	down, _ := sprout.CanonicalLink("Verizon-LTE-down")
	up, _ := sprout.CanonicalLink("Verizon-LTE-up")
	dur := benchOpt.Duration
	run := func(literal bool) sprout.Metrics {
		data := down.Generate(dur+5*time.Second, rand.New(rand.NewSource(1)))
		fbt := up.Generate(dur+5*time.Second, rand.New(rand.NewSource(2)))
		loop := sprout.NewSimulation()
		var rcv *sprout.Receiver
		var snd *sprout.Sender
		fwd := sprout.NewLink(loop, sprout.LinkConfig{
			Trace: data, PropagationDelay: 20 * time.Millisecond,
		}, func(p *sprout.Packet) { rcv.Receive(p) })
		fwd.RecordDeliveries(true)
		rev := sprout.NewLink(loop, sprout.LinkConfig{
			Trace: fbt, PropagationDelay: 20 * time.Millisecond,
		}, func(p *sprout.Packet) { snd.Receive(p) })
		rcv = sprout.NewReceiver(sprout.ReceiverConfig{Clock: loop, Conn: rev, LiteralSkip: literal})
		snd = sprout.NewSender(sprout.SenderConfig{Clock: loop, Conn: fwd})
		loop.Run(dur)
		return sprout.Evaluate(fwd.Deliveries(), data, 20*time.Millisecond, benchOpt.Skip, dur)
	}
	var censored, literal sprout.Metrics
	for i := 0; i < b.N; i++ {
		censored = run(false)
		literal = run(true)
	}
	b.ReportMetric(censored.ThroughputBps/1000, "censored-kbps")
	b.ReportMetric(literal.ThroughputBps/1000, "literal-skip-kbps")
	b.ReportMetric(float64(censored.SelfInflicted95)/1e6, "censored-delay-ms")
	b.ReportMetric(float64(literal.SelfInflicted95)/1e6, "literal-skip-delay-ms")
}
