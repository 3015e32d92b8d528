// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5), plus ablations of the design choices called out in DESIGN.md §5.
//
// Each benchmark executes the corresponding experiment in virtual time and
// reports the headline numbers as custom metrics (kbps, delay-ms), so
// `go test -bench` output doubles as a compact results table. Durations
// are shorter than cmd/sproutbench's defaults to keep the full bench run
// in minutes; the shapes are the same. How fast any of it runs is not
// recorded here: that is bench/ and BENCHMARK.json (DESIGN.md §9).
package sprout_test

import (
	"math/rand"
	"testing"
	"time"

	"sprout"
	"sprout/internal/harness"
)

// benchOpt keeps macro-bench runs short but past warmup. Workers: 0 runs
// each experiment's grid through the parallel engine on every core; the
// reported metrics are identical at any worker count (the engine's
// determinism guarantee), only the wall-clock changes.
var benchOpt = harness.Options{Duration: 60 * time.Second, Skip: 15 * time.Second, Workers: 0}

// BenchmarkFig1SkypeVsSprout regenerates the Figure 1 timeseries.
func BenchmarkFig1SkypeVsSprout(b *testing.B) {
	var pts []harness.Fig1Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = harness.Fig1(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sproutAvg, skypeAvg, worstSkypeDelay float64
	for _, p := range pts[15:] {
		sproutAvg += p.SproutKbps
		skypeAvg += p.SkypeKbps
		if p.SkypeDelayMs > worstSkypeDelay {
			worstSkypeDelay = p.SkypeDelayMs
		}
	}
	n := float64(len(pts) - 15)
	b.ReportMetric(sproutAvg/n, "sprout-kbps")
	b.ReportMetric(skypeAvg/n, "skype-kbps")
	b.ReportMetric(worstSkypeDelay, "skype-worst-delay-ms")
}

// BenchmarkFig2Interarrivals regenerates the Figure 2 distribution fit.
func BenchmarkFig2Interarrivals(b *testing.B) {
	var d harness.Fig2Data
	for i := 0; i < b.N; i++ {
		var err error
		d, err = harness.Fig2(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.FracWithin20*100, "pct-within-20ms")
	b.ReportMetric(d.TailExponent, "tail-exponent")
}

// runMatrix is shared by the Table 1 / Table 2 / Fig 7 / Fig 8 benches.
func runMatrix(b *testing.B, schemes []string) *harness.Matrix {
	b.Helper()
	var m *harness.Matrix
	for i := 0; i < b.N; i++ {
		var err error
		m, err = harness.RunMatrix(benchOpt, schemes)
		if err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// BenchmarkTable1Summary regenerates the intro table: Sprout vs every
// scheme, averaged over the eight links.
func BenchmarkTable1Summary(b *testing.B) {
	m := runMatrix(b, nil)
	for _, r := range m.Summarize("sprout", harness.Schemes()) {
		b.ReportMetric(r.AvgSpeedup, r.Scheme+"-speedup-x")
		b.ReportMetric(r.AvgDelaySec*1000, r.Scheme+"-delay-ms")
	}
}

// BenchmarkTable2EWMA regenerates the Sprout-EWMA intro table.
func BenchmarkTable2EWMA(b *testing.B) {
	m := runMatrix(b, []string{"sprout-ewma", "sprout", "cubic", "cubic-codel"})
	for _, r := range m.Summarize("sprout-ewma", []string{"sprout-ewma", "sprout", "cubic", "cubic-codel"}) {
		b.ReportMetric(r.AvgSpeedup, r.Scheme+"-speedup-x")
		b.ReportMetric(r.AvgDelaySec*1000, r.Scheme+"-delay-ms")
	}
}

// BenchmarkFig7PerLink regenerates the eight per-link charts; it reports
// the Verizon LTE downlink chart's Sprout and Cubic points as exemplars.
func BenchmarkFig7PerLink(b *testing.B) {
	m := runMatrix(b, nil)
	lte := m.Cells["Verizon LTE Downlink"]
	b.ReportMetric(lte["sprout"].ThroughputKbps, "lte-down-sprout-kbps")
	b.ReportMetric(lte["sprout"].SelfInflictedMs, "lte-down-sprout-delay-ms")
	b.ReportMetric(lte["cubic"].ThroughputKbps, "lte-down-cubic-kbps")
	b.ReportMetric(lte["cubic"].SelfInflictedMs, "lte-down-cubic-delay-ms")
}

// BenchmarkFig8Utilization regenerates the utilization-vs-delay averages.
func BenchmarkFig8Utilization(b *testing.B) {
	m := runMatrix(b, []string{"sprout", "sprout-ewma", "cubic", "cubic-codel"})
	for _, r := range m.Fig8([]string{"sprout", "sprout-ewma", "cubic", "cubic-codel"}) {
		b.ReportMetric(r.AvgUtilizationPct, r.Scheme+"-util-pct")
		b.ReportMetric(r.AvgSelfInflictedMs, r.Scheme+"-delay-ms")
	}
}

// BenchmarkFig9Confidence regenerates the §5.5 confidence sweep.
func BenchmarkFig9Confidence(b *testing.B) {
	var cells []harness.Cell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = harness.Fig9(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cells {
		switch c.Scheme {
		case "sprout-95%", "sprout-50%", "sprout-5%":
			b.ReportMetric(c.ThroughputKbps, c.Scheme+"-kbps")
			b.ReportMetric(c.SelfInflictedMs, c.Scheme+"-delay-ms")
		}
	}
}

// BenchmarkLossResilience regenerates the §5.6 loss table.
func BenchmarkLossResilience(b *testing.B) {
	var rows []harness.LossRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.LossTable(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Direction == "Downlink" {
			suffix := map[int]string{0: "0pct", 5: "5pct", 10: "10pct"}[r.LossPct]
			b.ReportMetric(r.ThroughputKbps, "down-"+suffix+"-kbps")
			b.ReportMetric(r.SelfInflictedMs, "down-"+suffix+"-delay-ms")
		}
	}
}

// BenchmarkTunnelIsolation regenerates the §5.7 tunnel table.
func BenchmarkTunnelIsolation(b *testing.B) {
	var res harness.TunnelResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.RunTunnelComparison(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.CubicKbpsDirect, "cubic-direct-kbps")
	b.ReportMetric(res.CubicKbpsTunnel, "cubic-tunnel-kbps")
	b.ReportMetric(res.SkypeKbpsDirect, "skype-direct-kbps")
	b.ReportMetric(res.SkypeKbpsTunnel, "skype-tunnel-kbps")
	b.ReportMetric(res.SkypeDelay95Direct.Seconds()*1000, "skype-direct-delay-ms")
	b.ReportMetric(res.SkypeDelay95Tunnel.Seconds()*1000, "skype-tunnel-delay-ms")
}

// BenchmarkForecastSweepNaive is the one benchmark here that reports time:
// the §5.5 five-confidence sweep as five independent ForecastAt calls, each
// walking the count axis from zero. It is the reference DESIGN.md §12.2
// holds ForecastAll's shared walk against, and bench/probes times only the
// fused side (core.forecast_all5_us).
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

// --- Ablations (DESIGN.md §5) ---

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

// --- Extensions ---

// BenchmarkMultiSprout measures two Sprout sessions sharing one bottleneck
// queue — the case §7 of the paper leaves unevaluated.
func BenchmarkMultiSprout(b *testing.B) {
	var res harness.MultiSproutResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.RunMultiSprout(benchOpt, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.SoloKbps, "solo-kbps")
	b.ReportMetric(res.AggregateKbps, "shared-agg-kbps")
	b.ReportMetric(res.JainIndex, "jain")
	b.ReportMetric(res.Delay95.Seconds()*1000, "shared-delay-ms")
	b.ReportMetric(res.SoloDelay95.Seconds()*1000, "solo-delay-ms")
}

// BenchmarkAblateAdaptiveSigma compares the frozen-σ model with the
// adaptive-σ extension (§3.1's future work) on the Verizon LTE downlink.
func BenchmarkAblateAdaptiveSigma(b *testing.B) {
	nets := sprout.CanonicalNetworks()
	data, fb := sprout.GenerateTracePair(nets[0], "down", benchOpt.Duration, 1)
	run := func(scheme string) sprout.ExperimentResult {
		res, err := sprout.RunExperiment(sprout.ExperimentConfig{
			Scheme: scheme, DataTrace: data, FeedbackTrace: fb,
			Duration: benchOpt.Duration, Skip: benchOpt.Skip,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var frozen, adaptive sprout.ExperimentResult
	for i := 0; i < b.N; i++ {
		frozen = run("sprout")
		adaptive = run("sprout-adaptive")
	}
	b.ReportMetric(frozen.ThroughputBps/1000, "frozen-kbps")
	b.ReportMetric(adaptive.ThroughputBps/1000, "adaptive-kbps")
	b.ReportMetric(float64(frozen.SelfInflicted95)/1e6, "frozen-delay-ms")
	b.ReportMetric(float64(adaptive.SelfInflicted95)/1e6, "adaptive-delay-ms")
}

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
