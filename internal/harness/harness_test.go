package harness

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"sprout/internal/engine"
	"sprout/internal/scenario"
	"sprout/internal/trace"
)

// shortOpt keeps test runtime low while leaving enough steady state for
// shape assertions (full-length runs happen in cmd/sproutbench and the
// repository benchmarks).
var shortOpt = Options{Duration: 45 * time.Second, Skip: 12 * time.Second}

// runSpecs executes specs on a fresh engine of the given width.
func runSpecs(t testing.TB, specs []scenario.Spec, workers int) ([]scenario.Result, engine.Stats) {
	t.Helper()
	results, st, err := scenario.RunAll(t.Context(), specs, workers)
	if err != nil {
		t.Fatal(err)
	}
	return results, st
}

// runMatrix runs schemes over the eight canonical links.
func runMatrix(t testing.TB, opt Options, schemes []string, workers int) (*matrix, engine.Stats) {
	t.Helper()
	specs, _ := MatrixSpecs(opt, schemes)
	results, st := runSpecs(t, specs, workers)
	return matrixOf(schemes, results), st
}

func runAllOnLTE(t *testing.T) map[string]Cell {
	t.Helper()
	specs := make([]scenario.Spec, len(scenario.PaperSchemes()))
	for i, s := range scenario.PaperSchemes() {
		specs[i] = shortOpt.withDefaults().baseSpec()
		specs[i].Scheme, specs[i].Link = s, verizonLTE
	}
	results, _ := runSpecs(t, specs, 0)
	out := make(map[string]Cell)
	for i, s := range scenario.PaperSchemes() {
		out[s] = CellOf(results[i], s)
		t.Logf("%-12s tput=%7.0f kbps self95=%7.0f ms util=%.2f",
			s, out[s].ThroughputKbps, out[s].SelfInflictedMs, out[s].Utilization)
	}
	return out
}

// TestFigure7Shape asserts the qualitative relationships of Figure 7 on
// the Verizon LTE downlink: who wins on delay, who on throughput, and the
// ordering between key pairs of schemes.
func TestFigure7Shape(t *testing.T) {
	c := runAllOnLTE(t)

	// Sprout has (near-)lowest delay: below every interactive app and
	// below Cubic/LEDBAT/Sprout-EWMA.
	for _, s := range []string{"skype", "hangout", "facetime", "cubic", "ledbat", "sprout-ewma"} {
		if c["sprout"].SelfInflictedMs >= c[s].SelfInflictedMs {
			t.Errorf("sprout delay %.0fms should be below %s %.0fms",
				c["sprout"].SelfInflictedMs, s, c[s].SelfInflictedMs)
		}
	}
	// Sprout throughput beats every commercial app.
	for _, s := range []string{"skype", "hangout", "facetime"} {
		if c["sprout"].ThroughputKbps <= c[s].ThroughputKbps {
			t.Errorf("sprout tput %.0f should beat %s %.0f",
				c["sprout"].ThroughputKbps, s, c[s].ThroughputKbps)
		}
	}
	// Sprout-EWMA out-throughputs Sprout (the §5.3 tradeoff).
	if c["sprout-ewma"].ThroughputKbps <= c["sprout"].ThroughputKbps {
		t.Errorf("sprout-ewma tput %.0f should exceed sprout %.0f",
			c["sprout-ewma"].ThroughputKbps, c["sprout"].ThroughputKbps)
	}
	// Cubic builds multi-second queues; CoDel rescues it (§5.4).
	if c["cubic"].SelfInflictedMs < 2000 {
		t.Errorf("cubic self-delay = %.0fms, want multi-second", c["cubic"].SelfInflictedMs)
	}
	if c["cubic-codel"].SelfInflictedMs >= c["cubic"].SelfInflictedMs/5 {
		t.Errorf("codel should slash cubic's delay: %.0f vs %.0f",
			c["cubic-codel"].SelfInflictedMs, c["cubic"].SelfInflictedMs)
	}
	// CoDel costs Cubic some throughput (§2.1/§5.4).
	if c["cubic-codel"].ThroughputKbps >= c["cubic"].ThroughputKbps {
		t.Errorf("cubic-codel tput %.0f should be below cubic %.0f",
			c["cubic-codel"].ThroughputKbps, c["cubic"].ThroughputKbps)
	}
}

func TestGenerateTracePairDirections(t *testing.T) {
	pair := trace.CanonicalNetworks()[0]
	d1, f1 := scenario.GenerateTracePair(pair, "down", 10*time.Second, 5)
	d2, f2 := scenario.GenerateTracePair(pair, "up", 10*time.Second, 5)
	if d1.Name != f2.Name || f1.Name != d2.Name {
		t.Errorf("directions not swapped: %q/%q vs %q/%q", d1.Name, f1.Name, d2.Name, f2.Name)
	}
	if d1.Name != "Verizon-LTE-down" {
		t.Errorf("down data trace = %q", d1.Name)
	}
}

func TestTunnelComparisonShape(t *testing.T) {
	results, _ := runSpecs(t, tunnelSpecs(shortOpt.withDefaults()), 0)
	// Flows are in roster (declaration) order: Cubic (10), Skype (20).
	cubicDirect, skypeDirect := results[0].Flows[0], results[0].Flows[1]
	cubicTunnel, skypeTunnel := results[1].Flows[0], results[1].Flows[1]
	if cubicDirect.Flow != flowCubic || skypeTunnel.Flow != flowSkype {
		t.Fatalf("flow order: %+v, %+v", results[0].Flows, results[1].Flows)
	}
	t.Logf("direct: cubic=%.0f skype=%.0f delay=%v", cubicDirect.ThroughputBps/1000, skypeDirect.ThroughputBps/1000, skypeDirect.Delay95)
	t.Logf("tunnel: cubic=%.0f skype=%.0f delay=%v drops=%d", cubicTunnel.ThroughputBps/1000, skypeTunnel.ThroughputBps/1000, skypeTunnel.Delay95, results[1].HeadDrops)
	// §5.7: the tunnel slashes Skype's delay by an order of magnitude...
	if skypeTunnel.Delay95*5 >= skypeDirect.Delay95 {
		t.Errorf("tunnel should slash skype delay: %v -> %v", skypeDirect.Delay95, skypeTunnel.Delay95)
	}
	// ...multiplies Skype's throughput...
	if skypeTunnel.ThroughputBps <= 3*skypeDirect.ThroughputBps {
		t.Errorf("tunnel should raise skype tput: %.0f -> %.0f", skypeDirect.ThroughputBps, skypeTunnel.ThroughputBps)
	}
	// ...and Cubic pays a substantial throughput penalty.
	if cubicTunnel.ThroughputBps >= cubicDirect.ThroughputBps {
		t.Errorf("cubic should pay: %.0f -> %.0f", cubicDirect.ThroughputBps, cubicTunnel.ThroughputBps)
	}
	// Interactivity restored in absolute terms.
	if skypeTunnel.Delay95 > time.Second {
		t.Errorf("tunneled skype delay = %v, want interactive", skypeTunnel.Delay95)
	}
}

func TestLossTableShape(t *testing.T) {
	results, _ := runSpecs(t, lossSpecs(shortOpt.withDefaults()), 0)
	if len(results) != 6 {
		t.Fatalf("got %d rows, want 6", len(results))
	}
	for _, r := range results {
		t.Logf("%s: %7.0f kbps %6.0f ms", r.Spec.Name, r.Metrics.ThroughputBps/1000, ms(r.Metrics.SelfInflicted95))
	}
	// §5.6: throughput diminishes with loss but remains substantial, and
	// delay stays low. The first three rows are the downlink at 0/5/10%.
	d0, d1, d2 := results[0].Metrics.ThroughputBps, results[1].Metrics.ThroughputBps, results[2].Metrics.ThroughputBps
	if !(d0 > d1 && d1 > d2) {
		t.Errorf("downlink throughput should decrease with loss: %v %v %v", d0, d1, d2)
	}
	if d2 < d0/5 {
		t.Errorf("10%% loss throughput %.0f collapsed (0%% = %.0f); Sprout should be loss-resilient", d2, d0)
	}
	for _, r := range results {
		if d := r.Metrics.SelfInflicted95; d > 800*time.Millisecond {
			t.Errorf("%s: delay %v too high; loss should not inflate delay", r.Spec.Name, d)
		}
	}
}

func TestFig9ConfidenceSweepShape(t *testing.T) {
	results, _ := runSpecs(t, fig9Specs(shortOpt.withDefaults()), 0)
	cells := fig9Cells(results)
	byName := map[string]Cell{}
	for _, c := range cells {
		byName[c.Scheme] = c
		t.Logf("%-12s tput=%6.0f delay=%6.0f", c.Scheme, c.ThroughputKbps, c.SelfInflictedMs)
	}
	// §5.5: decreasing confidence trades delay for throughput. Demand
	// monotone throughput along 95% -> 50% -> 5% and that 5% has both
	// more throughput and more delay than 95%.
	c95, c50, c05 := byName["sprout-95%"], byName["sprout-50%"], byName["sprout-5%"]
	if !(c95.ThroughputKbps <= c50.ThroughputKbps && c50.ThroughputKbps <= c05.ThroughputKbps) {
		t.Errorf("throughput not monotone in confidence: %v %v %v",
			c95.ThroughputKbps, c50.ThroughputKbps, c05.ThroughputKbps)
	}
	if c05.SelfInflictedMs <= c95.SelfInflictedMs {
		t.Errorf("5%% confidence delay %.0f should exceed 95%% delay %.0f",
			c05.SelfInflictedMs, c95.SelfInflictedMs)
	}
}

func TestFig1Timeseries(t *testing.T) {
	results, _ := runSpecs(t, fig1Specs(Options{Duration: 30 * time.Second, Skip: 5 * time.Second}.withDefaults()), 0)
	pts := fig1Series(results)
	if len(pts) != 30 {
		t.Fatalf("got %d points, want 30", len(pts))
	}
	var sproutSum, skypeSum, capSum float64
	for _, p := range pts[5:] {
		sproutSum += p.sproutKbps
		skypeSum += p.skypeKbps
		capSum += p.capacityKbps
	}
	if sproutSum == 0 || skypeSum == 0 || capSum == 0 {
		t.Errorf("empty series: sprout=%v skype=%v cap=%v", sproutSum, skypeSum, capSum)
	}
	if sproutSum > capSum {
		t.Errorf("sprout delivered more than capacity: %v > %v", sproutSum, capSum)
	}
}

func TestFig2Distribution(t *testing.T) {
	s := fig2Stats(Options{Duration: 60 * time.Second}.withDefaults())
	if s.Opportunities < 2 {
		t.Fatal("empty trace")
	}
	t.Logf("fig2: n=%d p50=%v p99=%v frac<20ms=%.4f tail=%.2f (bins=%d) maxgap=%v",
		s.Opportunities-1, s.InterarrivalP50, s.InterarrivalP99, s.FracWithin20ms, s.TailExponent, s.TailBins, s.MaxGap)
	// Figure 2's qualitative content: the vast majority of interarrivals
	// are short, but the distribution has a heavy tail with multi-second
	// gaps and a negative power-law exponent.
	if s.FracWithin20ms < 0.95 {
		t.Errorf("frac within 20ms = %v, want > 0.95", s.FracWithin20ms)
	}
	if s.MaxGap < time.Second {
		t.Errorf("max gap = %v, want outage-scale gaps", s.MaxGap)
	}
	if s.TailExponent >= -1 {
		t.Errorf("tail exponent = %v, want steep negative slope", s.TailExponent)
	}
}

func TestMatrixAndSummaries(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run is slow")
	}
	// A reduced matrix: three schemes over all links.
	m, _ := runMatrix(t, Options{Duration: 30 * time.Second, Skip: 8 * time.Second},
		[]string{"sprout", "cubic", "skype"}, 0)
	if len(m.links) != 8 {
		t.Fatalf("links = %d, want 8", len(m.links))
	}
	rows := m.summarize("sprout", []string{"sprout", "cubic", "skype"})
	if len(rows) != 3 {
		t.Fatalf("summary rows = %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("%-8s speedup=%.2f delayred=%.2f avg=%.2fs", r.scheme, r.avgSpeedup, r.delayReduction, r.avgDelaySec)
	}
	if rows[0].scheme != "sprout" || rows[0].avgSpeedup != 1 || rows[0].delayReduction != 1 {
		t.Errorf("reference row should be exactly 1.0x: %+v", rows[0])
	}
	// Cubic's delay across the 8 links dwarfs Sprout's.
	for _, r := range rows {
		if r.scheme == "cubic" && r.delayReduction < 3 {
			t.Errorf("cubic delay reduction = %.1fx, want large", r.delayReduction)
		}
	}
	f8 := m.fig8([]string{"sprout", "cubic"})
	if len(f8) != 2 {
		t.Fatalf("fig8 rows = %d", len(f8))
	}
	if f8[1].avgUtilizationPct <= f8[0].avgUtilizationPct {
		t.Errorf("cubic util %.0f%% should exceed sprout %.0f%%", f8[1].avgUtilizationPct, f8[0].avgUtilizationPct)
	}
}

func TestFormatCells(t *testing.T) {
	out := FormatCells("test", []Cell{
		{Scheme: "b", ThroughputKbps: 100, SelfInflictedMs: 50},
		{Scheme: "a", ThroughputKbps: 200, SelfInflictedMs: 10},
	})
	// Sorted by delay: "a" first.
	if idxA, idxB := strings.Index(out, "\na"), strings.Index(out, "\nb"); idxA < 0 || idxA > idxB {
		t.Errorf("cells not sorted by delay:\n%s", out)
	}
}

// TestFig7TieOrder: two schemes with equal delay on a link (cubic-codel
// and vegas on the 3G downlink of an 8 s run, bit for bit) print in scheme
// order, whatever order the results reach the renderer's lookup in.
func TestFig7TieOrder(t *testing.T) {
	schemes, links := scenario.PaperSchemes(), linkNames()
	results := make([]scenario.Result, len(schemes)*len(links))
	for si := range schemes {
		for li := range links {
			r := &results[si*len(links)+li]
			r.Metrics.SelfInflicted95 = time.Duration(si+1) * time.Millisecond
		}
	}
	// Tie schemes 4 and 6 on every link.
	for li := range links {
		results[6*len(links)+li].Metrics.SelfInflicted95 = results[4*len(links)+li].Metrics.SelfInflicted95
	}
	want := renderFig7(results)
	if a, b := strings.Index(want, "\n"+schemes[4]+" "), strings.Index(want, "\n"+schemes[6]+" "); a < 0 || a > b {
		t.Fatalf("%s should print before %s:\n%s", schemes[4], schemes[6], want)
	}
	for i := 0; i < 50; i++ {
		if got := renderFig7(results); got != want {
			t.Fatalf("render %d differs:\n%s\nwant:\n%s", i, got, want)
		}
	}
	// FormatCells itself: equal-delay cells keep their input order under
	// any shuffle of the others.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		cells := []Cell{{Scheme: "x", SelfInflictedMs: 5}, {Scheme: "t1", SelfInflictedMs: 7}, {Scheme: "y", SelfInflictedMs: 9}, {Scheme: "z", SelfInflictedMs: 1}}
		rng.Shuffle(len(cells), func(a, b int) { cells[a], cells[b] = cells[b], cells[a] })
		cells = append(cells, Cell{Scheme: "t2", SelfInflictedMs: 7})
		out := FormatCells("", cells)
		if a, b := strings.Index(out, "\nt1 "), strings.Index(out, "\nt2 "); a < 0 || a > b {
			t.Fatalf("shuffle %d: t1 should stay ahead of t2:\n%s", i, out)
		}
	}
}
