package harness

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"sprout/internal/engine"
	"sprout/internal/link"
	"sprout/internal/scenario"
	"sprout/internal/trace"
)

// The rows' links: §5.6, §5.7, Figure 1 and the §7 extension run on the
// first canonical network, Figure 9 on the last.
var (
	verizonLTE = trace.CanonicalNetworks()[0].Name
	tmobile3G  = trace.CanonicalNetworks()[3].Name
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// dirName is how the figures print a spec's direction.
var dirName = map[string]string{"down": "Downlink", "up": "Uplink"}

// linkNames lists the eight canonical (network, direction) links the way
// Figure 7 names them, in paper order.
func linkNames() []string {
	var names []string
	for _, pair := range trace.CanonicalNetworks() {
		names = append(names, pair.Name+" "+dirName["down"], pair.Name+" "+dirName["up"])
	}
	return names
}

// Cell is one scheme's result on one link (a point in a Figure 7 chart).
type Cell struct {
	Scheme          string
	ThroughputKbps  float64
	SelfInflictedMs float64
	Utilization     float64
	MeanDelayMs     float64
}

// CellOf projects a scenario result to a figure cell under the given
// display label.
func CellOf(r scenario.Result, label string) Cell {
	return Cell{
		Scheme:          label,
		ThroughputKbps:  r.Metrics.ThroughputBps / 1000,
		SelfInflictedMs: ms(r.Metrics.SelfInflicted95),
		Utilization:     r.Metrics.Utilization,
		MeanDelayMs:     ms(r.Metrics.MeanDelay),
	}
}

// FormatCells renders cells as an aligned text table sorted by delay;
// cells of equal delay keep the order they came in.
func FormatCells(title string, cells []Cell) string {
	sort.SliceStable(cells, func(i, j int) bool { return cells[i].SelfInflictedMs < cells[j].SelfInflictedMs })
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-14s %12s %16s %6s\n", title, "scheme", "tput (kbps)", "self-delay (ms)", "util")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-14s %12.0f %16.0f %6.2f\n", c.Scheme, c.ThroughputKbps, c.SelfInflictedMs, c.Utilization)
	}
	return b.String()
}

// MatrixSpecs builds the full schemes × canonical-links spec grid and the
// link names, scheme-major: job index si*len(links)+li runs schemes[si] on
// links[li], so the first len(links) jobs each touch a different link and
// at startup every worker generates a distinct trace pair instead of
// piling onto one link's single-flight entry. The grid is the unit of
// sharding: a spec's global index depends only on the scheme and link
// orders, so any shard decomposition of the same grid agrees on job
// identity.
func MatrixSpecs(opt Options, schemes []string) ([]scenario.Spec, []string) {
	opt = opt.withDefaults()
	names := linkNames()
	specs := make([]scenario.Spec, 0, len(names)*len(schemes))
	for _, s := range schemes {
		for _, pair := range trace.CanonicalNetworks() {
			for _, dir := range []string{"down", "up"} {
				spec := opt.baseSpec()
				spec.Name = fmt.Sprintf("%s on %s %s", s, pair.Name, dirName[dir])
				spec.Scheme = s
				spec.Link = pair.Name
				spec.Direction = dir
				specs = append(specs, spec)
			}
		}
	}
	return specs, names
}

// matrixGrid is the grid behind Tables 1/2 and Figures 7/8: every paper
// scheme on every canonical link.
func matrixGrid(opt Options) []scenario.Spec {
	specs, _ := MatrixSpecs(opt, scenario.PaperSchemes())
	return specs
}

// matrix is the schemes × links result grid of a MatrixSpecs run.
type matrix struct {
	// links lists the (network, direction) link names in paper order.
	links []string
	// cells maps link name -> scheme -> cell.
	cells map[string]map[string]Cell
}

// matrixOf assembles the grid from index-ordered results of
// MatrixSpecs(opt, schemes).
func matrixOf(schemes []string, results []scenario.Result) *matrix {
	links := linkNames()
	m := &matrix{links: links, cells: make(map[string]map[string]Cell)}
	for li, l := range links {
		row := make(map[string]Cell, len(schemes))
		for si, s := range schemes {
			row[s] = CellOf(results[si*len(links)+li], s)
		}
		m.cells[l] = row
	}
	return m
}

// summaryRow is one line of the intro tables: a scheme's average speedup
// and delay reduction relative to a reference scheme, averaged over the
// eight links.
type summaryRow struct {
	scheme string
	// avgSpeedup is mean over links of ref_throughput/scheme_throughput
	// ("Avg speedup vs <ref>").
	avgSpeedup float64
	// delayReduction is mean over links of scheme_delay/ref_delay
	// ("Delay reduction").
	delayReduction float64
	// avgDelaySec is the scheme's own mean self-inflicted delay.
	avgDelaySec float64
}

// summarize derives the intro-table rows from a matrix relative to ref.
func (m *matrix) summarize(ref string, schemes []string) []summaryRow {
	var rows []summaryRow
	for _, s := range schemes {
		var speedup, reduction, delay float64
		n := 0
		for _, l := range m.links {
			rc, sc := m.cells[l][ref], m.cells[l][s]
			if sc.ThroughputKbps == 0 || rc.SelfInflictedMs == 0 {
				continue
			}
			speedup += rc.ThroughputKbps / sc.ThroughputKbps
			reduction += sc.SelfInflictedMs / rc.SelfInflictedMs
			delay += sc.SelfInflictedMs
			n++
		}
		if n == 0 {
			continue
		}
		rows = append(rows, summaryRow{
			scheme:         s,
			avgSpeedup:     speedup / float64(n),
			delayReduction: reduction / float64(n),
			avgDelaySec:    delay / float64(n) / 1000,
		})
	}
	return rows
}

func renderSummary(ref string, rows []summaryRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %18s %18s %14s\n", "scheme",
		"avg speedup vs "+ref, "delay reduction", "avg delay (s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %18.2f %18.2f %14.2f\n",
			r.scheme, r.avgSpeedup, r.delayReduction, r.avgDelaySec)
	}
	return b.String()
}

func renderTable1(rs []scenario.Result) string {
	schemes := scenario.PaperSchemes()
	return renderSummary("sprout", matrixOf(schemes, rs).summarize("sprout", schemes))
}

func renderTable2(rs []scenario.Result) string {
	m := matrixOf(scenario.PaperSchemes(), rs)
	rows := m.summarize("sprout-ewma", []string{"sprout-ewma", "sprout", "cubic", "cubic-codel"})
	return renderSummary("sprout-ewma", rows)
}

// renderFig7 prints one chart per link. Cells go to FormatCells in scheme
// order, so schemes that tie on delay print in that order.
func renderFig7(rs []scenario.Result) string {
	links, schemes := linkNames(), scenario.PaperSchemes()
	var b strings.Builder
	for li, l := range links {
		cells := make([]Cell, len(schemes))
		for si, s := range schemes {
			cells[si] = CellOf(rs[si*len(links)+li], s)
		}
		b.WriteString("\n" + FormatCells(l, cells))
	}
	return b.String()
}

// fig8Row is one scheme's point in Figure 8: utilization vs delay averaged
// over the eight links.
type fig8Row struct {
	scheme             string
	avgUtilizationPct  float64
	avgSelfInflictedMs float64
}

// fig8 derives the average utilization/delay points from a matrix.
func (m *matrix) fig8(schemes []string) []fig8Row {
	var rows []fig8Row
	for _, s := range schemes {
		var util, delay float64
		for _, l := range m.links {
			c := m.cells[l][s]
			util += c.Utilization
			delay += c.SelfInflictedMs
		}
		n := float64(len(m.links))
		rows = append(rows, fig8Row{
			scheme:             s,
			avgUtilizationPct:  util / n * 100,
			avgSelfInflictedMs: delay / n,
		})
	}
	return rows
}

func renderFig8(rs []scenario.Result) string {
	m := matrixOf(scenario.PaperSchemes(), rs)
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %12s %18s\n", "scheme", "util (%)", "self-delay (ms)")
	for _, r := range m.fig8([]string{"sprout", "sprout-ewma", "cubic", "cubic-codel"}) {
		fmt.Fprintf(&b, "%-14s %12.0f %18.0f\n", r.scheme, r.avgUtilizationPct, r.avgSelfInflictedMs)
	}
	return b.String()
}

// fig9Specs is the confidence-parameter sweep on the T-Mobile 3G uplink
// (§5.5): Sprout at 95/75/50/25/5% confidence plus all baselines.
func fig9Specs(opt Options) []scenario.Spec {
	sweep := opt.baseSpec()
	sweep.Name, sweep.Scheme = "sprout", "sprout"
	sweep.Link, sweep.Direction = tmobile3G, "up"
	sweep.Confidences = []float64{0.95, 0.75, 0.50, 0.25, 0.05}
	specs, err := sweep.Sweep()
	if err != nil {
		panic(err) // constants above; cannot fail
	}
	for _, s := range scenario.PaperSchemes() {
		if s == "sprout" {
			continue
		}
		spec := opt.baseSpec()
		spec.Name, spec.Scheme = s, s
		spec.Link, spec.Direction = tmobile3G, "up"
		specs = append(specs, spec)
	}
	return specs
}

// fig9Cells labels each result with its spec's name ("sprout-95%", …,
// then the baselines' scheme names).
func fig9Cells(rs []scenario.Result) []Cell {
	cells := make([]Cell, len(rs))
	for i, r := range rs {
		cells[i] = CellOf(r, r.Spec.Name)
	}
	return cells
}

func renderFig9(rs []scenario.Result) string {
	return FormatCells("", fig9Cells(rs))
}

// lossSpecs runs Sprout over the Verizon LTE trace pair with 0%, 5% and
// 10% Bernoulli loss in each direction (§5.6).
func lossSpecs(opt Options) []scenario.Spec {
	var specs []scenario.Spec
	for _, dir := range []string{"down", "up"} {
		for _, loss := range []float64{0, 0.05, 0.10} {
			spec := opt.baseSpec()
			spec.Name = fmt.Sprintf("sprout %s %.0f%% loss", dir, loss*100)
			spec.Scheme = "sprout"
			spec.Link, spec.Direction = verizonLTE, dir
			spec.Loss = loss
			specs = append(specs, spec)
		}
	}
	return specs
}

func renderLoss(rs []scenario.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %6s %14s %16s\n", "direction", "loss", "tput (kbps)", "self-delay (ms)")
	for _, r := range rs {
		fmt.Fprintf(&b, "%-10s %5d%% %14.0f %16.0f\n",
			dirName[r.Spec.Direction], int(r.Spec.Loss*100),
			r.Metrics.ThroughputBps/1000, ms(r.Metrics.SelfInflicted95))
	}
	return b.String()
}

// fig1Specs is the paper's opening figure: Sprout and Skype over the same
// Verizon LTE downlink trace, delivery logs kept for the per-second series.
func fig1Specs(opt Options) []scenario.Spec {
	specs := make([]scenario.Spec, 2)
	for i, scheme := range []string{"sprout", "skype"} {
		spec := opt.baseSpec()
		spec.Name, spec.Scheme = scheme, scheme
		spec.Link = verizonLTE
		spec.KeepDeliveries = true
		specs[i] = spec
	}
	return specs
}

// fig1Point is one second of the Figure 1 timeseries.
type fig1Point struct {
	second        int
	capacityKbps  float64
	sproutKbps    float64
	skypeKbps     float64
	sproutDelayMs float64 // worst d(t) within the second
	skypeDelayMs  float64
}

// fig1Series derives per-second throughput against the driving trace's
// capacity, and the evolving end-to-end delay, from the two delivery logs.
func fig1Series(rs []scenario.Result) []fig1Point {
	sprout, skype := rs[0].Deliveries, rs[1].Deliveries
	data := rs[0].Spec.DataTrace
	secs := int(time.Duration(rs[0].Spec.Duration) / time.Second)
	pts := make([]fig1Point, 0, secs)
	for s := 0; s < secs; s++ {
		from := time.Duration(s) * time.Second
		to := from + time.Second
		pts = append(pts, fig1Point{
			second:        s,
			capacityKbps:  float64(data.CapacityBits(from, to)) / 1000,
			sproutKbps:    perSecondKbps(sprout, from, to),
			skypeKbps:     perSecondKbps(skype, from, to),
			sproutDelayMs: perSecondDelayMs(sprout, from, to),
			skypeDelayMs:  perSecondDelayMs(skype, from, to),
		})
	}
	return pts
}

func renderFig1(rs []scenario.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%4s %10s %10s %10s %12s %12s\n",
		"sec", "capacity", "sprout", "skype", "sproutDelay", "skypeDelay")
	for _, p := range fig1Series(rs) {
		fmt.Fprintf(&b, "%4d %10.0f %10.0f %10.0f %12.0f %12.0f\n",
			p.second, p.capacityKbps, p.sproutKbps, p.skypeKbps, p.sproutDelayMs, p.skypeDelayMs)
	}
	return b.String()
}

func perSecondKbps(dl []link.Delivery, from, to time.Duration) float64 {
	var bits int64
	for _, d := range dl {
		if d.DeliveredAt >= from && d.DeliveredAt < to {
			bits += int64(d.Size) * 8
		}
	}
	return float64(bits) / (to - from).Seconds() / 1000
}

func perSecondDelayMs(dl []link.Delivery, from, to time.Duration) float64 {
	var worst time.Duration
	for _, d := range dl {
		if d.DeliveredAt >= from && d.DeliveredAt < to {
			worst = max(worst, d.DeliveredAt-d.SentAt)
		}
	}
	return ms(worst)
}

// fig2Stats generates a long saturated Verizon LTE downlink trace and
// analyses its interarrivals with trace.ComputeStats, the analysis behind
// Figure 2 (the paper fits t^-3.27 on its 1.2M-packet trace) and the one
// `tracegen -info` runs on a trace file.
func fig2Stats(opt Options) trace.Stats {
	model, _ := trace.CanonicalLink("Verizon-LTE-down")
	// Longer than the experiment runs: Figure 2 is about distribution
	// tails, which need samples. The trace RNG derives through
	// engine.DeriveSeed like every other job's randomness, so seed
	// derivation stays uniform and auditable across the suite.
	rng := rand.New(rand.NewSource(engine.DeriveSeed(opt.Seed, "fig2", model.Name)))
	return model.Generate(10*opt.Duration, rng).ComputeStats()
}

func renderFig2(opt Options) (string, error) {
	s := fig2Stats(opt)
	if s.Opportunities < 2 {
		return "", fmt.Errorf("empty trace")
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var b strings.Builder
	fmt.Fprintf(&b, "interarrivals analysed:        %d\n", s.Opportunities-1)
	fmt.Fprintf(&b, "median interarrival:           %.0f us\n", us(s.InterarrivalP50))
	fmt.Fprintf(&b, "99th percentile interarrival:  %.0f us\n", us(s.InterarrivalP99))
	fmt.Fprintf(&b, "fraction within 20 ms:         %.4f (paper: 99.99%%)\n", s.FracWithin20ms)
	fmt.Fprintf(&b, "power-law tail exponent:       %.2f over %d bins (paper: -3.27)\n",
		s.TailExponent, s.TailBins)
	fmt.Fprintf(&b, "longest gap (outage):          %.2f s\n", s.MaxGap.Seconds())
	return b.String(), nil
}

// Client flow identifiers inside the shared link / tunnel. The historical
// ids are pinned in the specs so regenerated tables stay byte-identical.
const (
	flowCubic = 10
	flowSkype = 20
)

// tunnelSpecs is the §5.7 comparison: a TCP Cubic bulk download competing
// with a Skype-model videoconference over the Verizon LTE downlink, once
// directly on the link and once through SproutTunnel.
func tunnelSpecs(opt Options) []scenario.Spec {
	specs := make([]scenario.Spec, 2)
	for i, name := range []string{"direct", "tunneled"} {
		spec := opt.baseSpec()
		spec.Name = name
		spec.Groups = []scenario.FlowGroup{
			{Scheme: "cubic", Count: 1, BaseFlow: flowCubic},
			{Scheme: "skype", Count: 1, BaseFlow: flowSkype},
		}
		spec.Link = verizonLTE
		spec.Tunnel = name == "tunneled"
		specs[i] = spec
	}
	return specs
}

// renderTunnel reads each run's two flows in roster (declaration) order:
// Cubic, Skype.
func renderTunnel(rs []scenario.Result) string {
	direct, tunneled := rs[0], rs[1]
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %12s %12s %8s\n", "metric", "direct", "via sprout", "change")
	row := func(label string, prec int, a, t float64) {
		pct := 0.0
		if a != 0 {
			pct = (t - a) / a * 100
		}
		fmt.Fprintf(&b, "%-18s %12.*f %12.*f %+7.0f%%\n", label, prec, a, prec, t, pct)
	}
	row("cubic tput (kbps)", 0, direct.Flows[0].ThroughputBps/1000, tunneled.Flows[0].ThroughputBps/1000)
	row("skype tput (kbps)", 0, direct.Flows[1].ThroughputBps/1000, tunneled.Flows[1].ThroughputBps/1000)
	row("skype 95% delay (s)", 2, direct.Flows[1].Delay95.Seconds(), tunneled.Flows[1].Delay95.Seconds())
	fmt.Fprintf(&b, "tunnel head drops: %d\n", tunneled.HeadDrops)
	return b.String()
}

// multiSpecs is the configuration §7 of the paper leaves unevaluated ("We
// have not evaluated the performance of multiple Sprouts sharing a
// queue"): one Sprout session alone on the Verizon LTE downlink, then two
// sharing its queue.
func multiSpecs(opt Options) []scenario.Spec {
	specs := make([]scenario.Spec, 2)
	for i, name := range []string{"solo", "shared"} {
		spec := opt.baseSpec()
		spec.Name, spec.Scheme = name, "sprout"
		spec.Flows = i + 1
		spec.Link = verizonLTE
		specs[i] = spec
	}
	return specs
}

func renderMulti(rs []scenario.Result) string {
	solo, shared := rs[0], rs[1]
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %10.0f kbps   95%% delay %v\n", "solo session",
		solo.Flows[0].ThroughputBps/1000, solo.Delay95.Round(time.Millisecond))
	var sum float64
	for i, f := range shared.Flows {
		kbps := f.ThroughputBps / 1000
		fmt.Fprintf(&b, "%-26s %10.0f kbps\n", fmt.Sprintf("shared, flow %d", i+1), kbps)
		sum += kbps
	}
	fmt.Fprintf(&b, "%-26s %10.0f kbps   95%% delay %v   Jain fairness %.3f\n",
		"shared, aggregate", sum, shared.Delay95.Round(time.Millisecond), shared.JainIndex)
	return b.String()
}
