package harness

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"sprout/internal/engine"
	"sprout/internal/scenario"
	"sprout/internal/stats"
	"sprout/internal/trace"
)

// Options parameterizes a full experiment suite run.
type Options struct {
	// Duration and Skip per run. Zero takes the harness defaults
	// (150 s / 30 s).
	Duration, Skip time.Duration
	// Seed drives trace generation and all stochastic components.
	Seed int64
	// Workers bounds experiment-level parallelism: 0 uses every core
	// (GOMAXPROCS), 1 forces serial execution. Every experiment is a
	// self-contained simulation with job-local randomness, so results
	// are identical at any setting.
	Workers int
	// Engine, if non-nil, executes the runs instead of a fresh
	// engine.New(Workers) per call. A persistent engine keeps its
	// per-worker simulation worlds across calls (cmd/sproutbench runs
	// every experiment of an invocation on one), so later suites run
	// allocation-flat. Results are identical either way.
	Engine *engine.Engine
}

func (o Options) withDefaults() Options {
	if o.Duration == 0 {
		o.Duration = 150 * time.Second
	}
	if o.Skip == 0 {
		o.Skip = 30 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// baseSpec seeds a scenario spec with the suite-wide options; builders
// fill in scheme, link and impairments.
func (o Options) baseSpec() scenario.Spec {
	return scenario.Spec{
		Duration: scenario.Duration(o.Duration),
		Skip:     scenario.Duration(o.Skip),
		Seed:     o.Seed,
	}
}

// runSpecs compiles specs to engine jobs and executes them on the suite's
// worker pool. traces may be nil for a private cache.
func runSpecs(opt Options, specs []scenario.Spec, traces *engine.Cache) ([]scenario.Result, engine.Stats, error) {
	jobs, results, _ := scenario.CompileJobs(specs, traces)
	eng := opt.Engine
	if eng == nil {
		eng = engine.New(opt.Workers)
	}
	st, err := eng.Run(context.Background(), jobs)
	if err != nil {
		return nil, st, err
	}
	return results, st, nil
}

// LinkName formats a (network, direction) pair the way Figure 7 does.
func LinkName(network, direction string) string {
	if direction == "up" {
		return network + " Uplink"
	}
	return network + " Downlink"
}

// Cell is one scheme's result on one link (a point in a Figure 7 chart).
type Cell struct {
	Scheme          string
	ThroughputKbps  float64
	SelfInflictedMs float64
	Utilization     float64
	MeanDelayMs     float64
}

// RunStats reports how the engine executed a suite run.
type RunStats struct {
	// Engine summarizes the worker-pool execution.
	Engine engine.Stats
	// TracesGenerated counts distinct trace pairs built;
	// TracesReused counts jobs served from the shared cache.
	TracesGenerated, TracesReused int
}

// Matrix holds the full schemes × links result grid that Figure 7,
// Table 1, Table 2 and Figure 8 are all derived from.
type Matrix struct {
	Options Options
	// Links lists the 8 (network, direction) link names in paper order.
	Links []string
	// Cells maps link name -> scheme -> cell.
	Cells map[string]map[string]Cell
	// Stats describes the execution (not part of the scientific result:
	// two runs with different Workers produce equal Links and Cells but
	// different Stats).
	Stats RunStats
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
	type linkSpec struct {
		name string
		pair trace.NetworkPair
		dir  string
	}
	var links []linkSpec
	for _, pair := range trace.CanonicalNetworks() {
		for _, dir := range []string{"down", "up"} {
			links = append(links, linkSpec{LinkName(pair.Name, dir), pair, dir})
		}
	}
	names := make([]string, len(links))
	for i, l := range links {
		names[i] = l.name
	}
	specs := make([]scenario.Spec, 0, len(links)*len(schemes))
	for _, s := range schemes {
		for _, l := range links {
			spec := opt.baseSpec()
			spec.Name = fmt.Sprintf("%s on %s", s, l.name)
			spec.Scheme = s
			spec.Link = l.pair.Name
			spec.Direction = l.dir
			specs = append(specs, spec)
		}
	}
	return specs, names
}

// matrixFromResults assembles the Cells grid from index-ordered results of
// a MatrixSpecs grid.
func matrixFromResults(opt Options, schemes, links []string, results []scenario.Result) *Matrix {
	m := &Matrix{Options: opt, Links: links, Cells: make(map[string]map[string]Cell)}
	for li, l := range links {
		row := make(map[string]Cell, len(schemes))
		for si, s := range schemes {
			row[s] = cellFromScenario(results[si*len(links)+li], s)
		}
		m.Cells[l] = row
	}
	return m
}

// RunMatrix executes every scheme over every canonical link (8 links ×
// len(schemes) runs) through the parallel engine. Each scheme sees
// identical trace pairs: one immutable pair per network is generated in a
// shared cache and handed to every scheme and both directions by
// reference, never copied per job. Results are independent of opt.Workers.
func RunMatrix(opt Options, schemes []string) (*Matrix, error) {
	opt = opt.withDefaults()
	if len(schemes) == 0 {
		schemes = Schemes()
	}
	specs, links := MatrixSpecs(opt, schemes)
	traces := engine.NewCache()
	results, st, err := runSpecs(opt, specs, traces)
	if err != nil {
		return nil, err
	}
	hits, misses := traces.Counts()
	m := matrixFromResults(opt, schemes, links, results)
	m.Stats = RunStats{Engine: st, TracesGenerated: misses, TracesReused: hits}
	return m, nil
}

func toCell(r Result) Cell {
	return Cell{
		Scheme:          r.Scheme,
		ThroughputKbps:  r.ThroughputBps / 1000,
		SelfInflictedMs: float64(r.SelfInflicted95) / float64(time.Millisecond),
		Utilization:     r.Utilization,
		MeanDelayMs:     float64(r.MeanDelay) / float64(time.Millisecond),
	}
}

// cellFromScenario projects a scenario result to a figure cell under the
// given display label.
func cellFromScenario(r scenario.Result, label string) Cell {
	return Cell{
		Scheme:          label,
		ThroughputKbps:  r.Metrics.ThroughputBps / 1000,
		SelfInflictedMs: float64(r.Metrics.SelfInflicted95) / float64(time.Millisecond),
		Utilization:     r.Metrics.Utilization,
		MeanDelayMs:     float64(r.Metrics.MeanDelay) / float64(time.Millisecond),
	}
}

// RunSchemesOnPair runs every scheme over one user-supplied trace pair
// (sproutbench's custom-trace mode) as parallel engine jobs, returning
// one cell per scheme in Schemes() order.
func RunSchemesOnPair(opt Options, data, fb *trace.Trace) ([]Cell, error) {
	opt = opt.withDefaults()
	schemes := Schemes()
	specs := make([]scenario.Spec, len(schemes))
	for i, s := range schemes {
		spec := opt.baseSpec()
		spec.Name = fmt.Sprintf("%s on %s", s, data.Name)
		spec.Scheme = s
		spec.DataTrace, spec.FeedbackTrace = data, fb
		specs[i] = spec
	}
	results, _, err := runSpecs(opt, specs, nil)
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, len(schemes))
	for i, s := range schemes {
		cells[i] = cellFromScenario(results[i], s)
	}
	return cells, nil
}

// SummaryRow is one line of the intro tables: a scheme's average speedup
// and delay reduction relative to a reference scheme, averaged over the
// eight links.
type SummaryRow struct {
	Scheme string
	// AvgSpeedup is mean over links of ref_throughput/scheme_throughput
	// ("Avg speedup vs <ref>").
	AvgSpeedup float64
	// DelayReduction is mean over links of scheme_delay/ref_delay
	// ("Delay reduction").
	DelayReduction float64
	// AvgDelaySec is the scheme's own mean self-inflicted delay.
	AvgDelaySec float64
}

// Summarize derives the intro-table rows from a matrix relative to ref.
func (m *Matrix) Summarize(ref string, schemes []string) []SummaryRow {
	var rows []SummaryRow
	for _, s := range schemes {
		var speedup, reduction, delay float64
		n := 0
		for _, l := range m.Links {
			rc, ok1 := m.Cells[l][ref]
			sc, ok2 := m.Cells[l][s]
			if !ok1 || !ok2 || sc.ThroughputKbps == 0 || rc.SelfInflictedMs == 0 {
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
		rows = append(rows, SummaryRow{
			Scheme:         s,
			AvgSpeedup:     speedup / float64(n),
			DelayReduction: reduction / float64(n),
			AvgDelaySec:    delay / float64(n) / 1000,
		})
	}
	return rows
}

// Fig8Row is one scheme's point in Figure 8: utilization vs delay averaged
// over the eight links.
type Fig8Row struct {
	Scheme             string
	AvgUtilizationPct  float64
	AvgSelfInflictedMs float64
}

// Fig8 derives the average utilization/delay points from a matrix.
func (m *Matrix) Fig8(schemes []string) []Fig8Row {
	var rows []Fig8Row
	for _, s := range schemes {
		var util, delay float64
		n := 0
		for _, l := range m.Links {
			c, ok := m.Cells[l][s]
			if !ok {
				continue
			}
			util += c.Utilization
			delay += c.SelfInflictedMs
			n++
		}
		if n == 0 {
			continue
		}
		rows = append(rows, Fig8Row{
			Scheme:             s,
			AvgUtilizationPct:  util / float64(n) * 100,
			AvgSelfInflictedMs: delay / float64(n),
		})
	}
	return rows
}

// Fig9 runs the confidence-parameter sweep on the T-Mobile 3G uplink
// (§5.5): Sprout at 95/75/50/25/5% confidence plus all baselines, all in
// parallel over one shared trace pair.
func Fig9(opt Options) ([]Cell, error) {
	opt = opt.withDefaults()
	var pair trace.NetworkPair
	for _, p := range trace.CanonicalNetworks() {
		if strings.HasPrefix(p.Name, "T-Mobile") {
			pair = p
		}
	}
	data, fb := GenerateTracePair(pair, "up", opt.Duration, opt.Seed)
	sweep := opt.baseSpec()
	sweep.Name = "sprout"
	sweep.Scheme = "sprout"
	sweep.Confidences = []float64{0.95, 0.75, 0.50, 0.25, 0.05}
	sweep.DataTrace, sweep.FeedbackTrace = data, fb
	specs, err := sweep.Sweep()
	if err != nil {
		return nil, err
	}
	for _, s := range Schemes() {
		if s == "sprout" {
			continue
		}
		spec := opt.baseSpec()
		spec.Name = s
		spec.Scheme = s
		spec.DataTrace, spec.FeedbackTrace = data, fb
		specs = append(specs, spec)
	}
	results, _, err := runSpecs(opt, specs, nil)
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, len(specs))
	for i, spec := range specs {
		cells[i] = cellFromScenario(results[i], spec.Name)
	}
	return cells, nil
}

// LossRow is one line of the §5.6 loss-resilience table.
type LossRow struct {
	Direction       string
	LossPct         int
	ThroughputKbps  float64
	SelfInflictedMs float64
}

// LossTable runs Sprout over the Verizon LTE trace pair with 0%, 5% and
// 10% Bernoulli loss in each direction (§5.6), six independent jobs over
// two cached trace pairs.
func LossTable(opt Options) ([]LossRow, error) {
	opt = opt.withDefaults()
	pair := trace.CanonicalNetworks()[0] // Verizon LTE
	dirs := []string{"down", "up"}
	losses := []float64{0, 0.05, 0.10}
	var specs []scenario.Spec
	for _, dir := range dirs {
		for _, loss := range losses {
			spec := opt.baseSpec()
			spec.Name = fmt.Sprintf("sprout %s %.0f%% loss", dir, loss*100)
			spec.Scheme = "sprout"
			spec.Link = pair.Name
			spec.Direction = dir
			spec.Loss = loss
			specs = append(specs, spec)
		}
	}
	results, _, err := runSpecs(opt, specs, nil)
	if err != nil {
		return nil, err
	}
	rows := make([]LossRow, len(specs))
	for i, spec := range specs {
		rows[i] = LossRow{
			Direction:       map[string]string{"down": "Downlink", "up": "Uplink"}[spec.Direction],
			LossPct:         int(spec.Loss * 100),
			ThroughputKbps:  results[i].Metrics.ThroughputBps / 1000,
			SelfInflictedMs: float64(results[i].Metrics.SelfInflicted95) / float64(time.Millisecond),
		}
	}
	return rows, nil
}

// Fig1Point is one second of the Figure 1 timeseries.
type Fig1Point struct {
	Second        int
	CapacityKbps  float64
	SproutKbps    float64
	SkypeKbps     float64
	SproutDelayMs float64 // p95 of d(t) within the second
	SkypeDelayMs  float64
}

// Fig1 reproduces the paper's opening figure: Skype and Sprout run over
// the same Verizon LTE downlink trace; per-second throughput against
// capacity, and the evolving end-to-end delay.
func Fig1(opt Options) ([]Fig1Point, error) {
	opt = opt.withDefaults()
	pair := trace.CanonicalNetworks()[0]
	data, fb := GenerateTracePair(pair, "down", opt.Duration, opt.Seed)
	specs := make([]scenario.Spec, 2)
	for i, scheme := range []string{"sprout", "skype"} {
		spec := opt.baseSpec()
		spec.Name = scheme
		spec.Scheme = scheme
		spec.DataTrace, spec.FeedbackTrace = data, fb
		spec.KeepDeliveries = true
		specs[i] = spec
	}
	results, _, err := runSpecs(opt, specs, nil)
	if err != nil {
		return nil, err
	}
	series := make([][]linkDelivery, 2)
	for i, res := range results {
		out := make([]linkDelivery, len(res.Deliveries))
		for k, d := range res.Deliveries {
			out[k] = linkDelivery{sent: d.SentAt, delivered: d.DeliveredAt, size: d.Size}
		}
		series[i] = out
	}
	sprout, skype := series[0], series[1]
	secs := int(opt.Duration / time.Second)
	pts := make([]Fig1Point, 0, secs)
	for s := 0; s < secs; s++ {
		from := time.Duration(s) * time.Second
		to := from + time.Second
		pts = append(pts, Fig1Point{
			Second:        s,
			CapacityKbps:  float64(data.CapacityBits(from, to)) / 1000,
			SproutKbps:    perSecondKbps(sprout, from, to),
			SkypeKbps:     perSecondKbps(skype, from, to),
			SproutDelayMs: perSecondDelayMs(sprout, from, to),
			SkypeDelayMs:  perSecondDelayMs(skype, from, to),
		})
	}
	return pts, nil
}

type linkDelivery struct {
	sent, delivered time.Duration
	size            int
}

func perSecondKbps(dl []linkDelivery, from, to time.Duration) float64 {
	var bits int64
	for _, d := range dl {
		if d.delivered >= from && d.delivered < to {
			bits += int64(d.size) * 8
		}
	}
	return float64(bits) / (to - from).Seconds() / 1000
}

func perSecondDelayMs(dl []linkDelivery, from, to time.Duration) float64 {
	var worst time.Duration
	for _, d := range dl {
		if d.delivered >= from && d.delivered < to {
			if delay := d.delivered - d.sent; delay > worst {
				worst = delay
			}
		}
	}
	return float64(worst) / float64(time.Millisecond)
}

// Fig2Data summarizes the saturated-link interarrival distribution
// (Figure 2): quantiles, the fraction of interarrivals under 20 ms, and
// the fitted power-law tail exponent.
type Fig2Data struct {
	Count         int
	P50us         float64
	P99us         float64
	FracWithin20  float64 // fraction of interarrivals < 20 ms
	TailExponent  float64 // fitted slope of log-density vs log-time
	TailBinsUsed  int
	MaxGapSeconds float64
}

// Fig2 generates a long saturated Verizon LTE downlink trace and fits its
// interarrival distribution, reproducing the analysis behind Figure 2
// (the paper fits t^-3.27 on its 1.2M-packet trace).
func Fig2(opt Options) (Fig2Data, error) {
	opt = opt.withDefaults()
	model, _ := trace.CanonicalLink("Verizon-LTE-down")
	// Longer than the experiment runs: Figure 2 is about distribution
	// tails, which need samples. The trace RNG derives through
	// engine.DeriveSeed like every other job's randomness, so seed
	// derivation stays uniform and auditable across the suite.
	rng := rand.New(rand.NewSource(engine.DeriveSeed(opt.Seed, "fig2", model.Name)))
	tr := model.Generate(10*opt.Duration, rng)
	gaps := tr.Interarrivals()
	if len(gaps) == 0 {
		return Fig2Data{}, fmt.Errorf("fig2: empty trace")
	}
	h := stats.NewLogHistogram(0.05, 10_000, 120) // 0.05 ms .. 10 s, log bins (ms)
	var within20 int
	var maxGap time.Duration
	us := make([]float64, len(gaps))
	for i, g := range gaps {
		msF := float64(g) / float64(time.Millisecond)
		h.Observe(msF)
		if g < 20*time.Millisecond {
			within20++
		}
		if g > maxGap {
			maxGap = g
		}
		us[i] = float64(g) / float64(time.Microsecond)
	}
	qs := stats.Quantiles(us, 0.5, 0.99)
	slope, used := h.PowerLawTailFit(20) // fit the >20 ms tail as the paper does
	return Fig2Data{
		Count:         len(gaps),
		P50us:         qs[0],
		P99us:         qs[1],
		FracWithin20:  float64(within20) / float64(len(gaps)),
		TailExponent:  slope,
		TailBinsUsed:  used,
		MaxGapSeconds: maxGap.Seconds(),
	}, nil
}

// FormatCells renders cells as an aligned text table sorted by delay.
func FormatCells(title string, cells []Cell) string {
	sort.Slice(cells, func(i, j int) bool { return cells[i].SelfInflictedMs < cells[j].SelfInflictedMs })
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-14s %12s %16s %6s\n", title, "scheme", "tput (kbps)", "self-delay (ms)", "util")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-14s %12.0f %16.0f %6.2f\n", c.Scheme, c.ThroughputKbps, c.SelfInflictedMs, c.Utilization)
	}
	return b.String()
}
