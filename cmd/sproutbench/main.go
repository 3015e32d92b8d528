// Command sproutbench regenerates every table and figure of the paper's
// evaluation (§5) from the trace-driven emulator. Each experiment prints
// an aligned text table; figures are emitted as their underlying data
// series. See DESIGN.md §7 for the experiment index.
//
// Beyond the paper's grid, -scenario runs arbitrary experiment specs from
// a JSON file through the same parallel engine, and -list-schemes
// enumerates the scheme registry.
//
// Usage:
//
//	sproutbench -run all
//	sproutbench -run table1,fig8 -duration 150s -seed 1
//	sproutbench -scenario scenarios.json -parallel 0
//	sproutbench -list-schemes
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"sprout/internal/cell"
	"sprout/internal/core"
	"sprout/internal/engine"
	"sprout/internal/harness"
	"sprout/internal/scenario"
	"sprout/internal/trace"
)

// labeled runs fn with a pprof "experiment" label, so -cpuprofile output
// attributes forecast and event-loop samples to the experiment that drove
// them (`pprof -tagfocus experiment=fig9`, or Graph > Tag views). Engine
// workers are spawned inside harness calls, so goroutines started under
// fn inherit the label.
func labeled(name string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("experiment", name), func(context.Context) {
		fn()
	})
}

// warnTableCache prints a one-time warning when forecast-table builds have
// outgrown the process-wide cache: every further forecaster at an uncached
// parameter set silently rebuilds its own ~2 MB table (tens of CPU-ms now
// that the lookahead evolution is folded into it; σ and λz shape it too),
// which turns a parameter sweep's setup cost from one build into one per
// run.
var warnedTableCache bool

func warnTableCache() {
	if warnedTableCache {
		return
	}
	if _, _, uncached := core.TableCacheStats(); uncached > 0 {
		warnedTableCache = true
		fmt.Fprintf(os.Stderr,
			"sproutbench: warning: %d forecast-table build(s) bypassed the full table cache; a sweep is varying more than %d table-shaping parameter sets and pays a full table rebuild per run\n",
			uncached, core.TableCacheLimit)
	}
}

func main() {
	runFlag := flag.String("run", "all",
		"comma-separated experiments: fig1,fig2,table1,table2,fig7,fig8,fig9,loss,tunnel,multi or all")
	duration := flag.Duration("duration", 150*time.Second, "virtual duration per run")
	skip := flag.Duration("skip", 30*time.Second, "warmup excluded from metrics")
	seed := flag.Int64("seed", 1, "random seed for traces and loss")
	parallel := flag.Int("parallel", 0, "experiment workers: 0 = all cores, 1 = serial (results are identical either way)")
	downFile := flag.String("down", "", "run every scheme on this mahimahi trace (data direction) instead of the canonical suite")
	upFile := flag.String("up", "", "reverse-direction mahimahi trace (with -down)")
	scenarioFile := flag.String("scenario", "", "run the experiment specs in this JSON scenario file instead of the canonical suite")
	shardFlag := flag.String("shard", "", "worker mode: run shard i/n of the -scenario grid and stream JSONL records to -out")
	outFlag := flag.String("out", "", "JSONL destination for -shard (default stdout); an existing log is resumed, not recomputed")
	shardsFlag := flag.Int("shards", 0, "parent mode: fan the -scenario grid across this many child processes and merge their JSONL")
	checkpointFlag := flag.String("checkpoint", "", "checkpoint directory for -shards: a killed sweep rerun resumes from the shard logs here")
	hostsFlag := flag.String("hosts", "", "comma-separated host pool for -shards: shards are dispatched across these hosts with health scoring and failover")
	transportFlag := flag.String("transport", "", "remote dispatch command template for -hosts, e.g. \"ssh {host} -- {exe}\"; {exe} marks where the worker command goes")
	retriesFlag := flag.Int("retries", 3, "attempts per shard before the supervisor declares it dead (with -shards; 0 = default)")
	stallFlag := flag.Duration("stall", 2*time.Minute, "kill a shard child whose checkpoint log stops growing for this long (with -shards; 0 = default)")
	timeoutFlag := flag.Duration("timeout", 0, "sweep-wide deadline for -shards: an expired sweep terminates its children and exits via the -partial path with the exact missing-index report (0 = none)")
	chaosFlag := flag.Int64("chaos", 0, "seed a deterministic fault-injection plan into the supervised children (with -shards; 0 = off); the merged output must be unchanged")
	partialFlag := flag.Bool("partial", false, "with -shards: merge whatever completed and report the exact missing job indexes instead of failing")
	rescueFlag := flag.Bool("rescue", true, "with -shards: recompute dead shards' remaining jobs in-process instead of failing the sweep")
	abFlag := flag.String("ab", "", "A/B mode: two scenario files \"specA.json,specB.json\"; sharded sweeps with p50/p95/p99 rollups and a verdict")
	listSchemes := flag.Bool("list-schemes", false, "list every registered scheme and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		check(err)
		check(pprof.StartCPUProfile(f))
		prev := flushProfiles
		flushProfiles = func() {
			pprof.StopCPUProfile()
			f.Close()
			prev()
		}
	}
	if *memProfile != "" {
		path := *memProfile
		prev := flushProfiles
		flushProfiles = func() {
			prev() // stop CPU sampling first so the GC below is not recorded
			f, err := os.Create(path)
			if err == nil {
				runtime.GC() // materialize the final heap state
				pprof.WriteHeapProfile(f)
				f.Close()
			}
		}
	}
	defer flushProfiles()

	if *listSchemes {
		runListSchemes()
		return
	}
	mode, err := parseShardFlags(shardFlagInputs{
		Shard:      *shardFlag,
		Shards:     *shardsFlag,
		AB:         *abFlag,
		Scenario:   *scenarioFile,
		Out:        *outFlag,
		Checkpoint: *checkpointFlag,
		Hosts:      *hostsFlag,
		Transport:  *transportFlag,
		Retries:    *retriesFlag,
		Stall:      *stallFlag,
		Timeout:    *timeoutFlag,
		Chaos:      *chaosFlag,
		Partial:    *partialFlag,
		Rescue:     *rescueFlag,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sproutbench:", err)
		fatalExit(exitUsage)
	}
	// One engine for every experiment of the invocation: its per-worker
	// simulation worlds (event loop arenas, links, packet pools, memoized
	// endpoints) persist across the experiments' Run calls.
	opt := harness.Options{Duration: *duration, Skip: *skip, Seed: *seed, Workers: *parallel, Engine: engine.New(*parallel)}

	if mode.Shard != nil {
		labeled("shard", func() { runShardWorker(*scenarioFile, *mode.Shard, mode.Out, opt) })
		return
	}
	if len(mode.AB) == 2 {
		labeled("ab", func() { runAB(mode, opt) })
		return
	}
	if mode.Shards > 1 {
		labeled("sharded", func() { runShardParent(*scenarioFile, mode, opt, *parallel) })
		return
	}

	defer warnTableCache()
	if *scenarioFile != "" {
		labeled("scenario", func() { runScenarioFile(*scenarioFile, opt) })
		return
	}
	if *downFile != "" || *upFile != "" {
		if *downFile == "" || *upFile == "" {
			fmt.Fprintln(os.Stderr, "sproutbench: -down and -up must be given together")
			fatalExit(2)
		}
		labeled("custom", func() { runCustomTraces(*downFile, *upFile, opt) })
		return
	}
	want := map[string]bool{}
	for _, name := range strings.Split(*runFlag, ",") {
		want[strings.TrimSpace(name)] = true
	}
	all := want["all"]
	ran := false

	var matrix *harness.Matrix
	needMatrix := all || want["table1"] || want["table2"] || want["fig7"] || want["fig8"]
	if needMatrix {
		fmt.Fprintf(os.Stderr, "running %d schemes x 8 links (duration %v)...\n",
			len(harness.Schemes()), *duration)
		var m *harness.Matrix
		var err error
		labeled("matrix", func() { m, err = harness.RunMatrix(opt, nil) })
		check(err)
		matrix = m
		fmt.Fprintf(os.Stderr, "matrix: %s; trace pairs: %d generated, %d served from cache\n",
			m.Stats.Engine, m.Stats.TracesGenerated, m.Stats.TracesReused)
	}

	if all || want["fig1"] {
		ran = true
		labeled("fig1", func() { runFig1(opt) })
	}
	if all || want["fig2"] {
		ran = true
		labeled("fig2", func() { runFig2(opt) })
	}
	if all || want["table1"] {
		ran = true
		runTable1(matrix)
	}
	if all || want["table2"] {
		ran = true
		runTable2(matrix)
	}
	if all || want["fig7"] {
		ran = true
		runFig7(matrix)
	}
	if all || want["fig8"] {
		ran = true
		runFig8(matrix)
	}
	if all || want["fig9"] {
		ran = true
		labeled("fig9", func() { runFig9(opt) })
	}
	if all || want["loss"] {
		ran = true
		labeled("loss", func() { runLoss(opt) })
	}
	if all || want["tunnel"] {
		ran = true
		labeled("tunnel", func() { runTunnel(opt) })
	}
	if all || want["multi"] {
		ran = true
		labeled("multi", func() { runMulti(opt) })
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "no experiment matched %q\n", *runFlag)
		fatalExit(2)
	}
}

// runCustomTraces runs the full scheme comparison over a user-supplied
// trace pair (e.g. real Saturator captures), printing one Figure 7-style
// chart.
func runCustomTraces(downPath, upPath string, opt harness.Options) {
	load := func(path string) *trace.Trace {
		f, err := os.Open(path)
		check(err)
		defer f.Close()
		tr, err := trace.Parse(f, path)
		check(err)
		return tr
	}
	data, fb := load(downPath), load(upPath)
	fmt.Fprintf(os.Stderr, "sproutbench: %s (%.0f kbps mean) with feedback on %s (%.0f kbps mean)\n",
		data.Name, data.MeanRateBps()/1000, fb.Name, fb.MeanRateBps()/1000)
	cells, err := harness.RunSchemesOnPair(opt, data, fb)
	check(err)
	fmt.Print(harness.FormatCells(data.Name, cells))
}

// runListSchemes prints the scheme registry: what -scenario specs and the
// canonical grids can name.
func runListSchemes() {
	fmt.Printf("%-16s %-6s %-6s %s\n", "scheme", "extra", "codel", "description")
	for _, s := range scenario.Schemes() {
		mark := func(b bool) string {
			if b {
				return "yes"
			}
			return ""
		}
		fmt.Printf("%-16s %-6s %-6s %s\n", s.Name, mark(s.Extra), mark(s.UsesCoDel), s.Description)
	}
	fmt.Printf("\ncanonical links (scenario \"link\" field): %s\n",
		strings.Join(scenario.NetworkNames(), ", "))
	fmt.Printf("streaming models (scenario \"process\"/\"feedback_process\" \"model\" field): %s\n",
		strings.Join(scenario.ModelNames(), ", "))
	fmt.Printf("cell schedulers (scenario \"cell\" \"scheduler\" field): %s\n",
		strings.Join(cell.SchedulerNames(), ", "))
}

// runScenarioFile executes every spec in a JSON scenario file through the
// parallel engine. CLI -duration/-skip/-seed fill only fields the file
// leaves unset. Streaming specs (a "process" stanza) may exceed any
// canonical trace length: -duration 1h costs the same trace memory as
// -duration 150s, which the trace-memory summary line makes visible.
func runScenarioFile(path string, opt harness.Options) {
	specs, streaming, err := loadScenarioSpecs(path, opt)
	check(err)
	results, stats, cache, err := scenario.RunAllCached(context.Background(), opt.Engine, specs)
	check(err)
	fmt.Fprintf(os.Stderr, "scenarios: %s\n", stats)
	pairs, ops, bytes := scenario.TraceMemory(cache)
	fmt.Fprintf(os.Stderr,
		"trace memory: %d materialized pair(s), %d opportunities (%.2f MiB); %d streaming scenario(s) at O(1)\n",
		pairs, ops, float64(bytes)/(1<<20), streaming)
	printScenarioResults(fmt.Sprintf("Scenarios from %s", path), results)
}

// flushProfiles stops and writes any active -cpuprofile/-memprofile
// output. Every exit path routes through it (the deferred call in main
// for normal returns, fatalExit for error paths), so profiles survive
// failing runs — exactly when they are wanted.
var flushProfiles = func() {}

func fatalExit(code int) {
	flushProfiles()
	os.Exit(code)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sproutbench:", err)
		fatalExit(1)
	}
}

func header(title string) {
	fmt.Printf("\n==== %s ====\n", title)
}

func runFig1(opt harness.Options) {
	header("Figure 1: Skype vs Sprout on the Verizon LTE downlink (per-second series)")
	pts, err := harness.Fig1(opt)
	check(err)
	fmt.Printf("%4s %10s %10s %10s %12s %12s\n",
		"sec", "capacity", "sprout", "skype", "sproutDelay", "skypeDelay")
	for _, p := range pts {
		fmt.Printf("%4d %10.0f %10.0f %10.0f %12.0f %12.0f\n",
			p.Second, p.CapacityKbps, p.SproutKbps, p.SkypeKbps, p.SproutDelayMs, p.SkypeDelayMs)
	}
}

func runFig2(opt harness.Options) {
	header("Figure 2: interarrival distribution, saturated Verizon LTE downlink")
	d, err := harness.Fig2(opt)
	check(err)
	fmt.Printf("interarrivals analysed:        %d\n", d.Count)
	fmt.Printf("median interarrival:           %.0f us\n", d.P50us)
	fmt.Printf("99th percentile interarrival:  %.0f us\n", d.P99us)
	fmt.Printf("fraction within 20 ms:         %.4f (paper: 99.99%%)\n", d.FracWithin20)
	fmt.Printf("power-law tail exponent:       %.2f over %d bins (paper: -3.27)\n",
		d.TailExponent, d.TailBinsUsed)
	fmt.Printf("longest gap (outage):          %.2f s\n", d.MaxGapSeconds)
}

func summaryTable(title, ref string, rows []harness.SummaryRow) {
	header(title)
	fmt.Printf("%-14s %18s %18s %14s\n", "scheme",
		"avg speedup vs "+ref, "delay reduction", "avg delay (s)")
	for _, r := range rows {
		fmt.Printf("%-14s %18.2f %18.2f %14.2f\n",
			r.Scheme, r.AvgSpeedup, r.DelayReduction, r.AvgDelaySec)
	}
}

func runTable1(m *harness.Matrix) {
	rows := m.Summarize("sprout", harness.Schemes())
	summaryTable("Table 1: average speedup and delay reduction of Sprout vs each scheme", "sprout", rows)
}

func runTable2(m *harness.Matrix) {
	rows := m.Summarize("sprout-ewma", []string{"sprout-ewma", "sprout", "cubic", "cubic-codel"})
	summaryTable("Table 2: Sprout-EWMA vs Sprout, Cubic, Cubic-CoDel", "sprout-ewma", rows)
}

func runFig7(m *harness.Matrix) {
	header("Figure 7: throughput vs self-inflicted delay per link")
	for _, l := range m.Links {
		var cells []harness.Cell
		for _, c := range m.Cells[l] {
			cells = append(cells, c)
		}
		fmt.Println()
		fmt.Print(harness.FormatCells(l, cells))
	}
}

func runFig8(m *harness.Matrix) {
	header("Figure 8: average utilization vs average self-inflicted delay")
	rows := m.Fig8([]string{"sprout", "sprout-ewma", "cubic", "cubic-codel"})
	fmt.Printf("%-14s %12s %18s\n", "scheme", "util (%)", "self-delay (ms)")
	for _, r := range rows {
		fmt.Printf("%-14s %12.0f %18.0f\n", r.Scheme, r.AvgUtilizationPct, r.AvgSelfInflictedMs)
	}
}

func runFig9(opt harness.Options) {
	header("Figure 9: confidence-parameter sweep on the T-Mobile 3G uplink")
	cells, err := harness.Fig9(opt)
	check(err)
	fmt.Print(harness.FormatCells("", cells))
}

func runLoss(opt harness.Options) {
	header("Section 5.6: Sprout loss resilience on Verizon LTE")
	rows, err := harness.LossTable(opt)
	check(err)
	fmt.Printf("%-10s %6s %14s %16s\n", "direction", "loss", "tput (kbps)", "self-delay (ms)")
	for _, r := range rows {
		fmt.Printf("%-10s %5d%% %14.0f %16.0f\n",
			r.Direction, r.LossPct, r.ThroughputKbps, r.SelfInflictedMs)
	}
}

func runTunnel(opt harness.Options) {
	header("Section 5.7: Cubic + Skype, direct vs via SproutTunnel (Verizon LTE downlink)")
	res, err := harness.RunTunnelComparison(opt)
	check(err)
	pct := func(a, b float64) float64 {
		if a == 0 {
			return 0
		}
		return (b - a) / a * 100
	}
	fmt.Printf("%-18s %12s %12s %8s\n", "metric", "direct", "via sprout", "change")
	fmt.Printf("%-18s %12.0f %12.0f %+7.0f%%\n", "cubic tput (kbps)",
		res.CubicKbpsDirect, res.CubicKbpsTunnel, pct(res.CubicKbpsDirect, res.CubicKbpsTunnel))
	fmt.Printf("%-18s %12.0f %12.0f %+7.0f%%\n", "skype tput (kbps)",
		res.SkypeKbpsDirect, res.SkypeKbpsTunnel, pct(res.SkypeKbpsDirect, res.SkypeKbpsTunnel))
	fmt.Printf("%-18s %12.2f %12.2f %+7.0f%%\n", "skype 95% delay (s)",
		res.SkypeDelay95Direct.Seconds(), res.SkypeDelay95Tunnel.Seconds(),
		pct(res.SkypeDelay95Direct.Seconds(), res.SkypeDelay95Tunnel.Seconds()))
	fmt.Printf("tunnel head drops: %d\n", res.TunnelHeadDrops)
}

func runMulti(opt harness.Options) {
	header("Extension (§7 open question): two Sprouts sharing one queue (Verizon LTE downlink)")
	res, err := harness.RunMultiSprout(opt, 2)
	check(err)
	fmt.Printf("%-26s %10.0f kbps   95%% delay %v\n", "solo session",
		res.SoloKbps, res.SoloDelay95.Round(time.Millisecond))
	for i, kbps := range res.PerFlowKbps {
		fmt.Printf("%-26s %10.0f kbps\n", fmt.Sprintf("shared, flow %d", i+1), kbps)
	}
	fmt.Printf("%-26s %10.0f kbps   95%% delay %v   Jain fairness %.3f\n",
		"shared, aggregate", res.AggregateKbps, res.Delay95.Round(time.Millisecond), res.JainIndex)
}
