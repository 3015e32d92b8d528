// Command sproutbench regenerates every table and figure of the paper's
// evaluation (§5) from the trace-driven emulator. Each experiment prints
// an aligned text table; figures are emitted as their underlying data
// series. See DESIGN.md §11 for the experiment index.
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
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"sprout/internal/cell"
	"sprout/internal/dispatch"
	"sprout/internal/engine"
	"sprout/internal/harness"
	"sprout/internal/scenario"
	"sprout/internal/trace"
)

func main() {
	runFlag := flag.String("run", "all",
		"comma-separated experiments: fig1,fig2,table1,table2,fig7,fig8,fig9,loss,tunnel,multi or all")
	duration := flag.Duration("duration", 150*time.Second, "virtual duration per run")
	skip := flag.Duration("skip", 30*time.Second, "warmup excluded from metrics")
	seed := flag.Int64("seed", 1, "random seed for traces and loss")
	parallel := flag.Int("parallel", 0, "experiment workers: 0 = all cores, 1 = serial (results are identical either way)")
	downFile := flag.String("down", "", "run every scheme on this mahimahi trace (data direction) instead of the canonical suite")
	upFile := flag.String("up", "", "reverse-direction mahimahi trace (with -down)")
	sf := bindShardFlags(flag.CommandLine)
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
	if err := parseShardFlags(sf); err != nil {
		usage(err)
	}
	custom := *downFile != "" || *upFile != ""
	switch {
	case custom && (*downFile == "" || *upFile == ""):
		usage(errors.New("-down and -up must be given together"))
	case custom && (sf.Scenario != "" || sf.Shard != "" || sf.Shards > 0):
		usage(errors.New("-down/-up replace the suite with a trace pair; they do not combine with -scenario, -shard or -shards"))
	}
	opt := harness.Options{Duration: *duration, Skip: *skip, Seed: *seed}
	eng := engine.New(*parallel)

	switch {
	case sf.worker != nil:
		runShardWorker(sf, opt, eng)
	case sf.Shards > 1:
		runShardParent(sf, opt, *parallel)
	case sf.Scenario != "":
		runScenarioFile(sf.Scenario, opt, eng)
	case custom:
		runCustomTraces(*downFile, *upFile, opt, eng)
	default:
		rows, err := harness.Select(*runFlag)
		if err != nil {
			usage(err)
		}
		runSuite(rows, opt, eng)
	}
}

// runSuite runs the selected rows of the paper's evaluation as one job set
// on the invocation's engine and prints their sections in suite order.
func runSuite(rows []harness.Experiment, opt harness.Options, eng *engine.Engine) {
	traces := engine.NewCache()
	sections, stats, err := harness.Run(context.Background(), eng, traces, rows, opt)
	check(err)
	if stats.Jobs > 0 { // Figure 2 alone runs none
		hits, misses, _ := traces.Counts()
		fmt.Fprintf(os.Stderr, "suite: %s; trace pairs: %d generated, %d served from cache\n", stats, misses, hits)
	}
	for _, section := range sections {
		fmt.Print(section)
	}
}

// runCustomTraces runs the full scheme comparison over a user-supplied
// trace pair (e.g. real Saturator captures), printing one Figure 7-style
// chart.
func runCustomTraces(downPath, upPath string, opt harness.Options, eng *engine.Engine) {
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
	schemes := scenario.PaperSchemes()
	specs := make([]scenario.Spec, len(schemes))
	for i, s := range schemes {
		specs[i] = scenario.Spec{
			Name: s + " on " + data.Name, Scheme: s, DataTrace: data, FeedbackTrace: fb,
			Duration: scenario.Duration(opt.Duration), Skip: scenario.Duration(opt.Skip), Seed: opt.Seed,
		}
	}
	results, _, err := scenario.RunOn(context.Background(), eng, specs, nil)
	check(err)
	cells := make([]harness.Cell, len(schemes))
	for i, s := range schemes {
		cells[i] = harness.CellOf(results[i], s)
	}
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
func runScenarioFile(path string, opt harness.Options, eng *engine.Engine) {
	specs, streaming, err := loadScenarioSpecs(path, opt)
	check(err)
	cache := engine.NewCache()
	results, stats, err := scenario.RunOn(context.Background(), eng, specs, cache)
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

// usage reports a malformed invocation on one line and exits 2.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "sproutbench:", err)
	fatalExit(dispatch.ExitUsage)
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
