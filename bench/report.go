package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sprout/bench/probes"
)

func printManifest(m manifest) {
	fmt.Printf("manifest: git %s, %s, GOMAXPROCS %d of %d CPUs, seed %d, checkpoint fs %s",
		m.GitRev, m.GoVersion, m.GOMAXPROCS, m.NumCPU, m.Seed, m.OutFS)
	if !m.OutFSValid {
		fmt.Print(" (INVALID for shard_sweep: fsync is free on a memory filesystem)")
	}
	fmt.Println()
	for _, c := range m.Runs {
		kind := "run"
		if c.Traced {
			kind = "traced run"
		}
		fmt.Printf("  %s %s: wall %.2f s, cpu %.2f s\n", c.Workload, kind, c.WallS, c.CPUS)
	}
}

// printHeader prints the manifest with every child run made so far.
func (b *bench) printHeader() {
	m := newManifest(b.seed, b.outDir)
	m.Runs = b.costs
	printManifest(m)
	fmt.Println("accuracy: unvalidated (PAPER.md holds no published numbers, so no error figure is given)")
}

func printRun(r runReport) {
	fmt.Printf("%s: %d jobs and %.0f sim-s per pass, %d passes, set-up %.3f s (spec build %.3f, warm-up %.3f), result_digest %.16s\n",
		r.Workload, r.Jobs, r.SimS, len(r.Passes), r.SetupS, r.SpecBuildS, r.WarmupS, r.Digest)
	if len(r.Passes) == 0 {
		return
	}
	walls := make([]float64, len(r.Passes))
	for i, p := range r.Passes {
		walls[i] = p.WallS
	}
	lo, hi := minMax(walls)
	fmt.Printf("  pass wall: median %.3f s, min %.3f, max %.3f\n", median(walls), lo, hi)
	if r.CheckpointWallS > 0 {
		fmt.Printf("  checkpointed pass (fsync per record, re-read, merge; outside the measured passes): %.3f s, %+.0f %% on the median pass, %.0f KB of logs\n",
			r.CheckpointWallS, 100*r.CheckpointOverhead, r.CheckpointKB)
	}
	fmt.Printf("  simulated (exact for this seed): sim_tput_kbps %.4f, sim_delay95_ms %.4f", r.SimTputKbps, r.SimDelay95Ms)
	if r.ZeroTputJobs > 0 {
		fmt.Printf(" (%d jobs delivered nothing in their window and are left out of the geometric means)", r.ZeroTputJobs)
	}
	fmt.Println()
}

func printFailures(r runReport) {
	if r.Failed == 0 {
		return
	}
	fmt.Printf("FAILED: %d of %d jobs on %s\n", r.Failed, r.Jobs*max(len(r.Passes), 1), r.Workload)
	for _, f := range r.Failures {
		fmt.Printf("  %s: %s\n", f.Label, f.Reason)
	}
}

func printProbes(results []probes.Result) {
	fmt.Println("layer probes (median, fastest batch, batches):")
	for _, p := range results {
		fmt.Printf("  %-32s %12.4f %-6s min %12.4f  n=%d\n", p.Name, p.Value, p.Unit, p.Min, p.N)
	}
}

func printTraced(r runReport, path string) {
	printRun(r)
	fmt.Printf("traced run of %s (spans in %s):\n", r.Workload, path)
	for _, m := range tracedLayer {
		fmt.Printf("  %-32s %12.4f %s\n", m.name, m.value(r), m.unit)
	}
}

// set is one full set of runs: per workload, per metric, one value per
// run, plus each workload's digest and failure count.
type set struct {
	values  map[string]map[string][]float64
	digests map[string]string
	reports map[string]runReport // the last run of each workload
	// attempted counts jobs per workload over all passes of all runs;
	// failed counts failures over the whole set. print is only called on
	// a set without failures, so fail_rate prints as 0 of attempted.
	attempted map[string]int
	failed    int
}

// runSets runs n sets of `runs` runs per workload. Workloads go
// round-robin and the sets alternate run by run, taking turns to go first,
// so slow drift of the host spreads over all workloads and both sets
// alike. Each run is one fresh child; its setup_s is that child's own.
func (b *bench) runSets(n int) []set {
	sets := make([]set, n)
	for k := range sets {
		sets[k] = set{
			values:    map[string]map[string][]float64{},
			digests:   map[string]string{},
			reports:   map[string]runReport{},
			attempted: map[string]int{},
		}
	}
	// A set's runs have one set-up sample each, so the first must not be
	// the one that pages the freshly built binary in: discard one.
	first := b.opts(workloads[0].name)
	first.setupOnly = true
	if _, err := b.spawn(first); err != nil {
		fatal(err)
	}
	for round := 0; round < runs; round++ {
		for _, w := range workloads {
			for i := range sets {
				rep, err := b.spawn(b.opts(w.name))
				if err != nil {
					fatal(err)
				}
				sets[(i+round)%n].add(rep, round)
			}
		}
	}
	return sets
}

// add files one run's report under its workload.
func (s *set) add(rep runReport, round int) {
	name := rep.Workload
	printFailures(rep)
	s.failed += rep.Failed
	if prev, ok := s.digests[name]; ok && prev != rep.Digest {
		fmt.Printf("FAILED: %s run %d digest %.12s differs from an earlier run's %.12s\n", name, round, rep.Digest, prev)
		s.failed += rep.Jobs
	}
	s.digests[name] = rep.Digest
	s.reports[name] = rep
	s.attempted[name] += rep.Jobs * len(rep.Passes)
	if s.values[name] == nil {
		s.values[name] = map[string][]float64{}
	}
	for metric, v := range endToEndValues(rep, []float64{rep.SetupS}) {
		s.values[name][metric] = append(s.values[name][metric], v)
	}
}

func (s set) print() {
	for _, w := range workloads {
		printRun(s.reports[w.name])
		for _, m := range endToEnd {
			vs := s.values[w.name][m.name]
			lo, hi := minMax(vs)
			fmt.Printf("  %-16s %12.4f %-8s min %12.4f  max %12.4f  (%d runs)\n", m.name, median(vs), m.unit, lo, hi, len(vs))
		}
		fmt.Printf("  %-16s %12d            of %d jobs attempted\n", "fail_rate", 0, s.attempted[w.name])
	}
}

// fullRun is `go run . -seed S`: the end-to-end set, the layer probes
// and one traced run per workload.
func (b *bench) fullRun() int {
	s := b.runSets(1)[0]
	results, err := probes.All(probes.Full(b.outDir, workers()))
	if err != nil {
		fatal(err)
	}
	failed := s.failed
	var traced []runReport
	for _, w := range workloads {
		o := b.opts(w.name)
		o.spans = b.tracePath(w.name)
		rep, err := b.spawn(o)
		if err != nil {
			fatal(err)
		}
		if rep.Digest != s.digests[w.name] {
			fmt.Printf("FAILED: %s traced run digest %.12s differs from the timed runs' %.12s\n", w.name, rep.Digest, s.digests[w.name])
			failed += rep.Jobs
		}
		failed += rep.Failed
		traced = append(traced, rep)
	}

	b.printHeader()
	if failed == 0 {
		s.print()
	}
	printProbes(results)
	for _, rep := range traced {
		printTraced(rep, b.tracePath(rep.Workload))
		untraced := s.values[rep.Workload]["sim_rate"]
		tracedRate := endToEndValues(rep, []float64{rep.SetupS})["sim_rate"]
		fmt.Printf("  %-32s %12.4f ratio (traced pass wall / untraced - 1)\n", "trace_overhead_frac", median(untraced)/tracedRate-1)
		printFailures(rep)
	}
	if failed > 0 {
		fmt.Printf("FAILED: %d jobs failed; end-to-end numbers withheld\n", failed)
		return 1
	}
	return 0
}

// selfcheckReport is what -selfcheck writes to <out>/selfcheck.json: per
// workload and metric, both sets' medians, how much worse the second is,
// and the quartile spread of all runs (the noise band).
type selfcheckReport struct {
	Manifest manifest        `json:"manifest"`
	Rows     []selfcheckRow  `json:"rows"`
	Digests  map[string]bool `json:"digests_agree"`
}

type selfcheckRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	WorseBy  float64 `json:"b_worse_by"`
	Bound    float64 `json:"bound"`
	Slack    float64 `json:"slack,omitempty"`
	Spread   float64 `json:"quartile_spread"`
	Verdict  string  `json:"verdict"` // agree, disagree or unresolved
}

// selfcheck runs two alternating sets of the same binary. No end-to-end
// median may disagree beyond its paired bound, and the simulated metrics
// and digests must be identical. A row whose runs scatter wider than its
// bound is reported as unresolved: it neither passes nor fails the check.
func (b *bench) selfcheck() int {
	sets := b.runSets(2)
	a, c := sets[0], sets[1]
	b.printHeader()
	out := selfcheckReport{Digests: map[string]bool{}}
	ok := a.failed == 0 && c.failed == 0
	unresolved := 0
	fmt.Printf("%-16s %-12s %12s %12s %9s %7s %8s\n", "workload", "metric", "median A", "median B", "B worse", "bound", "spread")
	for _, w := range workloads {
		// Simulated results must repeat exactly: same digest, and so the
		// same sim_tput_kbps and sim_delay95_ms.
		ra, rc := a.reports[w.name], c.reports[w.name]
		out.Digests[w.name] = a.digests[w.name] == c.digests[w.name] &&
			ra.SimTputKbps == rc.SimTputKbps && ra.SimDelay95Ms == rc.SimDelay95Ms
		ok = ok && out.Digests[w.name]
		for _, m := range endToEnd {
			m = m.on(w.name)
			va, vc := a.values[w.name][m.name], c.values[w.name][m.name]
			ma, mc := median(va), median(vc)
			row := selfcheckRow{
				Workload: w.name, Metric: m.name, MedianA: ma, MedianB: mc,
				WorseBy: worseBy(m, ma, mc), Bound: m.paired, Slack: m.slack,
				Spread: quartileSpread(append(append([]float64(nil), va...), vc...)),
			}
			row.Verdict = verdict(m, ma, mc, row.Spread)
			ok = ok && row.Verdict != "disagree"
			note := ""
			if row.Verdict != "agree" {
				note = "  " + strings.ToUpper(row.Verdict)
			}
			if row.Verdict == "unresolved" {
				unresolved++
			}
			fmt.Printf("%-16s %-12s %12.4f %12.4f %8.2f%% %6.1f%% %7.2f%%%s\n",
				w.name, m.name, ma, mc, 100*row.WorseBy, 100*m.paired, 100*row.Spread, note)
			out.Rows = append(out.Rows, row)
		}
		if !out.Digests[w.name] {
			fmt.Printf("%-16s result_digest or the simulated metrics differ between the sets\n", w.name)
		}
	}
	out.Manifest = newManifest(b.seed, b.outDir)
	out.Manifest.Runs = b.costs
	path := filepath.Join(b.outDir, "selfcheck.json")
	raw, err := json.MarshalIndent(out, "", " ")
	if err == nil {
		err = os.WriteFile(path, raw, 0o644)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println("noise band written to", path)
	if unresolved > 0 {
		fmt.Printf("%d rows unresolved: their runs scatter wider than the bound, so the medians decide nothing\n", unresolved)
	}
	if !ok {
		fmt.Println("selfcheck FAILED")
		return 1
	}
	fmt.Println("selfcheck passed")
	return 0
}
