package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"sprout/bench/probes"
	"sprout/internal/scenario"
	"sprout/internal/trace"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	v := []float64{9, 1, 5, 3, 7}
	if got := median(v); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if v[0] != 9 {
		t.Error("median reordered its input")
	}
}

// The driver computes spreads with Python's statistics.quantiles(v, n=4);
// the expected quartiles below are that function's output.
func TestQuartileSpread(t *testing.T) {
	ten := []float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	// quantiles -> [11.75, 14.5, 17.25]
	if got, want := quartileSpread(ten), (17.25-11.75)/14.5; !near(got, want) {
		t.Errorf("spread of ten = %v, want %v", got, want)
	}
	six := []float64{2, 4, 4, 5, 9, 12}
	// quantiles -> [3.5, 4.5, 9.75]
	if got, want := quartileSpread(six), (9.75-3.5)/4.5; !near(got, want) {
		t.Errorf("spread of six = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestBoundComparison(t *testing.T) {
	rate := metricDef{name: "sim_rate", better: "higher", paired: 0.08}
	cpu := metricDef{name: "cpu_s", better: "lower", paired: 0.05}
	if got := worseBy(rate, 1000, 900); !near(got, 0.10) {
		t.Errorf("rate 1000 -> 900 worse by %v, want 0.10", got)
	}
	if withinBound(rate, 1000, 900) {
		t.Error("a 10% lower rate passed an 8% bound")
	}
	if !withinBound(rate, 1000, 930) || !withinBound(rate, 1000, 2000) {
		t.Error("a 7% lower or a higher rate failed an 8% bound")
	}
	if got := worseBy(cpu, 2, 2.2); !near(got, 0.10) {
		t.Errorf("cpu 2 -> 2.2 worse by %v, want 0.10", got)
	}
	if withinBound(cpu, 2, 2.2) || !withinBound(cpu, 2, 2.09) || !withinBound(cpu, 2, 1) {
		t.Error("cpu bound comparison wrong")
	}
	// The slack is absolute: 17 ms -> 60 ms of set-up is within 25 % + 0.1 s,
	// 1 s -> 1.4 s is not.
	setup := metricDef{name: "setup_s", better: "lower", paired: 0.25, slack: 0.1}
	if !withinBound(setup, 0.017, 0.060) || withinBound(setup, 1, 1.4) {
		t.Error("setup bound with slack wrong")
	}
	// A workload listed in pairedOn has its own bound.
	rate.pairedOn = map[string]float64{"shard_sweep": 0.17}
	if rate.on("shard_sweep").paired != 0.17 || rate.on("paper_suite").paired != 0.08 {
		t.Error("per-workload bound not resolved")
	}
}

func TestVerdict(t *testing.T) {
	cpu := metricDef{name: "cpu_s", better: "lower", paired: 0.05}
	for _, c := range []struct {
		a, b, spread float64
		want         string
	}{
		{2, 2.08, 0.03, "agree"},
		{2, 2.2, 0.03, "disagree"},
		{2.2, 2, 0.03, "disagree"}, // neither set is the baseline
		{2, 2.2, 0.06, "unresolved"},
		{2, 2.01, 0.06, "unresolved"}, // close medians prove nothing in wide noise
	} {
		if got := verdict(cpu, c.a, c.b, c.spread); got != c.want {
			t.Errorf("verdict(%v, %v, spread %v) = %s, want %s", c.a, c.b, c.spread, got, c.want)
		}
	}
}

func TestMemoryFilesystemFailsShardedRun(t *testing.T) {
	rep := runReport{Workload: "shard_sweep", Jobs: 48, Passes: make([]passReport, 3)}
	failOnMemoryFS(&rep, manifest{OutFS: "ext", OutFSValid: true})
	if rep.Failed != 0 {
		t.Fatalf("a disk-backed run failed %d jobs", rep.Failed)
	}
	failOnMemoryFS(&rep, manifest{OutFS: "tmpfs"})
	if rep.Failed != 144 || len(rep.Failures) != 1 || !strings.Contains(rep.Failures[0].Reason, "tmpfs") {
		t.Errorf("tmpfs run: %d failed, failures %+v; want all 144 jobs failed for tmpfs", rep.Failed, rep.Failures)
	}
}

func TestGeoMeanSkipsZeros(t *testing.T) {
	got, skipped := geoMean([]float64{2, 8, 0})
	if !near(got, 4) || skipped != 1 {
		t.Errorf("geoMean = %v skipping %d, want 4 skipping 1", got, skipped)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "setup", Start: 0, End: 20},
		{ID: 3, Parent: 1, Name: "engine.run", Start: 20, End: 90},
		// Two workers' jobs overlap in [40, 50): covered once.
		{ID: 4, Parent: 3, Name: "job", Start: 20, End: 50},
		{ID: 5, Parent: 3, Name: "job", Start: 40, End: 80},
		// A child may not cover time outside its parent.
		{ID: 6, Parent: 2, Name: "warmup", Start: 5, End: 25},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 10, 2: 5, 3: 10, 4: 30, 5: 40, 6: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestCheckResult(t *testing.T) {
	// One flow, a 24 s window, opportunities every 10 ms: 100 MTU/s.
	const mtuBps = 100 * trace.MTU * 8
	result := func(delivered float64, tr *trace.Trace) scenario.Result {
		r := scenario.Result{
			Spec:    scenario.Spec{Duration: secs(30), Skip: secs(6), PropDelay: secs(0.02), DataTrace: tr},
			Flows:   []scenario.FlowResult{{ThroughputBps: delivered * mtuBps}},
			Delay95: 50 * time.Millisecond,
		}
		r.Metrics.ThroughputBps = delivered * mtuBps
		r.Metrics.Utilization = delivered
		if tr != nil { // capacity as Metrics counts it: the first cycle only
			r.Metrics.Utilization = delivered * mtuBps * 24 / float64(tr.CapacityBits(6*time.Second, 30*time.Second))
		}
		return r
	}
	// The trace's last 2 s are an outage, so the link loops its first 2 s.
	short := &trace.Trace{}
	for at := time.Duration(0); at < 28*time.Second; at += 10 * time.Millisecond {
		short.Opportunities = append(short.Opportunities, at)
	}
	if err := checkResult(result(0.99, nil)); err != nil {
		t.Errorf("a 99 %% utilized link: %v", err)
	}
	if err := checkResult(result(1.05, nil)); err == nil {
		t.Error("a link 5 % over its capacity passed")
	}
	if r := result(0.99, short); r.Metrics.Utilization <= 1.05 {
		t.Fatalf("looped trace reads utilization %v, want above 1.05", r.Metrics.Utilization)
	} else if err := checkResult(r); err != nil {
		t.Errorf("a 99 %% utilized link on a looped trace: %v", err)
	}
	if err := checkResult(result(1.05, short)); err == nil {
		t.Error("a looped link 5 % over its capacity passed")
	}
	if err := checkResult(result(0, nil)); err != nil {
		t.Errorf("a window spent in an outage: %v", err)
	}
	slow := result(0.5, nil)
	slow.Delay95 = 10 * time.Millisecond
	if err := checkResult(slow); err == nil {
		t.Error("a delay below the propagation delay passed")
	}
	nan := result(0.5, nil)
	nan.Flows[0].ThroughputBps = math.NaN()
	if err := checkResult(nan); err == nil {
		t.Error("a NaN throughput passed")
	}
}

// Every workload at smoke scale: results exist, hold the invariants, and
// two passes of one process produce the same bytes.
func TestWorkloadSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := runWorkload(runOpts{workload: w.name, seed: 7, minPasses: 2, smoke: true, outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 {
				t.Fatalf("%d jobs failed: %+v", rep.Failed, rep.Failures)
			}
			if rep.Jobs == 0 || len(rep.Passes) != 2 {
				t.Fatalf("%d jobs, %d passes; want some jobs and 2 passes", rep.Jobs, len(rep.Passes))
			}
			if rep.Passes[0].Digest == "" || rep.Passes[0].Digest != rep.Passes[1].Digest {
				t.Errorf("pass digests %q and %q differ", rep.Passes[0].Digest, rep.Passes[1].Digest)
			}
			// The sharded workload also makes one checkpointed pass, which
			// (Failed being 0) reproduced the in-memory passes' digest.
			if w.sharded != (rep.CheckpointKB > 0 && rep.CheckpointWallS > 0) {
				t.Errorf("sharded %v, checkpoint %.1f KB in %.3f s", w.sharded, rep.CheckpointKB, rep.CheckpointWallS)
			}
			values := endToEndValues(rep, []float64{rep.SetupS})
			values["sim_tput_kbps"], values["sim_delay95_ms"] = rep.SimTputKbps, rep.SimDelay95Ms
			for name, v := range values {
				if !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive finite value", name, v)
				}
			}
		})
	}
}

// A traced run writes a span tree whose self times add up to the root.
func TestTracedRunWritesSpans(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/trace.json"
	rep, err := runWorkload(runOpts{workload: "transport_grid", seed: 7, minPasses: 1, smoke: true, outDir: dir, spans: path})
	if err != nil || rep.Failed != 0 {
		t.Fatalf("traced run: %v, %d failed", err, rep.Failed)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	var total int64
	for _, s := range tf.Spans {
		names[s.Name]++
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
	}
	for _, ns := range tf.SelfNS {
		total += ns
	}
	for _, want := range []string{"run", "setup", "spec.build", "warmup", "engine.run", "verify"} {
		if names[want] == 0 {
			t.Errorf("no %q span", want)
		}
	}
	if names["job"] != rep.Jobs {
		t.Errorf("%d job spans for %d jobs", names["job"], rep.Jobs)
	}
	// Self times partition the root span, except where parallel jobs
	// overlap (their self times are per worker).
	if root := tf.Spans[0]; total < root.End-root.Start {
		t.Errorf("self times sum to %d ns, less than the root's %d", total, root.End-root.Start)
	}
	if rep.JobMsP50 <= 0 || rep.ParallelEff <= 0 {
		t.Errorf("job_ms_p50 %v, parallel_eff %v; want both positive", rep.JobMsP50, rep.ParallelEff)
	}
}

// The sharded workload's traced run reports real job-time percentiles (from
// its sample pass) and an efficiency no worker can exceed.
func TestTracedShardedRun(t *testing.T) {
	dir := t.TempDir()
	rep, err := runWorkload(runOpts{workload: "shard_sweep", seed: 7, minPasses: 1, smoke: true, outDir: dir, spans: dir + "/trace.json"})
	if err != nil || rep.Failed != 0 {
		t.Fatalf("traced run: %v, %d failed: %+v", err, rep.Failed, rep.Failures)
	}
	if !(rep.JobMsP50 > 0 && rep.JobMsP90 > rep.JobMsP50) {
		t.Errorf("job_ms_p50 %v, job_ms_p90 %v; want 0 < p50 < p90", rep.JobMsP50, rep.JobMsP90)
	}
	if !(rep.ParallelEff > 0 && rep.ParallelEff <= 1) {
		t.Errorf("parallel_eff %v outside (0, 1]", rep.ParallelEff)
	}
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// BENCHMARK.json and the code must name the same workloads and metrics.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not made of [A-Za-z0-9_.-]", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check("workload", w.name)
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}

	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		check("end-to-end metric", m.name)
		got := bf.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound == nil || *got.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, got, m)
		}
		if !unitRE.MatchString(m.unit) || m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: unit %q or bound %v outside the contract", m.name, m.unit, m.bound)
		}
		// The driver's bound is never tighter than a paired one, and a
		// per-workload bound only ever widens the metric's own.
		for _, w := range workloads {
			if p := m.on(w.name).paired; p < m.paired || p > m.bound {
				t.Errorf("%s on %s: paired bound %v outside [%v, %v]", m.name, w.name, p, m.paired, m.bound)
			}
		}
		for name := range m.pairedOn {
			if _, ok := workloadByName(name); !ok {
				t.Errorf("%s: paired bound for unknown workload %q", m.name, name)
			}
		}
	}

	var layer []metricDef
	for _, d := range probes.Defs {
		layer = append(layer, metricDef{name: d.Name, unit: d.Unit, better: d.Better})
	}
	for _, m := range tracedLayer {
		layer = append(layer, m.metricDef)
	}
	listed := map[string]benchmarkMetric{}
	for _, m := range bf.PerLayer {
		listed[m.Name] = m
	}
	if len(bf.PerLayer) != len(layer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(bf.PerLayer), len(layer))
	}
	for _, m := range layer {
		check("per-layer metric", m.name)
		got, ok := listed[m.name]
		if !ok {
			t.Errorf("per-layer metric %s is missing from BENCHMARK.json", m.name)
			continue
		}
		if got.Unit != m.unit || got.Better != m.better || got.Bound != nil {
			t.Errorf("per-layer metric %s: BENCHMARK.json has %+v, the code %+v", m.name, got, m)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("%s: unit %q outside the contract", m.name, m.unit)
		}
	}
}
