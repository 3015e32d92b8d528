// Package probes times single layers of the emulator from outside: each
// probe calls only a layer's public functions, on input shaped like one
// of the benchmark's workloads, discards a warm-up, and reports the median
// and minimum of several timed batches. The numbers attribute an
// end-to-end change to the layer that caused it; they carry no bound.
package probes

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// Result is one probe's measurement.
type Result struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	// Value is the median over the batches; Min the fastest batch (the
	// least disturbed one). For counts they are equal.
	Value float64 `json:"value"`
	Min   float64 `json:"min"`
	// N is the number of timed batches behind Value.
	N int `json:"n"`
}

// Def names one probe metric as BENCHMARK.json lists it.
type Def struct{ Name, Unit, Better string }

// Defs lists every probe in the order All reports them. It exists so the
// names can be checked against BENCHMARK.json without running the probes;
// All fails if its results and this list ever disagree.
var Defs = []Def{
	{"core.tick_us", "us", "lower"},
	{"core.forecast_us", "us", "lower"},
	{"core.forecast_all5_us", "us", "lower"},
	{"core.batch_us_per_flow", "us", "lower"},
	{"core.table_build_ms", "ms", "lower"},
	{"core.allocs_per_forecast", "count", "lower"},
	{"sim.event_ns", "ns", "lower"},
	{"sim.event_ns_deep", "ns", "lower"},
	{"sim.reschedule_ns", "ns", "lower"},
	{"link.pkt_ns", "ns", "lower"},
	{"link.small_pkt_ns", "ns", "lower"},
	{"link.allocs_per_pkt", "count", "lower"},
	{"cell.pf_grant_ns_n16", "ns", "lower"},
	{"cell.pf_grant_ns_n1024", "ns", "lower"},
	{"cell.rr_grant_ns_n1024", "ns", "lower"},
	{"cell.attach_detach_ns", "ns", "lower"},
	{"cell.allocs_per_window", "count", "lower"},
	{"trace.next_ns", "ns", "lower"},
	{"trace.reset_us", "us", "lower"},
	{"trace.generate_ms_150s", "ms", "lower"},
	{"metrics.observe_ns", "ns", "lower"},
	{"metrics.evaluate_us_per_kdeliv", "us", "lower"},
	{"scenario.normalize_us", "us", "lower"},
	{"scenario.compile_us_per_job", "us", "lower"},
	{"scenario.warm_job_overhead_us", "us", "lower"},
	{"scenario.encode_us", "us", "lower"},
	{"scenario.decode_us", "us", "lower"},
	{"engine.dispatch_us_per_job", "us", "lower"},
	{"engine.record_write_us", "us", "lower"},
	{"engine.record_fsync_us", "us", "lower"},
	{"engine.merge_us_per_record", "us", "lower"},
	{"transport.us_per_sim_s", "us", "lower"},
	{"tcp.cubic_us_per_sim_s", "us", "lower"},
	{"tcp.vegas_us_per_sim_s", "us", "lower"},
	{"app.skype_us_per_sim_s", "us", "lower"},
	{"tunnel.us_per_sim_s", "us", "lower"},
	{"transport.sprout_tput_kbps", "kbps", "higher"},
	{"transport.sprout_self_delay_ms", "ms", "lower"},
}

// Config sets how long the probes measure.
type Config struct {
	// Batches is the number of timed batches per micro-probe and Target
	// the duration a batch is calibrated to last.
	Batches int
	Target  time.Duration
	// HeavyBatches is the batch count of probes whose one operation
	// takes tens of milliseconds or more (a table build, a 60-sim-s
	// flow, a 160 s trace).
	HeavyBatches int
	// Dir is a writable directory on the filesystem checkpoints use, for
	// the fsync probe.
	Dir string
	// Workers is the engine pool size the dispatch probe uses.
	Workers int
}

// Quick fits inside one traced benchmark run; Full is `-probes` alone.
func Quick(dir string, workers int) Config {
	return Config{Batches: 20, Target: time.Millisecond, HeavyBatches: 3, Dir: dir, Workers: workers}
}

func Full(dir string, workers int) Config {
	return Config{Batches: 30, Target: 4 * time.Millisecond, HeavyBatches: 20, Dir: dir, Workers: workers}
}

// All runs every probe, layer by layer.
func All(c Config) ([]Result, error) {
	var out []Result
	for _, layer := range []func(Config) ([]Result, error){
		coreProbes, simProbes, linkProbes, cellProbes, traceProbes,
		metricsProbes, scenarioProbes, engineProbes, endpointProbes,
	} {
		rs, err := layer(c)
		if err != nil {
			return nil, err
		}
		out = append(out, rs...)
	}
	if len(out) != len(Defs) {
		return nil, fmt.Errorf("probes: %d results for %d definitions", len(out), len(Defs))
	}
	for i, d := range Defs {
		if out[i].Name != d.Name || out[i].Unit != d.Unit {
			return nil, fmt.Errorf("probes: result %d is %s in %s, defined as %s in %s", i, out[i].Name, out[i].Unit, d.Name, d.Unit)
		}
	}
	return out, nil
}

// perOp measures body, which performs n operations and returns the time
// they took (so it can leave its own preparation untimed). n is doubled
// until one batch lasts target, one warm-up batch is discarded, and the
// per-operation nanoseconds of the remaining batches are summarized.
func perOp(target time.Duration, batches int, body func(n int) time.Duration) (median, fastest float64) {
	n := 1
	for body(n) < target && n < 1<<24 { // also the warm-up
		n *= 2
	}
	per := make([]float64, batches)
	for i := range per {
		per[i] = float64(body(n).Nanoseconds()) / float64(n)
	}
	sort.Float64s(per)
	return per[len(per)/2], per[0]
}

// micro, fixed and heavy wrap perOp into a Result in the given unit,
// where scale converts nanoseconds per operation into that unit.
func (c Config) micro(name, unit string, scale float64, body func(n int) time.Duration) Result {
	med, lo := perOp(c.Target, c.Batches, body)
	return Result{Name: name, Unit: unit, Value: med * scale, Min: lo * scale, N: c.Batches}
}

// fixed times one operation per batch (a zero target), for operations
// long enough to need no calibration.
func (c Config) fixed(name, unit string, scale float64, batches int, body func(n int) time.Duration) Result {
	med, lo := perOp(0, batches, body)
	return Result{Name: name, Unit: unit, Value: med * scale, Min: lo * scale, N: batches}
}

func (c Config) heavy(name, unit string, scale float64, body func(n int) time.Duration) Result {
	return c.fixed(name, unit, scale, c.HeavyBatches, body)
}

// timed runs fn n times under one clock.
func timed(n int, fn func()) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(t0)
}

const (
	perNS = 1.0
	perUS = 1e-3
	perMS = 1e-6
)

// allocsPer counts heap allocations per call of fn over n calls. The
// probes run on one goroutine, so the process-wide malloc counter is
// fn's own.
func allocsPer(name string, n int, fn func()) Result {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	v := float64(after.Mallocs-before.Mallocs) / float64(n)
	return Result{Name: name, Unit: "count", Value: v, Min: v, N: 1}
}
