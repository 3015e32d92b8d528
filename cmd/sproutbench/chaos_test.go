// Chaos tests: the supervisor run against its own CLI under seeded
// fault plans. The test binary doubles as the shard child — TestMain
// reroutes to main() when SPROUTBENCH_CHILD is set — so every test
// exercises the real exec/flag/env/exit path, not a mock.
package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sprout/internal/dispatch"
	"sprout/internal/fault"
	"sprout/internal/harness"
	"sprout/internal/scenario"
)

func TestMain(m *testing.M) {
	if os.Getenv("SPROUTBENCH_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// chaosScenario writes the soak grid: six specs, short but long enough
// that every shard writes multiple records (fault boundaries up to
// after=2 must be reachable with 2 shards × 3 jobs).
func chaosScenario(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "chaos.json")
	spec := `{
	  "defaults": {"link": "Verizon LTE", "duration": "1s", "skip": "250ms", "seed": 7},
	  "scenarios": [
	    {"name": "cubic down", "scheme": "cubic"},
	    {"name": "sprout down", "scheme": "sprout"},
	    {"name": "sprout up", "scheme": "sprout", "direction": "up"},
	    {"name": "sprout-ewma down", "scheme": "sprout-ewma"},
	    {"name": "cubic up", "scheme": "cubic", "direction": "up"},
	    {"name": "vegas down", "scheme": "vegas"}
	  ]
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func chaosOptions() harness.Options {
	return harness.Options{Duration: time.Second, Skip: 250 * time.Millisecond, Seed: 7}
}

// chaosReference computes the fault-free merged byte stream the chaos
// runs must reproduce.
func chaosReference(t *testing.T, specs []scenario.Spec) []byte {
	t.Helper()
	results, _, err := scenario.RunSharded(context.Background(), specs, scenario.ShardedOptions{Shards: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return chaosMergedBytes(t, results)
}

func chaosMergedBytes(t *testing.T, results []scenario.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := scenario.WriteMergedRecords(&buf, results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// chaosConfig is the supervision setup every chaos test shares: the test
// binary as child (env(1) marks it for the TestMain reroute), fast
// polling and backoff. The stall deadline must
// outlast a healthy child's time to its first record, and a race-built
// child on a 2-CPU box spends seconds folding the forecast table before
// it writes one: at 1 s every healthy child was stall-killed three times
// and rescued, which fails the tests asserting Rescued == 0. Tests that
// assert a stall kill set their own short deadline.
func chaosConfig(t *testing.T, scenarioPath string, specs []scenario.Spec, dir string, plan fault.Plan) dispatch.Config {
	t.Helper()
	opt := chaosOptions()
	return dispatch.Config{
		Worker:      append([]string{"env", "SPROUTBENCH_CHILD=1"}, workerPrefix(os.Args[0], scenarioPath, opt)...),
		Specs:       specs,
		Seed:        opt.Seed,
		Dir:         dir,
		Shards:      2,
		Parallel:    1,
		Retries:     3,
		Stall:       15 * time.Second,
		Poll:        25 * time.Millisecond,
		BackoffBase: 5 * time.Millisecond,
		Faults:      plan,
		Rescue:      true,
		Log:         testLogWriter{t},
	}
}

// shardFaults is a plan of process faults only.
func shardFaults(fs map[int][]fault.Fault) fault.Plan { return fault.Plan{Shards: fs} }

type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// TestChaosSoak is the tentpole acceptance: across 20 seeded fault
// plans — crashes, stalls, torn tails, corruption, abrupt exits, slow
// starts — the supervised, resumed and rescued merged JSONL must be
// byte-identical to the fault-free run, every time.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak execs 20 supervised sweeps; skipped with -short")
	}
	scenarioPath := chaosScenario(t)
	specs, _, err := loadScenarioSpecs(scenarioPath, chaosOptions())
	if err != nil {
		t.Fatal(err)
	}
	ref := chaosReference(t, specs)

	const soakRuns = 20
	rescued, faulted := 0, 0
	for seed := int64(1); seed <= soakRuns; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			plan := fault.NewPlan(seed, 2, nil, 3, 1500*time.Millisecond)
			if len(plan.Shards) > 0 {
				faulted++
			}
			dir := t.TempDir()
			sum, err := dispatch.Supervise(context.Background(), chaosConfig(t, scenarioPath, specs, dir, plan))
			if err != nil {
				t.Fatalf("seed %d (%s): %v", seed, plan, err)
			}
			if len(sum.Missing) > 0 {
				t.Fatalf("seed %d (%s): %d jobs missing after rescue: %v", seed, plan, len(sum.Missing), sum.Missing)
			}
			if sum.Rescued > 0 {
				rescued++
			}
			if got := chaosMergedBytes(t, sum.Results); !bytes.Equal(got, ref) {
				t.Fatalf("seed %d (%s): merged bytes differ from the fault-free run\n got %d bytes\nwant %d bytes", seed, plan, len(got), len(ref))
			}
		})
	}
	if faulted == 0 {
		t.Fatal("all 20 plans were clean; the soak exercised nothing")
	}
	t.Logf("chaos soak: %d/%d plans injected faults, %d runs needed rescue", faulted, soakRuns, rescued)
}

// TestSuperviseRescueReassignsDeadShard forces the rescue path
// deterministically: every attempt of shard 0 crashes before its first
// record, so its whole job set must be recomputed — and the merge must
// still match the fault-free bytes.
func TestSuperviseRescueReassignsDeadShard(t *testing.T) {
	scenarioPath := chaosScenario(t)
	specs, _, err := loadScenarioSpecs(scenarioPath, chaosOptions())
	if err != nil {
		t.Fatal(err)
	}
	plan := shardFaults(map[int][]fault.Fault{0: {
		{Kind: fault.Crash, After: 0},
		{Kind: fault.Crash, After: 0},
		{Kind: fault.Crash, After: 0},
	}})
	sum, err := dispatch.Supervise(context.Background(), chaosConfig(t, scenarioPath, specs, t.TempDir(), plan))
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Outcomes[0].Dead {
		t.Fatal("shard 0 survived three guaranteed crashes")
	}
	if sum.Outcomes[0].Attempts != 3 {
		t.Fatalf("shard 0 used %d attempts, want the full retry budget of 3", sum.Outcomes[0].Attempts)
	}
	if sum.Outcomes[1].Dead || sum.Outcomes[1].Err != nil {
		t.Fatalf("healthy shard 1 reported %+v", sum.Outcomes[1])
	}
	if want := 3; sum.Rescued != want { // shard 0 of 2 owns indexes 0,2,4
		t.Fatalf("rescued %d jobs, want %d", sum.Rescued, want)
	}
	if len(sum.Missing) > 0 {
		t.Fatalf("missing after rescue: %v", sum.Missing)
	}
	if got := chaosMergedBytes(t, sum.Results); !bytes.Equal(got, chaosReference(t, specs)) {
		t.Fatal("rescued merge differs from the fault-free bytes")
	}
}

// TestSupervisePartialReportsMissing is the -partial acceptance: with
// rescue disabled, a dead shard's jobs surface as the exact missing
// global indexes, and everything else still merges.
func TestSupervisePartialReportsMissing(t *testing.T) {
	scenarioPath := chaosScenario(t)
	specs, _, err := loadScenarioSpecs(scenarioPath, chaosOptions())
	if err != nil {
		t.Fatal(err)
	}
	plan := shardFaults(map[int][]fault.Fault{0: {
		{Kind: fault.Crash, After: 0},
		{Kind: fault.Crash, After: 0},
		{Kind: fault.Crash, After: 0},
	}})
	cfg := chaosConfig(t, scenarioPath, specs, t.TempDir(), plan)
	cfg.Rescue = false
	sum, err := dispatch.Supervise(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := "[0 2 4]"; formatMissing(sum.Missing) != want {
		t.Fatalf("missing = %v, want exactly shard 0's job set %s", sum.Missing, want)
	}
	if sum.Rescued != 0 {
		t.Fatalf("rescued %d jobs with rescue disabled", sum.Rescued)
	}
	if len(sum.Results) != len(specs)-3 {
		t.Fatalf("partial merge carried %d results, want %d", len(sum.Results), len(specs)-3)
	}
}

// TestSuperviseQuarantinesCorruptLog: a corrupt record is caught by the
// supervisor's own checkpoint pull on the attempt that wrote it
// (permanent classification — no retry burns against damaged bytes),
// the damaged log is quarantined down to its valid prefix, and only the
// genuinely lost jobs are rescued.
func TestSuperviseQuarantinesCorruptLog(t *testing.T) {
	scenarioPath := chaosScenario(t)
	specs, _, err := loadScenarioSpecs(scenarioPath, chaosOptions())
	if err != nil {
		t.Fatal(err)
	}
	plan := shardFaults(map[int][]fault.Fault{0: {{Kind: fault.Corrupt, After: 1}}})
	dir := t.TempDir()
	sum, err := dispatch.Supervise(context.Background(), chaosConfig(t, scenarioPath, specs, dir, plan))
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Outcomes[0].Dead {
		t.Fatal("shard 0 survived a corrupt log")
	}
	if sum.Outcomes[0].Attempts != 1 {
		t.Fatalf("shard 0 used %d attempts, want 1 (the pull detects corruption on the attempt that wrote it)", sum.Outcomes[0].Attempts)
	}
	if sum.Quarantined != 1 {
		t.Fatalf("quarantined %d logs, want 1", sum.Quarantined)
	}
	if want := 2; sum.Rescued != want { // 1 of shard 0's 3 jobs survived in the salvaged prefix
		t.Fatalf("rescued %d jobs, want %d", sum.Rescued, want)
	}
	if got := chaosMergedBytes(t, sum.Results); !bytes.Equal(got, chaosReference(t, specs)) {
		t.Fatal("merge after quarantine differs from the fault-free bytes")
	}
}

// TestSuperviseKillsStalledShard: a child alive but frozen past the
// stall deadline is killed and the retry resumes from its checkpoint.
func TestSuperviseKillsStalledShard(t *testing.T) {
	scenarioPath := chaosScenario(t)
	specs, _, err := loadScenarioSpecs(scenarioPath, chaosOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The stall sleeps far beyond the deadline: only the supervisor's
	// kill, not the injector's patience, can end the attempt promptly.
	plan := shardFaults(map[int][]fault.Fault{1: {{Kind: fault.Stall, After: 1, For: 5 * time.Minute}}})
	cfg := chaosConfig(t, scenarioPath, specs, t.TempDir(), plan)
	cfg.Stall = 500 * time.Millisecond
	start := time.Now()
	sum, err := dispatch.Supervise(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Minute {
		t.Fatalf("supervision took %v; the stall was waited out, not detected", elapsed)
	}
	if sum.Outcomes[1].Attempts < 2 {
		t.Fatalf("stalled shard finished in %d attempt(s); the stall kill never happened", sum.Outcomes[1].Attempts)
	}
	if len(sum.Missing) > 0 {
		t.Fatalf("missing: %v", sum.Missing)
	}
	if got := chaosMergedBytes(t, sum.Results); !bytes.Equal(got, chaosReference(t, specs)) {
		t.Fatal("merge after stall kill differs from the fault-free bytes")
	}
}
