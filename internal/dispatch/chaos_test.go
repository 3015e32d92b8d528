// Chaos suites: the supervisor against seeded and enumerated fault plans
// on the in-process fleet, in virtual time. Every sweep's merged JSONL
// must be byte-identical to the fault-free run, and every sweep must end
// within its retry/failover bound.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"sprout/internal/fault"
)

// timeline is what a seeded sweep must reproduce run after run.
type timeline struct {
	took      time.Duration
	attempts  []int
	failovers []int
	rescued   int
}

func (tl timeline) String() string {
	return fmt.Sprintf("%v of virtual time, attempts %v, failovers %v, %d rescued",
		tl.took, tl.attempts, tl.failovers, tl.rescued)
}

// soak runs seeds 1..n of NewPlan over hosts (nil = the one implicit
// host) with the CLI's stall fault (1.5 × the 2 min deadline). Each
// seed's sweep runs twice: both are checked, and the second must replay
// the first's timeline exactly. It returns the plans.
func soak(t *testing.T, n int, hosts []string) []fault.Plan {
	plans := make([]fault.Plan, n)
	for seed := int64(1); seed <= int64(n); seed++ {
		plan := fault.NewPlan(seed, 2, hosts, 3*time.Minute)
		plans[seed-1] = plan
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			var runs [2]timeline
			for i := range runs {
				f := newFleet(chaosSpecs(t))
				cfg := chaosConfig(t, f, hosts, plan)
				sum, took, err := f.supervise(t, context.Background(), cfg)
				if err != nil {
					t.Fatalf("%s: %v", plan, err)
				}
				checkSweep(t, cfg, sum, took)
				runs[i] = timeline{took: took, rescued: sum.Rescued}
				for _, o := range sum.Outcomes {
					runs[i].attempts = append(runs[i].attempts, o.Attempts)
					runs[i].failovers = append(runs[i].failovers, o.Failovers)
				}
			}
			if !reflect.DeepEqual(runs[0], runs[1]) {
				t.Fatalf("%s: the timeline moved between two runs: %v, then %v", plan, runs[0], runs[1])
			}
			t.Logf("%s: %v", plan, runs[0])
		})
	}
	return plans
}

// TestChaosSoak is the tentpole acceptance: across 20 seeded fault
// plans — crashes, stalls, torn tails, corruption, abrupt exits, slow
// starts — the supervised, resumed and rescued merged JSONL must be
// byte-identical to the fault-free run, every time, within the sweep's
// bound, on the same timeline every time.
func TestChaosSoak(t *testing.T) {
	faulted := 0
	for _, plan := range soak(t, 20, nil) {
		if len(plan.Shards) > 0 {
			faulted++
		}
	}
	if faulted == 0 {
		t.Fatal("all 20 plans were clean; the soak exercised nothing")
	}
}

// TestSuperviseRescueReassignsDeadShard forces the rescue path
// deterministically: every attempt of shard 0 crashes before its first
// record, so its whole job set must be recomputed — and the merge must
// still match the fault-free bytes.
func TestSuperviseRescueReassignsDeadShard(t *testing.T) {
	f := newFleet(chaosSpecs(t))
	cfg := chaosConfig(t, f, nil, shardFaults(map[int][]fault.Fault{0: {
		{Kind: fault.Crash, After: 0},
		{Kind: fault.Crash, After: 0},
		{Kind: fault.Crash, After: 0},
	}}))
	sum, took, err := f.supervise(t, context.Background(), cfg)
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
	checkSweep(t, cfg, sum, took)
}

// TestSuperviseCorruptLogIsPermanent: a corrupt record is caught by the
// supervisor's own pull on the attempt that wrote it (permanent: no
// retry burns against damaged bytes), the mirror keeps the whole records
// before it, and only the genuinely lost jobs are rescued.
func TestSuperviseCorruptLogIsPermanent(t *testing.T) {
	f := newFleet(chaosSpecs(t))
	cfg := chaosConfig(t, f, nil, shardFaults(map[int][]fault.Fault{0: {{Kind: fault.Corrupt, After: 1}}}))
	sum, took, err := f.supervise(t, context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Outcomes[0].Dead {
		t.Fatal("shard 0 survived a corrupt log")
	}
	if sum.Outcomes[0].Attempts != 1 {
		t.Fatalf("shard 0 used %d attempts, want 1 (the pull detects corruption on the attempt that wrote it)", sum.Outcomes[0].Attempts)
	}
	if want := 2; sum.Rescued != want { // 1 of shard 0's 3 jobs was mirrored before the damage
		t.Fatalf("rescued %d jobs, want %d", sum.Rescued, want)
	}
	checkSweep(t, cfg, sum, took)
}

// TestSuperviseUsageIsFatal: a worker that rejects its flags (exit 2)
// fails the whole sweep on its first attempt — every sibling would
// fail the same way — with nothing rescued and no results.
func TestSuperviseUsageIsFatal(t *testing.T) {
	f := newFleet(chaosSpecs(t))
	cfg := chaosConfig(t, f, nil, shardFaults(map[int][]fault.Fault{0: {{Kind: fault.Exit, Code: ExitUsage}}}))
	sum, _, err := f.supervise(t, context.Background(), cfg)
	var exit interface{ ExitCode() int }
	if !errors.As(err, &exit) || exit.ExitCode() != ExitUsage {
		t.Fatalf("sweep returned %v, want the worker's exit %d", err, ExitUsage)
	}
	if o := sum.Outcomes[0]; o.Attempts != 1 || !o.Dead {
		t.Fatalf("shard 0: %+v, want dead after one attempt", o)
	}
	if sum.Rescued != 0 || len(sum.Results) != 0 {
		t.Fatalf("a fatal sweep rescued %d jobs and returned %d results, want none", sum.Rescued, len(sum.Results))
	}
}

// TestSuperviseKillsStalledShard: a worker alive but frozen past the
// stall deadline is killed and the retry resumes from its checkpoint.
func TestSuperviseKillsStalledShard(t *testing.T) {
	// The stall sleeps far beyond the deadline: only the supervisor's
	// kill, not the injector's patience, can end the attempt promptly.
	f := newFleet(chaosSpecs(t))
	cfg := chaosConfig(t, f, nil, shardFaults(map[int][]fault.Fault{1: {{Kind: fault.Stall, After: 1, For: time.Hour}}}))
	sum, took, err := f.supervise(t, context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Outcomes[1].Attempts < 2 {
		t.Fatalf("stalled shard finished in %d attempt(s); the stall kill never happened", sum.Outcomes[1].Attempts)
	}
	if took >= time.Hour {
		t.Fatalf("supervision took %v; the stall was waited out, not detected", took)
	}
	checkSweep(t, cfg, sum, took)
}

// cost is what a sweep spent on its faulted shard: the shard's attempts
// and failovers, and the jobs the sweep rescued.
type cost struct{ attempts, failovers, rescued int }

// checkCost pins a single-fault sweep's cost: want for the faulted shard
// (dead exactly when it left jobs to rescue), one clean attempt for the
// other.
func checkCost(t *testing.T, sum Summary, shard int, want cost) {
	t.Helper()
	o := sum.Outcomes[shard]
	if got := (cost{o.Attempts, o.Failovers, sum.Rescued}); got != want || o.Dead != (want.rescued > 0) {
		t.Errorf("shard %d cost %+v (dead %v), want %+v", shard, got, o.Dead, want)
	}
	if o := sum.Outcomes[1-shard]; o.Attempts != 1 || o.Failovers != 0 || o.Dead {
		t.Errorf("unfaulted shard %d: %+v, want one clean attempt", o.Shard, o)
	}
}

// TestSingleFaults enumerates one fault at a time: each process fault
// kind at records 0–3 of each shard's first attempt, then each pull
// fault kind at pulls 0–6 of each of two hosts. For the pull faults each
// shard's first attempt pauses 1 s after its first record, so the pulls
// land mid-stream as well as in the drain. Each sweep's cost is pinned:
// with three records per shard, a crash, stall, torn or exit fault
// within them costs one retry, a corrupt one kills the shard and leaves
// its unmirrored records to rescue, a host death that fired costs one
// failover, and every other fault costs nothing.
func TestSingleFaults(t *testing.T) {
	process := []fault.Fault{
		{Kind: fault.Crash},
		{Kind: fault.Stall, For: 3 * time.Minute},
		{Kind: fault.Torn, Bytes: 9},
		{Kind: fault.Corrupt},
		{Kind: fault.Exit, Code: 7},
		{Kind: fault.Slow, For: fault.SlowStart},
	}
	for _, base := range process {
		for after := 0; after <= 3; after++ {
			for shard := 0; shard < 2; shard++ {
				flt := base
				flt.After = after
				t.Run(fmt.Sprintf("shard%d/%s", shard, flt), func(t *testing.T) {
					t.Parallel()
					f := newFleet(chaosSpecs(t))
					cfg := chaosConfig(t, f, nil, shardFaults(map[int][]fault.Fault{shard: {flt}}))
					sum, took, err := f.supervise(t, context.Background(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkSweep(t, cfg, sum, took)
					want := cost{1, 0, 0}
					if after < 3 {
						switch flt.Kind {
						case fault.Crash, fault.Stall, fault.Torn, fault.Exit:
							want.attempts = 2
						case fault.Corrupt:
							want.rescued = 3 - after
						}
					}
					checkCost(t, sum, shard, want)
				})
			}
		}
	}
	pull := []fault.Fault{
		{Kind: fault.ConnDrop},
		{Kind: fault.SlowStream, For: 50 * time.Millisecond},
		{Kind: fault.PartialPull, Bytes: 17},
		{Kind: fault.DupRecords, Bytes: 64},
		{Kind: fault.HostDown},
	}
	pause := []fault.Fault{{Kind: fault.Stall, After: 1, For: time.Second}}
	hosts := []string{"h0", "h1"}
	for _, base := range pull {
		for after := 0; after <= 6; after++ {
			for shard, host := range hosts { // the first placement puts shard i on hosts[i]
				flt := base
				flt.After = after
				t.Run(fmt.Sprintf("%s/%s", host, flt), func(t *testing.T) {
					t.Parallel()
					f := newFleet(chaosSpecs(t))
					cfg := chaosConfig(t, f, hosts, fault.Plan{
						Shards: map[int][]fault.Fault{0: pause, 1: pause},
						Hosts:  map[string][]fault.Fault{host: {flt}},
					})
					sum, took, err := f.supervise(t, context.Background(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkSweep(t, cfg, sum, took)
					want := cost{1, 0, 0}
					if f.Down(host) {
						want.failovers = 1
					}
					checkCost(t, sum, shard, want)
				})
			}
		}
	}
}
