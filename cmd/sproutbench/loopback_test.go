// Supervision over the loopback transport: real worker processes on a
// simulated multi-host fabric, exercising the full remote protocol —
// push, start, offset pull, mirroring, host health, failover — with
// hosts dying mid-sweep. The acceptance bar everywhere is the same as
// the local chaos soak's: the merged JSONL is byte-identical to the
// fault-free run.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sprout/internal/dispatch"
	"sprout/internal/fault"
)

// loopbackConfig is chaosConfig rewired onto a loopback host pool.
func loopbackConfig(t *testing.T, tr dispatch.Transport, hosts []string) dispatch.Config {
	t.Helper()
	scenarioPath := chaosScenario(t)
	specs, _, err := loadScenarioSpecs(scenarioPath, chaosOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(t, scenarioPath, specs, t.TempDir(), fault.Plan{})
	cfg.Transport = tr
	cfg.Hosts = hosts
	return cfg
}

// TestSuperviseLoopbackClean: the remote protocol at rest — push, start,
// offset pull, mirror, drain — reproduces the direct run byte for byte
// across a two-host pool, with no recovery machinery involved.
func TestSuperviseLoopbackClean(t *testing.T) {
	cfg := loopbackConfig(t, dispatch.NewLoopback(), []string{"h0", "h1"})
	sum, err := dispatch.Supervise(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Missing) > 0 || sum.Rescued != 0 {
		t.Fatalf("clean loopback sweep: missing %v, rescued %d", sum.Missing, sum.Rescued)
	}
	for _, o := range sum.Outcomes {
		if o.Attempts != 1 || o.Failovers != 0 || o.Dead {
			t.Fatalf("clean sweep outcome %+v", o)
		}
	}
	if got := chaosMergedBytes(t, sum.Results); !bytes.Equal(got, chaosReference(t, cfg.Specs)) {
		t.Fatal("loopback merge differs from the fault-free bytes")
	}
}

// TestSuperviseLoopbackDeadHostFailover is the failover acceptance: with
// one host dead before the sweep starts, every shard placed on it must
// fail over to the survivor and complete there — zero jobs rescued, so
// the recovery demonstrably came from re-dispatch, not from the
// in-process last resort.
func TestSuperviseLoopbackDeadHostFailover(t *testing.T) {
	lb := dispatch.NewLoopback()
	lb.KillHost("h0")
	cfg := loopbackConfig(t, lb, []string{"h0", "h1"})
	sum, err := dispatch.Supervise(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Missing) > 0 {
		t.Fatalf("missing with a live host remaining: %v", sum.Missing)
	}
	if sum.Rescued != 0 {
		t.Fatalf("rescued %d jobs; a dead host must be handled by failover, not rescue", sum.Rescued)
	}
	failovers := 0
	for _, o := range sum.Outcomes {
		failovers += o.Failovers
		if o.Dead {
			t.Fatalf("shard %d died with host h1 healthy: %v", o.Shard, o.Err)
		}
	}
	if failovers == 0 {
		t.Fatal("no failovers recorded; the dead host was never even tried")
	}
	if got := chaosMergedBytes(t, sum.Results); !bytes.Equal(got, chaosReference(t, cfg.Specs)) {
		t.Fatal("failover merge differs from the fault-free bytes")
	}
}

// TestSuperviseLoopbackMidSweepKill: a host killed while its workers are
// mid-shard — via the HostDown network fault, exactly as the soak draws
// it — loses those attempts, and the shards still converge on the
// survivor with the records mirrored before the kill preserved. No
// rescue: the mirror plus re-dispatch carry the whole recovery.
func TestSuperviseLoopbackMidSweepKill(t *testing.T) {
	lb := dispatch.NewLoopback()
	cfg := loopbackConfig(t, lb, []string{"h0", "h1"})
	// Three shards across two hosts: the kill strands work wherever the
	// pool placed it. Simulated jobs outrun wall-clock polling, so a
	// mid-stream stall holds each worker in flight long enough that pull
	// 3 lands mid-sweep.
	cfg.Shards = 3
	cfg.Faults = fault.Plan{
		Shards: map[int][]fault.Fault{
			0: {{Kind: fault.Stall, After: 1, For: 300 * time.Millisecond}},
			1: {{Kind: fault.Stall, After: 1, For: 300 * time.Millisecond}},
			2: {{Kind: fault.Stall, After: 1, For: 300 * time.Millisecond}},
		},
		Hosts: map[string][]fault.Fault{"h0": {{Kind: fault.HostDown, After: 3}}},
	}
	sum, err := dispatch.Supervise(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Missing) > 0 {
		t.Fatalf("missing after mid-sweep kill: %v", sum.Missing)
	}
	if sum.Rescued != 0 {
		t.Fatalf("rescued %d jobs; the mirror + failover should have recovered everything", sum.Rescued)
	}
	if !lb.Down("h0") {
		t.Fatal("the HostDown fault never fired")
	}
	recovered := 0
	for _, o := range sum.Outcomes {
		if o.Attempts > 1 || o.Failovers > 0 {
			recovered++
		}
	}
	if recovered == 0 {
		t.Fatal("no shard recorded a retry or failover; the kill cost nothing?")
	}
	if got := chaosMergedBytes(t, sum.Results); !bytes.Equal(got, chaosReference(t, cfg.Specs)) {
		t.Fatal("mid-sweep-kill merge differs from the fault-free bytes")
	}
}

// TestSuperviseLoopbackTotalLossRescue: when every host dies, failover
// has nowhere to go — the shards are declared dead and the in-process
// rescue (the documented last resort) recomputes what the mirrors do
// not hold, still byte-identically.
func TestSuperviseLoopbackTotalLossRescue(t *testing.T) {
	cfg := loopbackConfig(t, dispatch.NewLoopback(), []string{"h0", "h1"})
	cfg.Faults = fault.Plan{Hosts: map[string][]fault.Fault{
		"h0": {{Kind: fault.HostDown, After: 0}},
		"h1": {{Kind: fault.HostDown, After: 0}},
	}}
	sum, err := dispatch.Supervise(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Missing) > 0 {
		t.Fatalf("missing after rescue: %v", sum.Missing)
	}
	if sum.Rescued == 0 {
		t.Fatal("every host died yet nothing was rescued; where did the records come from?")
	}
	dead := 0
	for _, o := range sum.Outcomes {
		if o.Dead {
			dead++
		}
	}
	if dead == 0 {
		t.Fatal("no shard declared dead with the whole pool down")
	}
	if got := chaosMergedBytes(t, sum.Results); !bytes.Equal(got, chaosReference(t, cfg.Specs)) {
		t.Fatal("total-loss rescue merge differs from the fault-free bytes")
	}
}

// TestSuperviseLoopbackNetChaosSoak is the tentpole's network acceptance:
// seeded plans drawing connection drops, slow streams, partial pulls,
// duplicated replays and mid-sweep host kills — layered over the process
// fault plans the local soak uses — must always merge byte-identical to
// the fault-free run, and across the band the generator must actually
// draw the network fault space (≥3 kinds and at least one host kill).
func TestSuperviseLoopbackNetChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("net chaos soak execs 12 supervised sweeps; skipped with -short")
	}
	scenarioPath := chaosScenario(t)
	specs, _, err := loadScenarioSpecs(scenarioPath, chaosOptions())
	if err != nil {
		t.Fatal(err)
	}
	ref := chaosReference(t, specs)
	hosts := []string{"h0", "h1", "h2"}

	const soakRuns = 12
	kindsDrawn := map[fault.Kind]bool{}
	for seed := int64(1); seed <= soakRuns; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			plan := fault.NewPlan(seed, 2, hosts, 3, 1500*time.Millisecond)
			for _, fs := range plan.Hosts {
				for _, f := range fs {
					kindsDrawn[f.Kind] = true
				}
			}
			cfg := chaosConfig(t, scenarioPath, specs, t.TempDir(), plan)
			cfg.Transport = dispatch.NewLoopback()
			cfg.Hosts = hosts
			sum, err := dispatch.Supervise(context.Background(), cfg)
			if err != nil {
				t.Fatalf("seed %d (%s): %v", seed, plan, err)
			}
			if len(sum.Missing) > 0 {
				t.Fatalf("seed %d (%s): missing %v", seed, plan, sum.Missing)
			}
			if got := chaosMergedBytes(t, sum.Results); !bytes.Equal(got, ref) {
				t.Fatalf("seed %d (%s): merged bytes differ from the fault-free run", seed, plan)
			}
		})
	}
	distinct := 0
	for range kindsDrawn {
		distinct++
	}
	if distinct < 3 {
		t.Fatalf("the soak drew only %d network fault kinds (%v); want at least 3", distinct, kindsDrawn)
	}
	if !kindsDrawn[fault.HostDown] {
		t.Fatal("the soak never killed a host; the failover path went unexercised")
	}
	t.Logf("net chaos soak: %d seeds, fault kinds drawn: %v", soakRuns, kindsDrawn)
}

// TestSuperviseTimeout is the -timeout contract at the supervise layer: an
// expired deadline cancels every attempt, the summary still carries what
// completed plus the exact missing-index complement, and rescue is
// skipped (the sweep was cut short, not damaged).
func TestSuperviseTimeout(t *testing.T) {
	cfg := loopbackConfig(t, nil, nil) // default LocalExec, implicit host
	// Hold each worker mid-shard well past the deadline, so the sweep is
	// guaranteed to be cut short with work genuinely outstanding.
	cfg.Faults = shardFaults(map[int][]fault.Fault{
		0: {{Kind: fault.Stall, After: 1, For: 5 * time.Second}},
		1: {{Kind: fault.Stall, After: 1, For: 5 * time.Second}},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	sum, err := dispatch.Supervise(ctx, cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired sweep returned %v, want DeadlineExceeded", err)
	}
	if sum.Rescued != 0 {
		t.Fatalf("a timed-out sweep rescued %d jobs; rescue must be skipped on cancellation", sum.Rescued)
	}
	if len(sum.Results)+len(sum.Missing) != len(cfg.Specs) {
		t.Fatalf("results (%d) + missing (%d) do not partition the %d-job grid",
			len(sum.Results), len(sum.Missing), len(cfg.Specs))
	}
	if len(sum.Missing) == 0 {
		t.Fatal("both workers were stalled past the deadline yet nothing is missing")
	}
	// The report is the exact complement of the merged indexes.
	missing := map[int]bool{}
	for _, idx := range sum.Missing {
		if idx < 0 || idx >= len(cfg.Specs) {
			t.Fatalf("missing index %d out of range", idx)
		}
		missing[idx] = true
	}
	if len(missing) != len(sum.Missing) {
		t.Fatalf("missing list has duplicates: %v", sum.Missing)
	}
}

// TestSuperviseRejectsBadBounds: -retries 0 and -stall 0 mean the
// default at the CLI, which parseShardFlags applies; a zero or negative
// bound reaching Supervise is a caller bug, refused before any worker
// starts rather than silently re-defaulted.
func TestSuperviseRejectsBadBounds(t *testing.T) {
	for _, c := range []struct {
		name    string
		retries int
		stall   time.Duration
	}{
		{"zero retries", 0, time.Second},
		{"zero stall", 3, 0},
		{"negative stall", 3, -time.Second},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := loopbackConfig(t, nil, nil)
			cfg.Retries, cfg.Stall = c.retries, c.stall
			if _, err := dispatch.Supervise(context.Background(), cfg); err == nil {
				t.Fatal("Supervise accepted the bound")
			}
			if _, err := os.Stat(filepath.Join(cfg.Dir, "manifest.json")); !os.IsNotExist(err) {
				t.Fatalf("a rejected sweep touched its checkpoint directory (stat: %v)", err)
			}
		})
	}
}
