// Supervision over a multi-host loopback fabric: the full remote
// protocol — push, start, offset pull, mirroring, host health, failover
// — with hosts dying mid-sweep, and the sweep cancelled mid-flight. The
// acceptance bar is the chaos soak's: the merged JSONL is byte-identical
// to the fault-free run.
package dispatch

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sprout/internal/engine"
	"sprout/internal/fault"
)

// TestSuperviseLoopbackClean: the remote protocol at rest — push, start,
// offset pull, mirror, drain — reproduces the direct run byte for byte
// across a two-host pool, with no recovery machinery involved.
func TestSuperviseLoopbackClean(t *testing.T) {
	f := newFleet(chaosSpecs(t))
	cfg := chaosConfig(t, f, []string{"h0", "h1"}, fault.Plan{})
	sum, took, err := f.supervise(t, context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Rescued != 0 {
		t.Fatalf("clean loopback sweep rescued %d", sum.Rescued)
	}
	for _, o := range sum.Outcomes {
		if o.Attempts != 1 || o.Failovers != 0 || o.Dead {
			t.Fatalf("clean sweep outcome %+v", o)
		}
	}
	checkSweep(t, cfg, sum, took)
}

// TestSuperviseLoopbackDeadHostFailover is the failover acceptance: with
// one host dead before the sweep starts, every shard placed on it must
// fail over to the survivor and complete there — zero jobs rescued, so
// the recovery demonstrably came from re-dispatch, not from the
// in-process last resort.
func TestSuperviseLoopbackDeadHostFailover(t *testing.T) {
	f := newFleet(chaosSpecs(t))
	f.KillHost("h0")
	cfg := chaosConfig(t, f, []string{"h0", "h1"}, fault.Plan{})
	sum, took, err := f.supervise(t, context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
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
	checkSweep(t, cfg, sum, took)
}

// TestSuperviseLoopbackMidSweepKill: a host killed while its workers are
// mid-shard — via the HostDown pull fault, exactly as the soak draws it
// — loses those attempts, and the shards still converge on the survivor
// with the records mirrored before the kill preserved. No rescue: the
// mirror plus re-dispatch carry the whole recovery.
func TestSuperviseLoopbackMidSweepKill(t *testing.T) {
	f := newFleet(chaosSpecs(t))
	// Three shards across two hosts: the kill strands work wherever the
	// pool placed it. A pause after each worker's first record holds it
	// in flight, so pull 3 lands mid-sweep.
	cfg := chaosConfig(t, f, []string{"h0", "h1"}, fault.Plan{
		Shards: map[int][]fault.Fault{
			0: {{Kind: fault.Stall, After: 1, For: 300 * time.Millisecond}},
			1: {{Kind: fault.Stall, After: 1, For: 300 * time.Millisecond}},
			2: {{Kind: fault.Stall, After: 1, For: 300 * time.Millisecond}},
		},
		Hosts: map[string][]fault.Fault{"h0": {{Kind: fault.HostDown, After: 3}}},
	})
	cfg.Shards = 3
	sum, took, err := f.supervise(t, context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Rescued != 0 {
		t.Fatalf("rescued %d jobs; the mirror + failover should have recovered everything", sum.Rescued)
	}
	if !f.Down("h0") {
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
	checkSweep(t, cfg, sum, took)
}

// TestSuperviseLoopbackTotalLossRescue: when every host dies, failover
// has nowhere to go — the shards are declared dead and the in-process
// rescue (the documented last resort) recomputes what the mirrors do
// not hold, still byte-identically.
func TestSuperviseLoopbackTotalLossRescue(t *testing.T) {
	f := newFleet(chaosSpecs(t))
	cfg := chaosConfig(t, f, []string{"h0", "h1"}, fault.Plan{Hosts: map[string][]fault.Fault{
		"h0": {{Kind: fault.HostDown, After: 0}},
		"h1": {{Kind: fault.HostDown, After: 0}},
	}})
	sum, took, err := f.supervise(t, context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
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
	checkSweep(t, cfg, sum, took)
}

// TestSuperviseLoopbackNetChaosSoak is the network acceptance: seeded
// plans drawing connection drops, slow streams, partial pulls,
// duplicated replays and mid-sweep host kills — layered over the process
// fault plans the local soak uses — must always merge byte-identical to
// the fault-free run, within the bound, on a replayable timeline, and
// across the band the generator must actually draw the network fault
// space (≥3 kinds and at least one host kill).
func TestSuperviseLoopbackNetChaosSoak(t *testing.T) {
	kinds := map[fault.Kind]bool{}
	for _, plan := range soak(t, 12, []string{"h0", "h1", "h2"}) {
		for _, fs := range plan.Hosts {
			for _, f := range fs {
				kinds[f.Kind] = true
			}
		}
	}
	if len(kinds) < 3 {
		t.Fatalf("the soak drew only %d network fault kinds (%v); want at least 3", len(kinds), kinds)
	}
	if !kinds[fault.HostDown] {
		t.Fatal("the soak never killed a host; the failover path went unexercised")
	}
}

// stalledPlan holds both workers after their first record, long past
// any instant the tests below cancel at.
var stalledPlan = shardFaults(map[int][]fault.Fault{
	0: {{Kind: fault.Stall, After: 1, For: time.Hour}},
	1: {{Kind: fault.Stall, After: 1, For: time.Hour}},
})

// cancelAt returns a context whose cause becomes cause at virtual
// instant d.
func (f *fleet) cancelAt(d time.Duration, cause error) context.Context {
	ctx, cancel := context.WithCancelCause(context.Background())
	f.clock.afterFunc(d, func() { cancel(cause) })
	return ctx
}

// TestSuperviseTimeout is the -timeout contract at the supervise layer:
// an expired deadline cancels every attempt, each attempt drains what
// its worker flushed (here each shard's first record, written before
// any poll), the summary carries it plus the exact missing complement,
// rescue is skipped, and a rerun on the same checkpoint completes.
func TestSuperviseTimeout(t *testing.T) {
	f := newFleet(chaosSpecs(t))
	cfg := chaosConfig(t, f, nil, stalledPlan)
	sum, took, err := f.supervise(t, f.cancelAt(200*time.Millisecond, context.DeadlineExceeded), cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired sweep returned %v, want DeadlineExceeded", err)
	}
	if took != 200*time.Millisecond {
		t.Fatalf("the sweep returned at %v, want the deadline's 200ms", took)
	}
	if sum.Rescued != 0 {
		t.Fatalf("a timed-out sweep rescued %d jobs; rescue must be skipped on cancellation", sum.Rescued)
	}
	if want := []int{2, 3, 4, 5}; !reflect.DeepEqual(sum.Missing, want) || len(sum.Results) != 2 {
		t.Fatalf("missing %v with %d results, want %v: each worker's first record drained", sum.Missing, len(sum.Results), want)
	}

	rerun := newFleet(f.specs)
	cfg2 := chaosConfig(t, rerun, nil, fault.Plan{})
	cfg2.Dir = cfg.Dir
	sum, took, err = rerun.supervise(t, context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	checkSweep(t, cfg2, sum, took)
}

// TestSuperviseCancelDuringSlowPull: a pull the network is slowing ends
// when the sweep is cancelled, so the sweep returns at that virtual
// instant with its partial report instead of waiting the pull out.
func TestSuperviseCancelDuringSlowPull(t *testing.T) {
	f := newFleet(chaosSpecs(t))
	plan := stalledPlan
	plan.Hosts = map[string][]fault.Fault{"local": {{Kind: fault.SlowStream, After: 0, For: time.Minute}}}
	cfg := chaosConfig(t, f, nil, plan)
	// The first pull starts at the first poll, 250 ms in.
	sum, took, err := f.supervise(t, f.cancelAt(280*time.Millisecond, context.Canceled), cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v", err)
	}
	if took != 280*time.Millisecond {
		t.Fatalf("the sweep returned at %v, want the cancellation's 280ms", took)
	}
	if want := []int{2, 3, 4, 5}; !reflect.DeepEqual(sum.Missing, want) {
		t.Fatalf("missing %v, want %v", sum.Missing, want)
	}
}

// TestSuperviseResumeRejectsCorruptMirror: a checkpoint whose mirror is
// already corrupt fails the sweep with ErrCorruptLog naming the file,
// instead of pushing damaged bytes to a worker.
func TestSuperviseResumeRejectsCorruptMirror(t *testing.T) {
	f := newFleet(chaosSpecs(t))
	cfg := chaosConfig(t, f, nil, fault.Plan{})
	path := engine.ShardLogPath(cfg.Dir, 0)
	if err := os.WriteFile(path, []byte("{\"i\":corrupt!}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sum, _, err := f.supervise(t, context.Background(), cfg)
	if !errors.Is(err, engine.ErrCorruptLog) || !strings.Contains(err.Error(), path) {
		t.Fatalf("resume over a corrupt mirror returned %v, want ErrCorruptLog naming %s", err, path)
	}
	if !sum.Outcomes[0].Dead || sum.Outcomes[0].Attempts != 1 {
		t.Fatalf("shard 0 over a corrupt mirror: %+v, want dead after one attempt", sum.Outcomes[0])
	}
}

// TestSuperviseRejectsBadBounds: a stall deadline that is not positive
// is refused before any worker starts rather than silently re-defaulted.
func TestSuperviseRejectsBadBounds(t *testing.T) {
	for _, c := range []struct {
		name  string
		stall time.Duration
	}{
		{"zero stall", 0},
		{"negative stall", -time.Second},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newFleet(chaosSpecs(t))
			cfg := chaosConfig(t, f, nil, fault.Plan{})
			cfg.Stall = c.stall
			if _, _, err := f.supervise(t, context.Background(), cfg); err == nil {
				t.Fatal("Supervise accepted the bound")
			}
			if _, err := os.Stat(filepath.Join(cfg.Dir, "manifest.json")); !os.IsNotExist(err) {
				t.Fatalf("a rejected sweep touched its checkpoint directory (stat: %v)", err)
			}
		})
	}
}
