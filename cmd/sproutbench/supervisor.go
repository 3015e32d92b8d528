// The shard supervisor: the parent half of a multi-process sweep,
// generalized over a dispatch.Transport so shards run as local children
// or on a pool of remote hosts. Each shard is watched through its
// checkpoint stream — the supervisor pulls the shard's log
// incrementally by offset, mirrors it to locally-durable storage, and
// treats record arrival as the liveness heartbeat — so one protocol
// covers process death, stalls, network faults and whole-host loss.
// Failures are classified transient/permanent and retried with capped
// jittered backoff; a dead host triggers failover (the mirror is pushed
// to a healthy host, whose worker resumes from it) without consuming
// the shard's retry budget; and jobs stranded when every path is
// exhausted are recomputed in-process from the merge's missing-index
// list — a pure function of the surviving records, so recovery never
// changes the merged bytes. See DESIGN.md §10.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"sync"
	"time"

	"sprout/internal/dispatch"
	"sprout/internal/engine"
	"sprout/internal/fault"
	"sprout/internal/harness"
	"sprout/internal/scenario"
)

// Child exit codes with contractual meaning. Everything else — including
// the fault injector's distinct codes and kill signals — is transient.
const (
	// exitUsage: the child rejected its flags. Retrying cannot help and
	// every sibling will fail identically, so the supervisor fails fast.
	exitUsage = 2
	// exitPermanent: the child found permanent data damage — a corrupt
	// (terminated-garbage) checkpoint log, or an unloadable scenario
	// grid. Retries would hit the same bytes; the shard is declared dead
	// immediately and its jobs routed to rescue.
	exitPermanent = 3
)

// failureClass buckets one child exit for the retry decision.
type failureClass int

const (
	classTransient failureClass = iota
	classPermanent
	classUsage
)

// classifyCode maps a child exit status to its failure class.
func classifyCode(code int) failureClass {
	switch code {
	case exitUsage:
		return classUsage
	case exitPermanent:
		return classPermanent
	default:
		return classTransient
	}
}

// classify buckets a shard-attempt error: corruption the supervisor's
// own pull detected is permanent (the remote bytes will not improve on
// retry), exit statuses map through classifyCode, and anything else —
// kill signals (code -1), start failures, stall kills, dropped pulls —
// is transient.
func classify(err error) failureClass {
	if errors.Is(err, engine.ErrCorruptLog) || errors.Is(err, engine.ErrManifestMismatch) {
		return classPermanent
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return classifyCode(ee.ExitCode())
	}
	return classTransient
}

// superviseConfig parameterizes one supervised multi-process sweep.
type superviseConfig struct {
	// Exe and ExtraEnv define how children launch. Tests point Exe at
	// the test binary and mark children via ExtraEnv.
	Exe      string
	ExtraEnv []string
	// Scenario is the grid file children load; Specs the same grid
	// loaded in-process (for fingerprints, merging and rescue).
	Scenario string
	Specs    []scenario.Spec
	// Dir is the checkpoint directory; Shards the decomposition width.
	Dir    string
	Shards int
	// Transport launches workers and moves checkpoint bytes (nil =
	// dispatch.LocalExec); Hosts is the dispatch pool (nil = one
	// implicit "local" host).
	Transport dispatch.Transport
	Hosts     []string
	// Retries bounds attempts per shard; Stall is the liveness deadline;
	// Poll the liveness sampling interval.
	Retries int
	Stall   time.Duration
	Poll    time.Duration
	// BackoffBase/BackoffCap bound the retry delay schedule.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Opt carries duration/skip/seed down to children and seeds the
	// backoff jitter; Parallel is the CLI worker override.
	Opt      harness.Options
	Parallel int
	// Plan injects deterministic faults into child attempts (nil = no
	// chaos).
	Plan fault.Plan
	// Rescue recomputes dead shards' jobs in-process; false leaves them
	// missing for the caller (-partial or a hard failure).
	Rescue bool
	// Log receives supervision events (nil = silent).
	Log io.Writer

	// Runtime state supervise wires up from the fields above.
	transport dispatch.Transport
	pool      *dispatch.HostPool
}

// shardOutcome records how one shard's supervision ended.
type shardOutcome struct {
	Shard    int
	Attempts int
	// Failovers counts host-death reassignments — attempts lost to a
	// dying host, which do not consume the retry budget.
	Failovers int
	// Dead: the shard did not complete (retries exhausted, permanent
	// failure, or no live hosts); its unfinished jobs need rescue.
	Dead bool
	// Usage: the child rejected its flags — a supervisor bug, fatal.
	Usage bool
	Err   error
}

// superviseSummary is a supervised sweep's result.
type superviseSummary struct {
	Results []scenario.Result
	// Missing lists global job indexes absent from the merge (empty
	// unless rescue is disabled or failed, or the sweep was cancelled).
	Missing  []int
	Outcomes []shardOutcome
	// Rescued counts jobs recomputed in-process; Quarantined counts
	// shard logs whose damaged tail was moved aside.
	Rescued     int
	Quarantined int
}

func (cfg *superviseConfig) logf(format string, args ...any) {
	if cfg.Log != nil {
		fmt.Fprintf(cfg.Log, format+"\n", args...)
	}
}

// supervise runs the sweep: stamp the checkpoint identity, run every
// shard under the retry/failover state machine, salvage dead shards'
// logs, merge, rescue what is missing, and re-merge. The merged bytes
// are byte-identical to a fault-free run whenever the grid ends
// complete — records are pure functions of (index, spec), resume never
// recomputes a completed job, and the merge orders by global index
// alone. A cancelled context (signal, -timeout) still salvages and
// merges what completed — the partial report the caller prints — but
// skips rescue and returns the context's error alongside the summary.
func supervise(ctx context.Context, cfg superviseConfig) (superviseSummary, error) {
	n := cfg.Shards
	if n < 1 {
		return superviseSummary{}, fmt.Errorf("supervise: %d shards", n)
	}
	if cfg.Retries < 1 {
		cfg.Retries = 1
	}
	if cfg.Stall <= 0 {
		cfg.Stall = 2 * time.Minute
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 250 * time.Millisecond
	}
	cfg.transport = cfg.Transport
	if cfg.transport == nil {
		cfg.transport = dispatch.LocalExec{}
	}
	hosts := cfg.Hosts
	if len(hosts) == 0 {
		hosts = []string{"local"}
	}
	cfg.Hosts = hosts
	pool, err := dispatch.NewHostPool(hosts)
	if err != nil {
		return superviseSummary{}, err
	}
	cfg.pool = pool
	if err := engine.EnsureManifest(cfg.Dir, engine.Manifest{
		Fingerprint: scenario.Fingerprint(cfg.Specs, n), Shards: n, Jobs: len(cfg.Specs),
	}); err != nil {
		return superviseSummary{}, err
	}

	sum := superviseSummary{Outcomes: make([]shardOutcome, n)}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sum.Outcomes[i] = cfg.superviseShard(ctx, i)
		}()
	}
	wg.Wait()
	cancelled := ctx.Err() != nil
	if !cancelled {
		for _, o := range sum.Outcomes {
			if o.Usage {
				return sum, o.Err
			}
		}
	}

	// Salvage: a dead (or interrupted) shard's log may end in a torn or
	// corrupt tail. Quarantining rewrites it down to the valid record
	// prefix, so the merge below reads every survivable record.
	for _, o := range sum.Outcomes {
		if !o.Dead && !cancelled {
			continue
		}
		path := engine.ShardLogPath(cfg.Dir, o.Shard)
		if _, err := engine.QuarantineShardLog(path); err != nil {
			if os.IsNotExist(err) {
				continue // died before writing anything
			}
			return sum, err
		}
		if _, err := os.Stat(path + ".corrupt"); err == nil {
			sum.Quarantined++
			cfg.logf("sproutbench: shard %d: damaged log tail quarantined to %s.corrupt", o.Shard, path)
		}
	}

	streams, rescue, err := scenario.ReadShardStreams(cfg.Dir, n)
	if err != nil {
		return sum, err
	}
	results, missing, err := scenario.MergeResults(streams, rescue, cfg.Specs)
	if err != nil {
		return sum, err
	}

	if len(missing) > 0 && cfg.Rescue && !cancelled {
		if err := cfg.runRescue(ctx, missing); err != nil {
			return sum, err
		}
		sum.Rescued = len(missing)
		streams, rescue, err = scenario.ReadShardStreams(cfg.Dir, n)
		if err != nil {
			return sum, err
		}
		results, missing, err = scenario.MergeResults(streams, rescue, cfg.Specs)
		if err != nil {
			return sum, err
		}
	}
	sum.Results, sum.Missing = results, missing
	if cancelled {
		return sum, ctx.Err()
	}
	return sum, nil
}

// runRescue recomputes the missing job indexes in-process, appending
// their records to the checkpoint's rescue log. The list is sorted (it
// comes from the merge) and each record is a pure function of its index
// and spec, so rescue output — like everything else — is deterministic.
func (cfg *superviseConfig) runRescue(ctx context.Context, missing []int) error {
	cfg.logf("sproutbench: rescue: recomputing %d job(s) stranded by dead shards: %v", len(missing), missing)
	_, f, err := engine.OpenShardLog(engine.RescueLogPath(cfg.Dir))
	if err != nil {
		return err
	}
	defer f.Close()
	w := engine.NewRecordWriterSynced(f, f.Sync)
	_, err = scenario.RunIndexes(ctx, engine.New(cfg.Parallel), cfg.Specs, nil, missing, w)
	return err
}

// superviseShard drives one shard through the attempt state machine:
// acquire a host, launch, watch the pulled checkpoint stream, classify,
// back off, retry. A host that dies mid-attempt costs a failover, not a
// retry — the shard's budget measures the shard's own health, and host
// loss is a placement problem the pool absorbs (bounded by the pool
// size, since each failover needs a host that has not already died).
// The shard is declared dead when a permanent failure appears, the
// retry budget runs out, or no live hosts remain.
func (cfg *superviseConfig) superviseShard(ctx context.Context, shard int) shardOutcome {
	o := shardOutcome{Shard: shard}
	bo := dispatch.NewBackoff(cfg.BackoffBase, cfg.BackoffCap,
		rand.New(rand.NewSource(engine.DeriveSeed(cfg.Opt.Seed, "backoff", strconv.Itoa(shard)))))
	for o.Attempts < cfg.Retries {
		if ctx.Err() != nil {
			return o
		}
		host, ok := cfg.pool.Acquire()
		if !ok {
			o.Dead = true
			if o.Err == nil {
				o.Err = fmt.Errorf("shard %d/%d: every host in the pool is dead", shard, cfg.Shards)
			}
			cfg.logf("sproutbench: shard %d: no live hosts left (pool %v), shard dead", shard, cfg.pool)
			return o
		}
		attempt := o.Attempts + 1
		err := cfg.runAttempt(ctx, shard, attempt, host)
		cfg.pool.Release(host)
		if err == nil {
			o.Attempts, o.Err = attempt, nil
			return o
		}
		if ctx.Err() != nil {
			o.Err = err
			return o
		}
		if errors.Is(err, dispatch.ErrHostDown) {
			o.Failovers++
			o.Err = fmt.Errorf("shard %d/%d on host %s: %w", shard, cfg.Shards, host, err)
			if o.Failovers > len(cfg.Hosts) {
				o.Dead = true
				cfg.logf("sproutbench: %v: failover budget exhausted, shard dead", o.Err)
				return o
			}
			cfg.logf("sproutbench: %v: failing over (pool %v)", o.Err, cfg.pool)
			continue
		}
		o.Attempts = attempt
		o.Err = fmt.Errorf("shard %d/%d attempt %d/%d on host %s: %w", shard, cfg.Shards, attempt, cfg.Retries, host, err)
		switch classify(err) {
		case classUsage:
			o.Usage, o.Dead = true, true
			return o
		case classPermanent:
			o.Dead = true
			cfg.logf("sproutbench: %v: permanent, not retrying", o.Err)
			return o
		}
		if o.Attempts < cfg.Retries {
			delay := bo.Next()
			cfg.logf("sproutbench: %v: retrying in %v", o.Err, delay.Round(time.Millisecond))
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return o
			}
		}
	}
	o.Dead = true
	cfg.logf("sproutbench: %v: retries exhausted, shard dead", o.Err)
	return o
}

// runAttempt runs one shard attempt on host and supervises it to exit
// through the uniform pull protocol: push the locally-durable mirror to
// the host (so the worker resumes past everything already safe), start
// the worker, and poll the remote log by offset — absorbing records
// into the mirror, scoring host health from pull outcomes, and treating
// record arrival as liveness. A worker whose stream stops growing past
// the stall deadline is killed (transient — the next attempt resumes
// from the mirror); a host whose health decays to zero mid-attempt
// yields ErrHostDown (failover); a terminated malformed line in the
// stream is permanent corruption.
func (cfg *superviseConfig) runAttempt(ctx context.Context, shard, attempt int, host string) error {
	sh := engine.Shard{Index: shard, Count: cfg.Shards}
	tr := cfg.transport
	localPath := engine.ShardLogPath(cfg.Dir, shard)
	remotePath := tr.ShardLogPath(host, cfg.Dir, shard)

	// On a mirrored transport the supervisor's copy is authoritative:
	// seed the host with it before launch, then pull from just past it.
	// On LocalExec the worker writes localPath itself and the "pull" is
	// a local read — same protocol, trivial transport.
	var mirror *dispatch.ShardMirror
	var offset int64
	if tr.Mirrored() {
		m, err := dispatch.OpenShardMirror(localPath)
		if err != nil {
			return err
		}
		defer m.Close()
		mirror = m
		data, err := m.Bytes()
		if err != nil {
			return err
		}
		if err := tr.Push(ctx, host, remotePath, data); err != nil {
			cfg.pool.StartError(host)
			return fmt.Errorf("push checkpoint to %s: %w", host, err)
		}
		offset = int64(len(data))
	}

	// The fault variable is always set — cleared when no fault is
	// planned — so a supervised child can never inherit stray chaos from
	// the parent's own environment.
	injected := ""
	if f, ok := cfg.Plan.For(shard, attempt); ok {
		injected = f.String()
		cfg.logf("sproutbench: chaos: shard %d attempt %d runs with %s", shard, attempt, injected)
	}
	env := append(append([]string{}, cfg.ExtraEnv...), fault.EnvVar+"="+injected)
	argv := dispatch.WorkerArgv(cfg.Exe, cfg.Scenario, sh, remotePath,
		cfg.Opt.Duration.String(), cfg.Opt.Skip.String(), cfg.Opt.Seed,
		scenario.ShardWorkers(cfg.Parallel, shard, cfg.Shards))
	proc, err := tr.Start(ctx, host, argv, env, cfg.Log)
	if err != nil {
		cfg.pool.StartError(host)
		return fmt.Errorf("start on %s: %w", host, err)
	}
	done := make(chan error, 1)
	go func() { done <- proc.Wait() }()

	ps := dispatch.NewPullState(tr, host, remotePath, mirror, offset)
	prog := dispatch.NewProgress(time.Now(), cfg.Stall)
	ticker := time.NewTicker(cfg.Poll)
	defer ticker.Stop()
	for {
		select {
		case werr := <-done:
			return cfg.drainAttempt(ctx, ps, host, werr)
		case now := <-ticker.C:
			grew, perr := ps.Poll(ctx)
			switch {
			case perr == nil:
				cfg.pool.PullOK(host)
			case errors.Is(perr, engine.ErrCorruptLog):
				proc.Kill()
				<-done
				return perr
			default:
				cfg.pool.PullError(host)
				if cfg.pool.Dead(host) {
					proc.Kill()
					<-done
					return fmt.Errorf("%w: %s stopped answering pulls (%v)", dispatch.ErrHostDown, host, perr)
				}
			}
			if prog.Observe(now, grew) {
				proc.Kill()
				werr := <-done
				return fmt.Errorf("stalled (no checkpoint growth in %v) on %s, killed: %v", cfg.Stall, host, werr)
			}
		case <-ctx.Done():
			proc.Kill()
			<-done
			return ctx.Err()
		}
	}
}

// drainAttempt finishes an attempt after its worker exited: pull the
// stream to EOF so every record the worker flushed is locally durable
// before the attempt is judged. Pulls can still misbehave here (a
// dropped or truncated final pull), so the drain runs until the stream
// is clean-dry twice in a row. For a failed worker the drain is
// best-effort salvage — the worker's own error is the verdict — except
// that corruption found in the stream upgrades the verdict to permanent.
func (cfg *superviseConfig) drainAttempt(ctx context.Context, ps *dispatch.PullState, host string, werr error) error {
	dry := 0
	for tries := 0; dry < 2 && tries < 20; tries++ {
		grew, perr := ps.Poll(ctx)
		if perr != nil {
			if errors.Is(perr, engine.ErrCorruptLog) {
				return perr
			}
			cfg.pool.PullError(host)
			if werr != nil {
				return werr
			}
			if cfg.pool.Dead(host) {
				return fmt.Errorf("%w: %s stopped answering pulls (%v)", dispatch.ErrHostDown, host, perr)
			}
			dry = 0
			continue
		}
		cfg.pool.PullOK(host)
		if grew {
			dry = 0
		} else {
			dry++
		}
	}
	if werr != nil {
		return werr
	}
	if dry < 2 {
		return fmt.Errorf("completed on %s but the checkpoint drain never ran dry", host)
	}
	return nil
}

// formatMissing renders a missing-index report in full — the -partial
// contract is the exact job list, not a sample.
func formatMissing(missing []int) string {
	sorted := append([]int{}, missing...)
	sort.Ints(sorted)
	return fmt.Sprint(sorted)
}
