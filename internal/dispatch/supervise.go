// The shard supervisor: the parent half of a multi-process sweep,
// generalized over a Transport so shards run as local children or on a
// pool of remote hosts. Each shard is watched through its checkpoint
// stream — the supervisor pulls the shard's log incrementally by offset,
// mirrors it to locally-durable storage, and treats record arrival as
// the liveness heartbeat — so one protocol covers process death, stalls,
// network faults and whole-host loss. Failures are classified
// transient/permanent and retried with capped jittered backoff; a dead
// host triggers failover (the mirror is pushed to a healthy host, whose
// worker resumes from it) without consuming the shard's retry budget;
// and jobs stranded when every path is exhausted are recomputed
// in-process from the merge's missing-index list — a pure function of
// the surviving records, so recovery never changes the merged bytes.

package dispatch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"sprout/internal/engine"
	"sprout/internal/fault"
	"sprout/internal/scenario"
)

// Worker exit codes with contractual meaning. Everything else — including
// the fault injector's distinct codes and kill signals — is transient.
const (
	// ExitUsage: the worker rejected its flags. Retrying cannot help and
	// every sibling will fail identically, so the supervisor fails fast.
	ExitUsage = 2
	// ExitPermanent: the worker found permanent data damage — a corrupt
	// (terminated-garbage) checkpoint log, or an unloadable scenario
	// grid. Retries would hit the same bytes; the shard is declared dead
	// immediately and its jobs routed to rescue.
	ExitPermanent = 3
)

const (
	// poll is how often an attempt pulls its worker's log: the liveness
	// sampling interval.
	poll = 250 * time.Millisecond
	// backoffBase is the first retry delay; it doubles to 16× that.
	backoffBase = 500 * time.Millisecond
)

// failureClass buckets one worker exit for the retry decision.
type failureClass int

const (
	classTransient failureClass = iota
	classPermanent
	classUsage
)

// classifyCode maps a worker exit status to its failure class.
func classifyCode(code int) failureClass {
	switch code {
	case ExitUsage:
		return classUsage
	case ExitPermanent:
		return classPermanent
	default:
		return classTransient
	}
}

// classify buckets a shard-attempt error: corruption the supervisor's
// own pull detected is permanent (the remote bytes will not improve on
// retry), exit statuses (any error with an ExitCode method) map through
// classifyCode, and anything else — start failures, stall kills, dropped
// pulls — is transient.
func classify(err error) failureClass {
	if errors.Is(err, engine.ErrCorruptLog) || errors.Is(err, engine.ErrManifestMismatch) {
		return classPermanent
	}
	var exit interface{ ExitCode() int }
	if errors.As(err, &exit) {
		return classifyCode(exit.ExitCode())
	}
	return classTransient
}

// Config parameterizes one supervised multi-process sweep.
type Config struct {
	// Worker is the shard worker's command prefix: the binary and the
	// flags every shard shares. Each attempt appends its shard, log path,
	// Seed and engine width (workerArgv).
	Worker []string
	// Specs is the grid the workers run, loaded in-process for the
	// checkpoint fingerprint, the merge and rescue. Seed is the sweep
	// seed; it also seeds each shard's backoff jitter.
	Specs []scenario.Spec
	Seed  int64
	// Dir is the checkpoint directory; Shards the decomposition width;
	// Parallel the engine width the workers split and rescue runs on
	// (0 = every core).
	Dir      string
	Shards   int
	Parallel int
	// Transport launches workers and moves checkpoint bytes (nil = a
	// Loopback: child processes of this one); Hosts is the pool (nil =
	// one host, "local").
	Transport Transport
	Hosts     []string
	// Stall is the liveness deadline and must be positive. Each shard
	// gets fault.Retries attempts.
	Stall time.Duration
	// Faults is the chaos plan: each attempt runs its shard's fault
	// through fault.EnvVar, and each pull passes its host's pull faults.
	// The zero Plan injects nothing.
	Faults fault.Plan
	// Log receives supervision events (nil = silent).
	Log io.Writer
}

// backoff is shard's retry delay schedule, its jitter seeded from the
// sweep seed.
func (cfg Config) backoff(shard int) *backoff {
	return newBackoff(backoffBase,
		rand.New(rand.NewSource(engine.DeriveSeed(cfg.Seed, "backoff", strconv.Itoa(shard)))))
}

// Outcome records how one shard's supervision ended.
type Outcome struct {
	Shard    int
	Attempts int
	// Failovers counts host-death reassignments — attempts lost to a
	// dying host, which do not consume the retry budget.
	Failovers int
	// Dead: the shard did not complete (retries exhausted, permanent
	// failure, or no live hosts); its unfinished jobs need rescue.
	Dead bool
	Err  error
	// usage: the worker rejected its flags — a supervisor bug, fatal.
	usage bool
}

// Summary is a supervised sweep's result.
type Summary struct {
	Results []scenario.Result
	// Missing lists global job indexes absent from the merge (empty
	// unless the sweep was cancelled).
	Missing  []int
	Outcomes []Outcome
	// Rescued counts jobs recomputed in-process.
	Rescued int
}

// supervisor is one sweep's runtime state: the validated Config plus the
// transport (with the plan's pull faults applied), the host pool and the
// clock every wait reads.
type supervisor struct {
	Config
	transport Transport
	pool      *hostPool
	clock     clock
}

func (s *supervisor) logf(format string, args ...any) {
	if s.Log != nil {
		fmt.Fprintf(s.Log, format+"\n", args...)
	}
}

// Supervise runs the sweep: stamp the checkpoint identity, run every
// shard under the retry/failover state machine, merge the mirrors,
// rescue what is missing, and re-merge. The merged bytes are
// byte-identical to a fault-free run whenever the grid ends complete —
// records are pure functions of (index, spec), resume never recomputes a
// completed job, and the merge orders by global index alone. A cancelled
// context (a signal) still merges what completed — the partial
// report the caller prints — but skips rescue and returns the context's
// cause alongside the summary. Only a cancelled sweep has missing jobs.
func Supervise(ctx context.Context, cfg Config) (Summary, error) {
	return supervise(ctx, cfg, wallClock{})
}

func supervise(ctx context.Context, cfg Config, clk clock) (Summary, error) {
	n := cfg.Shards
	switch {
	case n < 1:
		return Summary{}, fmt.Errorf("supervise: %d shards", n)
	case cfg.Stall <= 0:
		return Summary{}, fmt.Errorf("supervise: stall deadline %v; liveness needs a positive one", cfg.Stall)
	}
	hosts := cfg.Hosts
	if len(hosts) == 0 {
		hosts = []string{"local"}
	}
	pool, err := newHostPool(hosts)
	if err != nil {
		return Summary{}, err
	}
	s := &supervisor{Config: cfg, transport: cfg.Transport, pool: pool, clock: clk}
	if s.transport == nil {
		s.transport = NewLoopback()
	}
	if len(cfg.Faults.Hosts) > 0 {
		s.transport = newFaultyTransport(s.transport, cfg.Faults.Hosts, clk)
	}
	if err := engine.EnsureManifest(cfg.Dir, scenario.Manifest(cfg.Specs, n)); err != nil {
		return Summary{}, err
	}

	// First placement is in shard order, before any shard runs, so the
	// same sweep puts the same shard on the same host every time.
	sum := Summary{Outcomes: make([]Outcome, n)}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		host, _ := pool.acquire() // a fresh pool has every host alive
		wg.Add(1)
		clk.spawn(func() {
			defer wg.Done()
			sum.Outcomes[i] = s.superviseShard(ctx, i, host)
		})
	}
	wg.Wait()
	cancelled := ctx.Err() != nil
	if !cancelled {
		for _, o := range sum.Outcomes {
			if o.usage {
				return sum, o.Err
			}
		}
	}

	results, missing, err := scenario.ReadCheckpoint(cfg.Dir, cfg.Specs, n)
	if err == nil && len(missing) > 0 && !cancelled {
		if err = s.runRescue(ctx, missing); err == nil {
			sum.Rescued = len(missing)
			results, missing, err = scenario.ReadCheckpoint(cfg.Dir, cfg.Specs, n)
		}
	}
	if err != nil {
		return sum, err
	}
	sum.Results, sum.Missing = results, missing
	if cancelled {
		return sum, context.Cause(ctx)
	}
	return sum, nil
}

// runRescue recomputes the missing job indexes in-process, appending
// their records to the checkpoint's rescue log. The list is sorted (it
// comes from the merge) and each record is a pure function of its index
// and spec, so rescue output — like everything else — is deterministic.
func (s *supervisor) runRescue(ctx context.Context, missing []int) error {
	s.logf("sproutbench: rescue: recomputing %d job(s) stranded by dead shards: %v", len(missing), missing)
	_, f, err := engine.OpenShardLog(engine.RescueLogPath(s.Dir))
	if err != nil {
		return err
	}
	defer f.Close()
	w := engine.NewRecordWriterSynced(f, f.Sync)
	_, err = scenario.RunIndexes(ctx, engine.New(s.Parallel), s.Specs, nil, missing, w)
	return err
}

// superviseShard drives one shard, first placed on host, through the
// attempt state machine: launch, watch the pulled checkpoint stream,
// classify, back off, acquire a host, retry. A host that dies
// mid-attempt costs a failover, not a retry — the shard's budget
// measures the shard's own health, and host loss is a placement problem
// the pool absorbs (bounded by the pool size, since each failover needs
// a host that has not already died). The shard is declared dead when a
// permanent failure appears, the retry budget runs out, or no live hosts
// remain.
func (s *supervisor) superviseShard(ctx context.Context, shard int, host string) Outcome {
	o := Outcome{Shard: shard}
	bo := s.backoff(shard)
	for o.Attempts < fault.Retries {
		if ctx.Err() != nil {
			return o // a cancelled sweep's pool is not used again
		}
		if host == "" {
			var ok bool
			if host, ok = s.pool.acquire(); !ok {
				o.Dead = true
				if o.Err == nil {
					o.Err = fmt.Errorf("shard %d/%d: every host in the pool is dead", shard, s.Shards)
				}
				s.logf("sproutbench: shard %d: no live hosts left (pool %s), shard dead", shard, s.pool.state())
				return o
			}
		}
		attempt := o.Attempts + 1
		err := s.runAttempt(ctx, shard, attempt, host)
		s.pool.release(host)
		on := host
		host = ""
		if err == nil {
			o.Attempts, o.Err = attempt, nil
			return o
		}
		if ctx.Err() != nil {
			o.Err = err
			return o
		}
		if errors.Is(err, ErrHostDown) {
			o.Failovers++
			o.Err = fmt.Errorf("shard %d/%d on host %s: %w", shard, s.Shards, on, err)
			if o.Failovers > len(s.pool.hosts) {
				o.Dead = true
				s.logf("sproutbench: %v: failover budget exhausted, shard dead", o.Err)
				return o
			}
			s.logf("sproutbench: %v: failing over (pool %s)", o.Err, s.pool.state())
			continue
		}
		o.Attempts = attempt
		o.Err = fmt.Errorf("shard %d/%d attempt %d/%d on host %s: %w", shard, s.Shards, attempt, fault.Retries, on, err)
		switch classify(err) {
		case classUsage:
			o.usage, o.Dead = true, true
			return o
		case classPermanent:
			o.Dead = true
			s.logf("sproutbench: %v: permanent, not retrying", o.Err)
			return o
		}
		if o.Attempts < fault.Retries {
			delay := bo.next()
			s.logf("sproutbench: %v: retrying in %v", o.Err, delay.Round(time.Millisecond))
			if !s.clock.sleep(ctx, delay, nil) {
				return o
			}
		}
	}
	o.Dead = true
	s.logf("sproutbench: %v: retries exhausted, shard dead", o.Err)
	return o
}

// runAttempt runs one shard attempt on host and supervises it to exit
// through the pull protocol: push the locally-durable mirror to the host
// (so the worker resumes past everything already safe), start the
// worker, and poll its log by offset — absorbing records into the
// mirror, scoring host health from pull outcomes, and treating record
// arrival as liveness. A worker whose stream stops growing past the
// stall deadline is killed (transient — the next attempt resumes from
// the mirror); a host whose health decays to zero mid-attempt yields
// ErrHostDown (failover); a terminated malformed line in the stream is
// permanent corruption. A cancelled attempt kills its worker and still
// drains the log, so the mirror keeps every record the worker flushed.
func (s *supervisor) runAttempt(ctx context.Context, shard, attempt int, host string) error {
	sh := engine.Shard{Index: shard, Count: s.Shards}
	tr := s.transport
	// Each host's workers log under their own directory, so two hosts can
	// hold one shard's log across a failover and no worker writes the
	// mirror.
	remotePath := engine.ShardLogPath(filepath.Join(s.Dir, "host-"+host), shard)

	mirror, err := openShardMirror(engine.ShardLogPath(s.Dir, shard))
	if err != nil {
		return err
	}
	defer mirror.close()
	data, err := mirror.bytes()
	if err != nil {
		return err
	}
	if err := tr.Push(ctx, host, remotePath, data); err != nil {
		s.pool.startError(host)
		return fmt.Errorf("push checkpoint to %s: %w", host, err)
	}

	// The fault variable is always set — cleared when no fault is
	// planned — so a supervised worker can never inherit stray chaos from
	// the parent's own environment.
	injected := ""
	if f, ok := s.Faults.For(shard, attempt); ok {
		injected = f.String()
		s.logf("sproutbench: chaos: shard %d attempt %d runs with %s", shard, attempt, injected)
	}
	argv := workerArgv(s.Worker, sh, remotePath, s.Seed, scenario.ShardWorkers(s.Parallel, shard, s.Shards))
	proc, err := tr.Start(ctx, host, argv, []string{fault.EnvVar + "=" + injected}, s.Log)
	if err != nil {
		s.pool.startError(host)
		return fmt.Errorf("start on %s: %w", host, err)
	}
	kill := func() error {
		proc.Kill()
		<-proc.Done()
		return proc.Err()
	}

	ps := newPullState(tr, host, remotePath, mirror, int64(len(data)))
	prog := newProgress(s.clock.now(), s.Stall)
	for {
		if !s.clock.sleep(ctx, poll, proc.Done()) {
			select {
			case <-proc.Done():
				return s.drainAttempt(ctx, ps, host, proc.Err())
			default:
			}
			kill()
			return s.drainAttempt(context.WithoutCancel(ctx), ps, host, context.Cause(ctx))
		}
		grew, perr := ps.poll(ctx)
		switch {
		case perr == nil:
			s.pool.pullOK(host)
		case errors.Is(perr, engine.ErrCorruptLog):
			kill()
			return perr
		default:
			s.pool.pullError(host)
			if s.pool.dead(host) {
				kill()
				return fmt.Errorf("%w: %s stopped answering pulls (%v)", ErrHostDown, host, perr)
			}
		}
		if prog.observe(s.clock.now(), grew) {
			return fmt.Errorf("stalled (no checkpoint growth in %v) on %s, killed: %v", s.Stall, host, kill())
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
func (s *supervisor) drainAttempt(ctx context.Context, ps *pullState, host string, werr error) error {
	dry := 0
	for tries := 0; dry < 2 && tries < 20; tries++ {
		grew, perr := ps.poll(ctx)
		if perr != nil {
			if errors.Is(perr, engine.ErrCorruptLog) {
				return perr
			}
			s.pool.pullError(host)
			if werr != nil {
				return werr
			}
			if s.pool.dead(host) {
				return fmt.Errorf("%w: %s stopped answering pulls (%v)", ErrHostDown, host, perr)
			}
			dry = 0
			continue
		}
		s.pool.pullOK(host)
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

// faultyTransport executes a plan's pull faults on the pulls they gate,
// each as the network shape it names: dropped pulls, delayed pulls,
// mid-record truncation, stale-offset replays, and whole-host death
// (through the inner transport's KillHost, when it has one). Start and
// Push pass through untouched: the pull stream is the supervision data
// path, so it is where network chaos bites; host death covers the rest.
//
// Fault execution preserves the Transport contract — PartialPull still
// reports an honest from, DupRecords rewinds only to a record boundary
// (a stale offset is always a boundary the puller once held) — so a
// correct puller survives every plan by construction and a buggy one
// fails deterministically.
type faultyTransport struct {
	Transport
	clock   clock
	mu      sync.Mutex
	pending map[string][]fault.Fault // each host's unfired faults, by After
	pulls   map[string]int           // each host's pulls so far
}

func newFaultyTransport(inner Transport, hosts map[string][]fault.Fault, clk clock) *faultyTransport {
	t := &faultyTransport{Transport: inner, clock: clk, pending: map[string][]fault.Fault{}, pulls: map[string]int{}}
	for h, fs := range hosts {
		t.pending[h] = fs
	}
	return t
}

// next advances host's pull counter and reports the fault gating this
// pull: faults fire in order, each on the first pull whose 0-based
// number reaches its After.
func (t *faultyTransport) next(host string) (fault.Fault, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pull := t.pulls[host]
	t.pulls[host]++
	if fs := t.pending[host]; len(fs) > 0 && pull >= fs[0].After {
		t.pending[host] = fs[1:]
		return fs[0], true
	}
	return fault.Fault{}, false
}

func (t *faultyTransport) Pull(ctx context.Context, host, path string, offset int64) ([]byte, int64, error) {
	f, ok := t.next(host)
	if !ok {
		return t.Transport.Pull(ctx, host, path, offset)
	}
	switch f.Kind {
	case fault.ConnDrop:
		return nil, 0, fmt.Errorf("dispatch: injected conndrop on %s", host)
	case fault.SlowStream:
		if !t.clock.sleep(ctx, f.For, nil) {
			return nil, 0, fmt.Errorf("dispatch: slowstream on %s: %w", host, context.Cause(ctx))
		}
	case fault.PartialPull:
		data, from, err := t.Transport.Pull(ctx, host, path, offset)
		if err != nil {
			return nil, 0, err
		}
		return data[:min(len(data), f.Bytes)], from, nil
	case fault.DupRecords:
		// A stale-offset retry: re-serve from an earlier record boundary.
		// Pull the whole stream, rewind ~Bytes back from the caller's
		// offset, then snap to the byte after the previous newline so the
		// replay starts on a boundary a real stale puller would have held.
		data, _, err := t.Transport.Pull(ctx, host, path, 0)
		if err != nil {
			return nil, 0, err
		}
		start := min(max(offset-int64(f.Bytes), 0), int64(len(data)))
		for start > 0 && data[start-1] != '\n' {
			start--
		}
		return data[start:], start, nil
	case fault.HostDown:
		if k, ok := t.Transport.(interface{ KillHost(string) }); ok {
			k.KillHost(host)
		}
		return nil, 0, fmt.Errorf("%w: injected hostdown on %s", ErrHostDown, host)
	}
	return t.Transport.Pull(ctx, host, path, offset)
}
