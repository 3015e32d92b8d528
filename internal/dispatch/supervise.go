// The shard supervisor: the parent half of a multi-process sweep,
// generalized over a Transport so shards run as local children or on a
// pool of remote hosts. Each shard is watched through its checkpoint
// stream — the supervisor pulls the shard's log incrementally by offset,
// mirrors it to locally-durable storage, and treats record arrival as
// the liveness heartbeat — so one protocol covers process death, stalls,
// network faults and whole-host loss. Each attempt is judged once, and
// a transient failure is retried with capped jittered backoff; a dead
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

// verdict is how one attempt ended: a row of DESIGN §10's state machine.
type verdict int

const (
	complete verdict = iota // the shard is done
	retry                   // transient: spends one of fault.Retries attempts
	failover                // the host died: spends one of pool-size failovers
	dead                    // permanent: the shard goes to rescue
	fatal                   // the worker rejected its flags: the sweep fails
)

// judge reads an attempt's error as its verdict: a dead host fails over
// whatever the worker's status; corruption or a manifest mismatch is
// permanent (the bytes will not improve on retry); exit statuses (any
// error with an ExitCode method) read ExitUsage as fatal and
// ExitPermanent as dead; anything else — other exits and signals, start
// failures, stall kills, dropped pulls — retries.
func judge(err error) verdict {
	var exit interface{ ExitCode() int }
	switch {
	case err == nil:
		return complete
	case errors.Is(err, ErrHostDown):
		return failover
	case errors.Is(err, engine.ErrCorruptLog) || errors.Is(err, engine.ErrManifestMismatch):
		return dead
	case !errors.As(err, &exit):
		return retry
	case exit.ExitCode() == ExitUsage:
		return fatal
	case exit.ExitCode() == ExitPermanent:
		return dead
	}
	return retry
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
			if judge(o.Err) == fatal {
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

// superviseShard drives one shard, first placed on host: acquire a host,
// run an attempt, judge it, and spend the budget the verdict names — a
// retry one of fault.Retries attempts (after a backoff), a failover one
// of pool-size failovers, since host loss is a placement problem and not
// the shard's own health. The shard is declared dead on a permanent
// failure, an exhausted budget, or a pool with no live host.
func (s *supervisor) superviseShard(ctx context.Context, shard int, host string) Outcome {
	o := Outcome{Shard: shard}
	bo := s.backoff(shard)
	for ctx.Err() == nil { // a cancelled sweep's pool is not used again
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
		v := judge(err)
		switch {
		case v == complete:
			o.Attempts, o.Err = attempt, nil
			return o
		case ctx.Err() != nil:
			o.Err = err
			return o
		case v == failover:
			o.Failovers++
			o.Err = fmt.Errorf("shard %d/%d on host %s: %w", shard, s.Shards, host, err)
		default:
			o.Attempts = attempt
			o.Err = fmt.Errorf("shard %d/%d attempt %d/%d on host %s: %w", shard, s.Shards, attempt, fault.Retries, host, err)
		}
		host = ""
		switch {
		case v == fatal: // Supervise fails the sweep with o.Err
		case v == dead:
			s.logf("sproutbench: %v: permanent, not retrying", o.Err)
		case o.Failovers > len(s.pool.hosts):
			s.logf("sproutbench: %v: failover budget exhausted, shard dead", o.Err)
		case o.Attempts == fault.Retries:
			s.logf("sproutbench: %v: retries exhausted, shard dead", o.Err)
		case v == failover:
			s.logf("sproutbench: %v: failing over (pool %s)", o.Err, s.pool.state())
			continue
		default:
			delay := bo.next()
			s.logf("sproutbench: %v: retrying in %v", o.Err, delay.Round(time.Millisecond))
			s.clock.sleep(ctx, delay, nil) // cut short only by a cancelled sweep
			continue
		}
		o.Dead = true
		return o
	}
	return o
}

// runAttempt runs one shard attempt on host: push the locally-durable
// mirror (so the worker resumes past everything already safe), start the
// worker, and poll its log by offset into the mirror, scoring host
// health from each pull and reading record arrival as liveness. A stream
// frozen past the stall deadline is killed (transient); a pull that
// finds the host dead, or a host scored down to zero, is ErrHostDown
// (failover) whether or not the worker still runs; a terminated
// malformed line is permanent corruption. Once the worker has exited, or
// been killed because the sweep was cancelled, the same loop drains the
// log without waiting until it is clean-dry twice (at most 20 polls), so
// every flushed record is mirrored before the attempt is judged. A
// failed worker's drain is salvage: its status stands unless the host is
// dead or the stream corrupt, and a failed pull ends it.
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
	var werr error // the worker's status, once it has exited or been killed
	exited, dry := false, 0
	for drains := 0; drains < 20 && dry < 2; {
		if !exited && !s.clock.sleep(ctx, poll, proc.Done()) {
			exited = true
			select {
			case <-proc.Done():
				werr = proc.Err()
			default:
				kill()
				werr, ctx = context.Cause(ctx), context.WithoutCancel(ctx)
			}
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
			if errors.Is(perr, ErrHostDown) || s.pool.dead(host) {
				kill()
				return fmt.Errorf("%w: %s stopped answering pulls (%v)", ErrHostDown, host, perr)
			}
			if werr != nil {
				return werr
			}
		}
		switch {
		case !exited:
			if prog.observe(s.clock.now(), grew) {
				return fmt.Errorf("stalled (no checkpoint growth in %v) on %s, killed: %v", s.Stall, host, kill())
			}
			continue
		case perr == nil && !grew:
			dry++
		default:
			dry = 0
		}
		drains++
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
