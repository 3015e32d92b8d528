package dispatch

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"sprout/internal/engine"
	"sprout/internal/fault"
	"sprout/internal/scenario"
)

// virtualClock is the supervisor's clock in this package's tests. Time
// moves only when every goroutine spawned through it is parked in sleep
// and no parked sleep is about to end another way (its done channel
// closed, its context ended). It then wakes the one sleeper with the
// earliest deadline, ties in the order they parked, and waits for
// quiescence again — so a sweep runs one step at a time and its
// timeline is the same on every run. Work between waits, such as a
// worker's simulations, takes no virtual time.
type virtualClock struct {
	mu      sync.Mutex
	t       time.Time
	running int // spawned goroutines not parked in sleep
	seq     int
	parked  []*sleeper
}

type sleeper struct {
	at   time.Time
	seq  int
	ctx  context.Context
	done <-chan struct{}
	wake chan struct{} // closed when the deadline fires
	fire func()        // an afterFunc timer: runs instead of a wake
}

func newVirtualClock() *virtualClock { return &virtualClock{t: time.Unix(0, 0)} }

func (c *virtualClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *virtualClock) spawn(f func()) {
	c.mu.Lock()
	c.running++
	c.mu.Unlock()
	go func() {
		defer func() {
			c.mu.Lock()
			c.running--
			c.advance()
			c.mu.Unlock()
		}()
		f()
	}()
}

func (c *virtualClock) sleep(ctx context.Context, d time.Duration, done <-chan struct{}) bool {
	c.mu.Lock()
	s := c.park(d, &sleeper{ctx: ctx, done: done, wake: make(chan struct{})})
	c.running--
	c.advance()
	c.mu.Unlock()
	select {
	case <-s.wake:
		return true
	case <-ctx.Done():
	case <-done:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, p := range c.parked {
		if p == s {
			c.parked = append(c.parked[:i], c.parked[i+1:]...)
			c.running++
			return false
		}
	}
	return true // the deadline fired first, and advance counted us running
}

// afterFunc runs f (under the clock's lock: a cancel, nothing that
// waits) once d of virtual time has passed.
func (c *virtualClock) afterFunc(d time.Duration, f func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.park(d, &sleeper{fire: f})
}

func (c *virtualClock) park(d time.Duration, s *sleeper) *sleeper {
	s.at, s.seq = c.t.Add(d), c.seq
	c.seq++
	c.parked = append(c.parked, s)
	return s
}

// advance moves time while nothing runs. Callers hold c.mu.
func (c *virtualClock) advance() {
	for c.running == 0 && len(c.parked) > 0 {
		next := 0
		for i, s := range c.parked {
			if s.ending() {
				return // that sleeper wakes itself; time waits for it
			}
			if n := c.parked[next]; s.at.Before(n.at) || (s.at.Equal(n.at) && s.seq < n.seq) {
				next = i
			}
		}
		s := c.parked[next]
		c.parked = append(c.parked[:next], c.parked[next+1:]...)
		if s.at.After(c.t) {
			c.t = s.at
		}
		if s.fire != nil {
			s.fire()
			continue
		}
		c.running++
		close(s.wake)
	}
}

// ending reports whether a parked sleep is about to end on its own.
func (s *sleeper) ending() bool {
	if s.ctx != nil && s.ctx.Err() != nil {
		return true
	}
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// fleet is the in-process sweep: a Loopback whose process start runs
// ShardWorker on a goroutine of the virtual clock. Everything else is
// production code — push, offset pull, mirror, host kills, pull faults
// and the injector.
type fleet struct {
	*Loopback
	clock *virtualClock
	specs []scenario.Spec
}

func newFleet(specs []scenario.Spec) *fleet {
	f := &fleet{Loopback: NewLoopback(), clock: newVirtualClock(), specs: specs}
	f.Loopback.start = f.start
	return f
}

// start parses the flags workerArgv appended and runs the worker. Each
// worker has one engine goroutine (Parallel 1), so the clock sees its
// only wait. A kill cancels the worker's context: a stall sleeping on
// the clock returns, and the engine starts no further job.
func (f *fleet) start(_ context.Context, argv, env []string, stderr io.Writer) (Proc, error) {
	fs := flag.NewFlagSet(argv[0], flag.ContinueOnError)
	shard := fs.String("shard", "", "")
	out := fs.String("out", "", "")
	fs.Int64("seed", 0, "")
	parallel := fs.Int("parallel", 0, "")
	if err := fs.Parse(argv[1:]); err != nil {
		return nil, err
	}
	sh, err := engine.ParseShard(*shard)
	if err != nil {
		return nil, err
	}
	flt, err := fault.Parse(strings.TrimPrefix(env[0], fault.EnvVar+"="))
	if err != nil {
		return nil, err
	}
	if stderr == nil {
		stderr = io.Discard
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &goProc{done: make(chan struct{}), cancel: cancel}
	w := ShardWorker{
		Shard:  sh,
		Load:   func() ([]scenario.Spec, error) { return f.specs, nil },
		Out:    *out,
		Engine: engine.New(*parallel),
		Fault:  fault.New(flt, func(d time.Duration) { f.clock.sleep(ctx, d, nil) }, p.exit),
		Stderr: stderr,
	}
	f.clock.spawn(func() {
		p.exit(w.Run(ctx))
		close(p.done)
	})
	return p, nil
}

// goProc is an in-process worker. Its status is the first of: the
// injector's exit, a kill (-1), or what ShardWorker.Run returned.
type goProc struct {
	done   chan struct{}
	cancel context.CancelFunc
	mu     sync.Mutex
	exited bool
	code   int
}

func (p *goProc) exit(code int) {
	p.mu.Lock()
	if !p.exited {
		p.exited, p.code = true, code
	}
	p.mu.Unlock()
	p.cancel()
}

func (p *goProc) Done() <-chan struct{} { return p.done }
func (p *goProc) Kill() error           { p.exit(-1); return nil }

func (p *goProc) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.code == 0 {
		return nil
	}
	return exitStatus(p.code)
}

// exitStatus is an in-process worker's nonzero status, read by judge
// through ExitCode like an *exec.ExitError.
type exitStatus int

func (e exitStatus) Error() string {
	if e == -1 {
		return "killed"
	}
	return fmt.Sprintf("exit status %d", int(e))
}

func (e exitStatus) ExitCode() int { return int(e) }

// supervise runs one sweep on the fleet and reports its virtual
// duration. A sweep that has not returned after a minute of wall time
// has deadlocked; that is the suites' only wall-clock read.
func (f *fleet) supervise(t *testing.T, ctx context.Context, cfg Config) (Summary, time.Duration, error) {
	t.Helper()
	type result struct {
		sum Summary
		err error
	}
	start := f.clock.now()
	ch := make(chan result, 1)
	go func() {
		sum, err := supervise(ctx, cfg, f.clock)
		ch <- result{sum, err}
	}()
	select {
	case r := <-ch:
		return r.sum, f.clock.now().Sub(start), r.err
	case <-time.After(time.Minute): // safety timeout
		t.Fatalf("sweep deadlocked at virtual %v", f.clock.now().Sub(start))
		return Summary{}, 0, nil
	}
}

// chaosSpecs is the suites' grid: six specs, short but long enough that
// every shard writes multiple records (fault boundaries up to after=2
// must be reachable with 2 shards × 3 jobs).
func chaosSpecs(t *testing.T) []scenario.Spec {
	t.Helper()
	specs, err := scenario.Parse(strings.NewReader(`{
	  "defaults": {"link": "Verizon LTE", "duration": "1s", "skip": "250ms", "seed": 7},
	  "scenarios": [
	    {"name": "cubic down", "scheme": "cubic"},
	    {"name": "sprout down", "scheme": "sprout"},
	    {"name": "sprout up", "scheme": "sprout", "direction": "up"},
	    {"name": "sprout-ewma down", "scheme": "sprout-ewma"},
	    {"name": "cubic up", "scheme": "cubic", "direction": "up"},
	    {"name": "vegas down", "scheme": "vegas"}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

var reference struct {
	once  sync.Once
	bytes []byte
	err   error
}

// chaosReference is the fault-free merged byte stream every supervised
// sweep must reproduce.
func chaosReference(t *testing.T) []byte {
	t.Helper()
	reference.once.Do(func() {
		results, _, err := scenario.RunSharded(context.Background(), chaosSpecs(t), scenario.ShardedOptions{Shards: 2, Workers: 2})
		if err != nil {
			reference.err = err
			return
		}
		var buf bytes.Buffer
		reference.err = scenario.WriteMergedRecords(&buf, results)
		reference.bytes = buf.Bytes()
	})
	if reference.err != nil {
		t.Fatal(reference.err)
	}
	return reference.bytes
}

func mergedBytes(t *testing.T, results []scenario.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := scenario.WriteMergedRecords(&buf, results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// chaosConfig is the supervision every suite shares, at the CLI's
// default 2 min stall (attempts, poll and backoff are constants),
// over the fleet's hosts (nil = the one implicit host).
func chaosConfig(t *testing.T, f *fleet, hosts []string, plan fault.Plan) Config {
	return Config{
		Worker:    []string{"sproutbench"},
		Specs:     f.specs,
		Seed:      7,
		Dir:       t.TempDir(),
		Shards:    2,
		Parallel:  1,
		Transport: f.Loopback,
		Hosts:     hosts,
		Stall:     2 * time.Minute,
		Faults:    plan,
		Log:       testLogWriter{t},
	}
}

type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// shardFaults is a plan of process faults only.
func shardFaults(fs map[int][]fault.Fault) fault.Plan { return fault.Plan{Shards: fs} }

// sweepBound is the longest a sweep may take in virtual time: shards run
// concurrently, and each launch of a shard (an attempt or a failover)
// costs at most the stall deadline plus one poll to detect it, the
// backoff cap, a slow start, and what the pull faults can add — each
// can hide growth for one poll and delays by its own For.
func sweepBound(cfg Config, sum Summary) time.Duration {
	launch := cfg.Stall + poll + 16*backoffBase + fault.SlowStart
	for _, fs := range cfg.Faults.Hosts {
		for _, f := range fs {
			launch += poll + f.For
		}
	}
	var bound time.Duration
	for _, o := range sum.Outcomes {
		bound = max(bound, time.Duration(o.Attempts+o.Failovers)*launch)
	}
	return bound
}

// checkSweep holds a finished sweep to the suites' two properties:
// merged bytes equal to the fault-free run, and a virtual duration
// within sweepBound.
func checkSweep(t *testing.T, cfg Config, sum Summary, took time.Duration) {
	t.Helper()
	if len(sum.Missing) > 0 {
		t.Fatalf("%s: missing %v", cfg.Faults, sum.Missing)
	}
	if got := mergedBytes(t, sum.Results); !bytes.Equal(got, chaosReference(t)) {
		t.Fatalf("%s: merged bytes differ from the fault-free run (%d bytes, want %d)", cfg.Faults, len(got), len(chaosReference(t)))
	}
	if bound := sweepBound(cfg, sum); took > bound {
		t.Fatalf("%s: sweep took %v of virtual time, over its retry/failover bound %v", cfg.Faults, took, bound)
	}
}
