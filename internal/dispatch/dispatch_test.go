package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sprout/internal/engine"
	"sprout/internal/fault"
)

func rec(i int) engine.Record {
	return engine.Record{Index: i, Data: json.RawMessage(fmt.Sprintf(`{"v":%d}`, i))}
}

func recLine(t *testing.T, i int) []byte {
	t.Helper()
	raw, err := json.Marshal(rec(i))
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// --- HostPool ---

func mustPool(t *testing.T, hosts ...string) *hostPool {
	t.Helper()
	p, err := newHostPool(hosts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestHostPoolValidation(t *testing.T) {
	for _, hosts := range [][]string{nil, {}, {""}, {"a", "a"}} {
		if _, err := newHostPool(hosts); err == nil {
			t.Errorf("newHostPool(%q) accepted an invalid pool", hosts)
		}
	}
}

// TestHostPoolAcquireOrder: highest score wins, load breaks ties, then
// declaration order — so work converges on healthy hosts and spreads
// evenly among equals.
func TestHostPoolAcquireOrder(t *testing.T) {
	p := mustPool(t, "a", "b", "c")
	if h, _ := p.acquire(); h != "a" {
		t.Fatalf("first acquire = %q, want declaration-order a", h)
	}
	// a now carries load 1; equals b and c are lighter.
	if h, _ := p.acquire(); h != "b" {
		t.Fatalf("second acquire = %q, want b (lighter than a)", h)
	}
	// A pull error on c makes it worse than the loaded a and b.
	p.pullError("c")
	if h, _ := p.acquire(); h != "a" {
		t.Fatalf("acquire after c's pull error picked %q, want healthy a", h)
	}
	// c recovers fully on one successful pull.
	p.pullOK("c")
	if h, _ := p.acquire(); h != "c" {
		t.Fatalf("acquire after c's recovery = %q, want unloaded c", h)
	}
}

// TestHostPoolDeathAndFailoverExhaustion: scores decay to dead, Acquire
// skips dead hosts, and an all-dead pool reports no host at all.
func TestHostPoolDeathAndFailoverExhaustion(t *testing.T) {
	p := mustPool(t, "a", "b")
	for i := 0; i < maxHostScore; i++ {
		p.pullError("a")
	}
	if !p.dead("a") {
		t.Fatal("a not dead after score decayed to zero")
	}
	for i := 0; i < 5; i++ {
		if h, ok := p.acquire(); !ok || h != "b" {
			t.Fatalf("acquire with a dead = (%q, %v), want b", h, ok)
		}
	}
	// Start errors cost double: three kill b from full health.
	p.startError("b")
	p.startError("b")
	p.startError("b")
	if !p.dead("b") {
		t.Fatal("b not dead after three start errors")
	}
	if _, ok := p.acquire(); ok {
		t.Fatal("Acquire handed out a dead host")
	}
}

// TestHostPoolFlappingHost is the flap contract: a host that dies loses
// its work, and a revived host rejoins the pool and gets new work.
func TestHostPoolFlappingHost(t *testing.T) {
	p := mustPool(t, "a", "b")
	for i := 0; i < maxHostScore; i++ {
		p.pullError("a")
	}
	if h, _ := p.acquire(); h != "b" {
		t.Fatalf("acquire with a down = %q, want b", h)
	}
	p.pullOK("a")
	if p.dead("a") {
		t.Fatal("a still dead after revive")
	}
	// a is back at full health and unloaded; b carries load.
	if h, _ := p.acquire(); h != "a" {
		t.Fatal("revived a did not get new work")
	}
	// A successful pull for a still-running shard has the same effect.
	for i := 0; i < maxHostScore; i++ {
		p.pullError("b")
	}
	p.pullOK("b")
	if p.dead("b") {
		t.Fatal("b still dead after a successful pull")
	}
}

func TestHostPoolUnknownHostIgnored(t *testing.T) {
	p := mustPool(t, "a")
	p.pullOK("ghost")
	p.pullError("ghost")
	if !p.dead("ghost") {
		t.Fatal("unknown host reported alive") // zero score: never acquirable
	}
	if h, ok := p.acquire(); !ok || h != "a" {
		t.Fatalf("pool corrupted by unknown-host feedback: (%q, %v)", h, ok)
	}
}

// --- Backoff / Progress ---

// TestBackoffSchedule: the schedule a default Config produces doubles
// from 500 ms to its 8 s cap, and every delay lands in [d/2, d] —
// jitter spreads retries without shortening the floor below half the
// nominal delay.
func TestBackoffSchedule(t *testing.T) {
	b := Config{Seed: 1}.backoff(0)
	nominal := []time.Duration{
		500 * time.Millisecond, // [250 ms, 500 ms]
		1 * time.Second,        // [500 ms, 1 s]
		2 * time.Second,
		4 * time.Second,
		8 * time.Second,
		8 * time.Second, // capped at 16 × base
		8 * time.Second,
	}
	for i, want := range nominal {
		got := b.next()
		if got < want/2 || got > want {
			t.Fatalf("delay %d = %v, want within [%v, %v]", i, got, want/2, want)
		}
	}
}

// TestBackoffCapSaturation: a long-lived retry loop must stay pinned at
// the cap forever — the schedule saturates instead of overflowing or
// drifting, however many attempts a flaky shard burns.
func TestBackoffCapSaturation(t *testing.T) {
	base, cap := 10*time.Millisecond, 160*time.Millisecond
	b := newBackoff(base, rand.New(rand.NewSource(7)))
	for i := 0; i < 4; i++ {
		b.next() // walk up the doubling ramp (10, 20, 40, 80)
	}
	for i := 0; i < 50; i++ {
		got := b.next()
		if got < cap/2 || got > cap {
			t.Fatalf("saturated delay %d = %v, want within [%v, %v]", i, got, cap/2, cap)
		}
	}
}

// TestBackoffJitterDeterministic: the same seed yields the same delay
// sequence (replayable chaos timing); different seeds diverge.
func TestBackoffJitterDeterministic(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		b := Config{Seed: seed}.backoff(0)
		out := make([]time.Duration, 6)
		for i := range out {
			out[i] = b.next()
		}
		return out
	}
	if !reflect.DeepEqual(seq(42), seq(42)) {
		t.Fatal("same seed produced different backoff schedules")
	}
	if reflect.DeepEqual(seq(1), seq(2)) {
		t.Fatal("different seeds produced identical schedules; jitter is not seed-driven")
	}
}

// TestProgress drives the liveness state machine with a fake clock:
// growth resets the deadline, silence past the deadline trips it.
func TestProgress(t *testing.T) {
	t0 := time.Unix(1000, 0)
	p := newProgress(t0, 10*time.Second)
	for i := 1; i <= 100; i++ {
		if p.observe(t0.Add(time.Duration(i)*time.Second), true) {
			t.Fatalf("stalled at t+%ds despite growth", i)
		}
	}
	base := t0.Add(100 * time.Second)
	if p.observe(base.Add(10*time.Second), false) {
		t.Fatal("stalled exactly at the deadline; must be strictly past it")
	}
	if !p.observe(base.Add(11*time.Second), false) {
		t.Fatal("not stalled past the deadline")
	}
	// Growth after near-stall resets the clock.
	p2 := newProgress(t0, 10*time.Second)
	p2.observe(t0.Add(9*time.Second), false)
	p2.observe(t0.Add(10*time.Second), true) // growth at the wire
	if p2.observe(t0.Add(19*time.Second), false) {
		t.Fatal("stalled 9s after growth with a 10s deadline")
	}
	if !p2.observe(t0.Add(21*time.Second), false) {
		t.Fatal("not stalled 11s after the last growth")
	}
}

// --- ShardMirror / PullState ---

func TestShardMirrorDedupAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0.jsonl")
	m, err := openShardMirror(path)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := m.absorb([]engine.Record{rec(0), rec(2)}); err != nil || n != 2 {
		t.Fatalf("absorb = (%d, %v), want 2 new", n, err)
	}
	// Replays deduplicate by index; genuinely new records append.
	if n, err := m.absorb([]engine.Record{rec(0), rec(2), rec(4)}); err != nil || n != 1 {
		t.Fatalf("replay absorb = (%d, %v), want 1 new", n, err)
	}
	if len(m.seen) != 3 {
		t.Fatalf("mirror holds %d records, want 3", len(m.seen))
	}
	m.close()

	// Reopening resumes the seen-set from disk.
	m2, err := openShardMirror(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.close()
	if len(m2.seen) != 3 {
		t.Fatalf("reopened mirror holds %d records, want 3", len(m2.seen))
	}
	if n, _ := m2.absorb([]engine.Record{rec(2)}); n != 0 {
		t.Fatal("reopened mirror re-absorbed a record it already holds")
	}
	recs, err := engine.ReadRecords(mustOpen(t, path))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].Index != 0 || recs[1].Index != 2 || recs[2].Index != 4 {
		t.Fatalf("mirror file holds %v", recs)
	}
}

func mustOpen(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// scriptedTransport serves Pull from a scripted response list, so the
// pull protocol's edge cases are driven deterministically.
type scriptedTransport struct {
	Transport
	pulls []func(offset int64) ([]byte, int64, error)
	n     int
}

func (s *scriptedTransport) Pull(_ context.Context, _, _ string, offset int64) ([]byte, int64, error) {
	if s.n >= len(s.pulls) {
		return nil, offset, nil
	}
	fn := s.pulls[s.n]
	s.n++
	return fn(offset)
}

// TestPullStateProtocol walks one stream through every recoverable
// network shape: torn chunk tails held back and re-pulled, rewound
// replays discarded by offset arithmetic, failed pulls advancing
// nothing — and the mirror ends with exactly one copy of each record.
func TestPullStateProtocol(t *testing.T) {
	l0, l1, l2 := recLine(t, 0), recLine(t, 2), recLine(t, 4)
	full := append(append(append([]byte{}, l0...), l1...), l2...)
	tr := &scriptedTransport{pulls: []func(int64) ([]byte, int64, error){
		// 1: one whole record plus a torn fragment of the next.
		func(o int64) ([]byte, int64, error) { return full[o : int64(len(l0))+3], o, nil },
		// 2: dropped connection.
		func(o int64) ([]byte, int64, error) { return nil, 0, errors.New("conn dropped") },
		// 3: a rewound replay — re-serves from 0, including consumed bytes.
		func(o int64) ([]byte, int64, error) { return full[:len(l0)+len(l1)], 0, nil },
		// 4: the rest.
		func(o int64) ([]byte, int64, error) { return full[o:], o, nil },
	}}
	mirror, err := openShardMirror(filepath.Join(t.TempDir(), "shard-0.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer mirror.close()
	ps := newPullState(tr, "h", "remote", mirror, 0)

	grew, err := ps.poll(context.Background())
	if err != nil || !grew {
		t.Fatalf("poll 1 = (%v, %v), want growth", grew, err)
	}
	if ps.offset != int64(len(l0)) {
		t.Fatalf("offset %d after torn chunk, want %d (fragment held back)", ps.offset, len(l0))
	}
	if grew, err = ps.poll(context.Background()); err == nil {
		t.Fatal("dropped pull did not surface its error")
	}
	if ps.offset != int64(len(l0)) {
		t.Fatal("failed pull advanced the offset")
	}
	if grew, err = ps.poll(context.Background()); err != nil || !grew {
		t.Fatalf("rewound replay poll = (%v, %v), want growth", grew, err)
	}
	if want := int64(len(l0) + len(l1)); ps.offset != want {
		t.Fatalf("offset %d after replay, want %d", ps.offset, want)
	}
	if grew, err = ps.poll(context.Background()); err != nil || !grew {
		t.Fatalf("final poll = (%v, %v), want growth", grew, err)
	}
	if len(mirror.seen) != 3 {
		t.Fatalf("mirror holds %d records, want 3 exactly-once", len(mirror.seen))
	}
}

func TestPullStateRejectsSkipAhead(t *testing.T) {
	tr := &scriptedTransport{pulls: []func(int64) ([]byte, int64, error){
		func(o int64) ([]byte, int64, error) { return []byte("x"), o + 10, nil },
	}}
	mirror, err := openShardMirror(filepath.Join(t.TempDir(), "shard-0.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer mirror.close()
	ps := newPullState(tr, "h", "remote", mirror, 0)
	if _, err := ps.poll(context.Background()); err == nil {
		t.Fatal("a pull that skipped ahead was accepted")
	}
}

func TestPullStateSurfacesCorruption(t *testing.T) {
	good := recLine(t, 0)
	tr := &scriptedTransport{pulls: []func(int64) ([]byte, int64, error){
		func(o int64) ([]byte, int64, error) {
			return append(append([]byte{}, good...), []byte("{\"i\":garbage}\n")...), o, nil
		},
	}}
	mirror, err := openShardMirror(filepath.Join(t.TempDir(), "shard-0.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer mirror.close()
	ps := newPullState(tr, "h", "remote", mirror, 0)
	grew, err := ps.poll(context.Background())
	if !errors.Is(err, engine.ErrCorruptLog) {
		t.Fatalf("corrupt stream returned %v, want ErrCorruptLog", err)
	}
	if !grew || len(mirror.seen) != 1 {
		t.Fatalf("valid prefix not absorbed before the corruption verdict (grew=%v, mirrored=%d)", grew, len(mirror.seen))
	}
}

// --- Loopback / CmdTransport ---

func TestLoopbackPullPush(t *testing.T) {
	ctx := context.Background()
	tr := NewLoopback()
	path := hostLogPath(t.TempDir(), "local", 0)
	// Missing file pulls empty, not an error.
	data, from, err := tr.Pull(ctx, "local", path, 5)
	if err != nil || len(data) != 0 || from != 5 {
		t.Fatalf("pull of missing file = (%q, %d, %v)", data, from, err)
	}
	if err := tr.Push(ctx, "local", path, []byte("hello world\n")); err != nil {
		t.Fatal(err)
	}
	data, from, err = tr.Pull(ctx, "local", path, 6)
	if err != nil || string(data) != "world\n" || from != 6 {
		t.Fatalf("offset pull = (%q, %d, %v)", data, from, err)
	}
	// A file shorter than the offset re-serves from 0 with an honest from.
	data, from, err = tr.Pull(ctx, "local", path, 999)
	if err != nil || from != 0 || string(data) != "hello world\n" {
		t.Fatalf("shrunk-file pull = (%q, %d, %v), want honest from=0", data, from, err)
	}
}

// fakeRemoteShell writes a stand-in for ssh: it drops the host argument
// and runs the command locally, so CmdTransport's full protocol runs
// without a network.
func fakeRemoteShell(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fakersh")
	script := "#!/bin/sh\nshift\nexec \"$@\"\n"
	if err := os.WriteFile(path, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCmdTransportRoundTrip(t *testing.T) {
	ctx := context.Background()
	rsh := fakeRemoteShell(t)
	tr, err := NewCmdTransport(rsh + " {host} {exe}")
	if err != nil {
		t.Fatal(err)
	}
	path := hostLogPath(filepath.Join(t.TempDir(), "ckpt"), "hostA", 0)
	if err := tr.Push(ctx, "hostA", path, []byte("abcdef\n")); err != nil {
		t.Fatal(err)
	}
	data, from, err := tr.Pull(ctx, "hostA", path, 3)
	if err != nil || string(data) != "def\n" || from != 3 {
		t.Fatalf("pull = (%q, %d, %v)", data, from, err)
	}
	// Missing remote file pulls empty.
	if data, _, err := tr.Pull(ctx, "hostA", path+".absent", 0); err != nil || len(data) != 0 {
		t.Fatalf("missing-file pull = (%q, %v)", data, err)
	}
	// Start runs the worker under the template with env applied.
	marker := filepath.Join(t.TempDir(), "ran")
	proc, err := tr.Start(ctx, "hostA",
		[]string{"sh", "-c", `test "$SPROUT_T" = yes && touch "$0"`, marker},
		[]string{"SPROUT_T=yes"}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	<-proc.Done()
	if err := proc.Err(); err != nil {
		t.Fatalf("remote worker failed: %v", err)
	}
	if _, err := os.Stat(marker); err != nil {
		t.Fatal("remote worker did not run with its environment")
	}
}

func TestNewCmdTransportAppendsExe(t *testing.T) {
	if _, err := NewCmdTransport("   "); err == nil {
		t.Fatal("empty template accepted")
	}
	tr, err := NewCmdTransport("ssh {host} --")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"ssh", "{host}", "--", "{exe}"}; !reflect.DeepEqual(tr.template, want) {
		t.Fatalf("template = %q, want %q", tr.template, want)
	}
}

func TestShellQuote(t *testing.T) {
	if got := shellQuote(`a'b c`); got != `'a'\''b c'` {
		t.Fatalf("shellQuote = %s", got)
	}
}

// --- Loopback ---

// TestLoopbackHostNamespaces: every worker log lives in its host's
// directory, never at the mirror's path, so two hosts can hold one
// shard's log across a failover and no worker writes the supervisor's
// copy.
func TestLoopbackHostNamespaces(t *testing.T) {
	dir := t.TempDir()
	pa := hostLogPath(dir, "a", 1)
	pb := hostLogPath(dir, "b", 1)
	if pa == pb {
		t.Fatal("two hosts share one shard-log path; failover would collide")
	}
	if want := filepath.Join(dir, "host-a", "shard-1.jsonl"); pa != want {
		t.Fatalf("worker log at %s, want %s", pa, want)
	}
	if pa == engine.ShardLogPath(dir, 1) {
		t.Fatal("the worker log is the mirror")
	}
}

func TestLoopbackKillAndRevive(t *testing.T) {
	ctx := context.Background()
	l := NewLoopback()
	dir := t.TempDir()
	path := hostLogPath(dir, "a", 0)
	if err := l.Push(ctx, "a", path, []byte("x\n")); err != nil {
		t.Fatal(err)
	}
	// A long-running worker on the host dies with it.
	proc, err := l.Start(ctx, "a", []string{"sleep", "60"}, nil, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	l.KillHost("a")
	select {
	case <-proc.Done():
		if proc.Err() == nil {
			t.Fatal("killed worker reported success")
		}
	case <-time.After(10 * time.Second): // safety timeout
		t.Fatal("worker survived its host's death")
	}
	if _, _, err := l.Pull(ctx, "a", path, 0); !errors.Is(err, ErrHostDown) {
		t.Fatalf("pull from dead host = %v, want ErrHostDown", err)
	}
	if err := l.Push(ctx, "a", path, nil); !errors.Is(err, ErrHostDown) {
		t.Fatalf("push to dead host = %v, want ErrHostDown", err)
	}
	if _, err := l.Start(ctx, "a", []string{"true"}, nil, os.Stderr); !errors.Is(err, ErrHostDown) {
		t.Fatalf("start on dead host = %v, want ErrHostDown", err)
	}
	// Other hosts are unaffected; a revived host serves its old bytes.
	if _, _, err := l.Pull(ctx, "b", hostLogPath(dir, "b", 0), 0); err != nil {
		t.Fatalf("healthy host affected by sibling's death: %v", err)
	}
	l.Revive("a")
	data, _, err := l.Pull(ctx, "a", path, 0)
	if err != nil || string(data) != "x\n" {
		t.Fatalf("revived host pull = (%q, %v)", data, err)
	}
}

// --- Supervision ---

// TestClassifyCode pins the transient/permanent contract: the two
// contractual codes are terminal, everything else — including the fault
// injector's distinct codes and signal deaths — retries.
func TestClassifyCode(t *testing.T) {
	cases := []struct {
		code int
		want failureClass
	}{
		{ExitUsage, classUsage},
		{ExitPermanent, classPermanent},
		{0, classTransient},
		{1, classTransient},
		{fault.ExitCrash, classTransient},
		{fault.ExitTorn, classTransient},
		{fault.ExitCorrupt, classTransient},
		{-1, classTransient}, // killed by signal
		{137, classTransient},
	}
	for _, c := range cases {
		if got := classifyCode(c.code); got != c.want {
			t.Errorf("classifyCode(%d) = %v, want %v", c.code, got, c.want)
		}
	}
}

// TestClassify: non-exit errors (stall kills, start failures, context
// cancellation) are transient, corruption the supervisor's own pull
// detected is permanent, and real exit statuses route through the code
// table.
func TestClassify(t *testing.T) {
	if got := classify(errors.New("stalled, killed")); got != classTransient {
		t.Fatalf("plain error classified %v, want transient", got)
	}
	// Corruption surfaced by the pull protocol, wrapped however deep.
	werr := fmt.Errorf("drain shard 1: %w", fmt.Errorf("parse: %w", engine.ErrCorruptLog))
	if got := classify(werr); got != classPermanent {
		t.Fatalf("wrapped ErrCorruptLog classified %v, want permanent", got)
	}
	// An in-process worker's exit status reads the same way.
	if got := classify(fmt.Errorf("attempt: %w", exitStatus(ExitPermanent))); got != classPermanent {
		t.Fatalf("in-process exit 3 classified %v, want permanent", got)
	}
	// A real child exiting with the permanent code.
	err := exec.Command("/bin/sh", "-c", "exit 3").Run()
	if err == nil {
		t.Skip("no /bin/sh")
	}
	if got := classify(err); got != classPermanent {
		t.Fatalf("exit 3 classified %v, want permanent", got)
	}
	err = exec.Command("/bin/sh", "-c", "exit 7").Run()
	if got := classify(err); got != classTransient {
		t.Fatalf("exit 7 classified %v, want transient", got)
	}
}

// TestPullFaultOrdering pins the pull-counter semantics of a plan's
// host half: each fault fires on the pull whose 0-based sequence number
// reaches its After, faults are consumed strictly in order, pulls
// between boundaries run clean, and a host the plan does not name is
// never gated.
func TestPullFaultOrdering(t *testing.T) {
	ft := newFaultyTransport(NewLoopback(), map[string][]fault.Fault{"h": {
		{Kind: fault.ConnDrop, After: 0},
		{Kind: fault.PartialPull, After: 2, Bytes: 5},
		{Kind: fault.DupRecords, After: 2, Bytes: 16}, // same boundary: fires on the next pull
		{Kind: fault.HostDown, After: 5},
	}}, wallClock{})
	want := []fault.Kind{
		fault.ConnDrop,    // pull 0
		"",                // pull 1
		fault.PartialPull, // pull 2
		fault.DupRecords,  // pull 3 (After=2 already passed)
		"",                // pull 4
		fault.HostDown,    // pull 5
		"",                // pull 6: sequence exhausted
		"",                // pull 7
	}
	for i, w := range want {
		if f, ok := ft.next("h"); ok != (w != "") || f.Kind != w {
			t.Fatalf("pull %d: got (%q, %v), want %q", i, f.Kind, ok, w)
		}
		if f, ok := ft.next("other"); ok {
			t.Fatalf("pull %d of an unplanned host fired %v", i, f)
		}
	}
}

// TestFaultyTransportHostDown: an injected HostDown kills the host
// through the transport's KillHost, so every later operation on it
// fails the way a dead machine's would.
func TestFaultyTransportHostDown(t *testing.T) {
	lb := NewLoopback()
	ft := newFaultyTransport(lb, map[string][]fault.Fault{"a": {{Kind: fault.HostDown, After: 1}}}, wallClock{})
	path := hostLogPath(t.TempDir(), "a", 0)
	ctx := context.Background()
	if _, _, err := ft.Pull(ctx, "a", path, 0); err != nil {
		t.Fatalf("pull 0 = %v, want clean", err)
	}
	if _, _, err := ft.Pull(ctx, "a", path, 0); !errors.Is(err, ErrHostDown) {
		t.Fatalf("pull 1 = %v, want the injected ErrHostDown", err)
	}
	if !lb.Down("a") {
		t.Fatal("HostDown did not kill the host through KillHost")
	}
	if err := ft.Push(ctx, "a", path, nil); !errors.Is(err, ErrHostDown) {
		t.Fatalf("push to the killed host = %v, want ErrHostDown", err)
	}
}
