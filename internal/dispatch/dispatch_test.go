package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sprout/internal/engine"
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

func mustPool(t *testing.T, hosts ...string) *HostPool {
	t.Helper()
	p, err := NewHostPool(hosts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestHostPoolValidation(t *testing.T) {
	for _, hosts := range [][]string{nil, {}, {""}, {"a", "a"}} {
		if _, err := NewHostPool(hosts); err == nil {
			t.Errorf("NewHostPool(%q) accepted an invalid pool", hosts)
		}
	}
}

// TestHostPoolAcquireOrder: highest score wins, load breaks ties, then
// declaration order — so work converges on healthy hosts and spreads
// evenly among equals.
func TestHostPoolAcquireOrder(t *testing.T) {
	p := mustPool(t, "a", "b", "c")
	if h, _ := p.Acquire(); h != "a" {
		t.Fatalf("first acquire = %q, want declaration-order a", h)
	}
	// a now carries load 1; equals b and c are lighter.
	if h, _ := p.Acquire(); h != "b" {
		t.Fatalf("second acquire = %q, want b (lighter than a)", h)
	}
	// A pull error on c makes it worse than the loaded a and b.
	p.PullError("c")
	if h, _ := p.Acquire(); h != "a" {
		t.Fatalf("acquire after c's pull error picked %q, want healthy a", h)
	}
	// c recovers fully on one successful pull.
	p.PullOK("c")
	if h, _ := p.Acquire(); h != "c" {
		t.Fatalf("acquire after c's recovery = %q, want unloaded c", h)
	}
}

// TestHostPoolDeathAndFailoverExhaustion: scores decay to dead, Acquire
// skips dead hosts, and an all-dead pool reports no host at all.
func TestHostPoolDeathAndFailoverExhaustion(t *testing.T) {
	p := mustPool(t, "a", "b")
	for i := 0; i < maxHostScore; i++ {
		p.PullError("a")
	}
	if !p.Dead("a") {
		t.Fatal("a not dead after score decayed to zero")
	}
	for i := 0; i < 5; i++ {
		if h, ok := p.Acquire(); !ok || h != "b" {
			t.Fatalf("acquire with a dead = (%q, %v), want b", h, ok)
		}
	}
	// Start errors cost double: three kill b from full health.
	p.StartError("b")
	p.StartError("b")
	p.StartError("b")
	if !p.Dead("b") {
		t.Fatal("b not dead after three start errors")
	}
	if _, ok := p.Acquire(); ok {
		t.Fatal("Acquire handed out a dead host")
	}
}

// TestHostPoolFlappingHost is the flap contract: a host that dies loses
// its work, and a revived host rejoins the pool and gets new work.
func TestHostPoolFlappingHost(t *testing.T) {
	p := mustPool(t, "a", "b")
	for i := 0; i < maxHostScore; i++ {
		p.PullError("a")
	}
	if h, _ := p.Acquire(); h != "b" {
		t.Fatalf("acquire with a down = %q, want b", h)
	}
	p.PullOK("a")
	if p.Dead("a") {
		t.Fatal("a still dead after revive")
	}
	// a is back at full health and unloaded; b carries load.
	if h, _ := p.Acquire(); h != "a" {
		t.Fatal("revived a did not get new work")
	}
	// A successful pull for a still-running shard has the same effect.
	for i := 0; i < maxHostScore; i++ {
		p.PullError("b")
	}
	p.PullOK("b")
	if p.Dead("b") {
		t.Fatal("b still dead after a successful pull")
	}
}

func TestHostPoolUnknownHostIgnored(t *testing.T) {
	p := mustPool(t, "a")
	p.PullOK("ghost")
	p.PullError("ghost")
	if !p.Dead("ghost") {
		t.Fatal("unknown host reported alive") // zero score: never acquirable
	}
	if h, ok := p.Acquire(); !ok || h != "a" {
		t.Fatalf("pool corrupted by unknown-host feedback: (%q, %v)", h, ok)
	}
}

// --- Backoff / Progress ---

// TestBackoffSchedule: delays double from base to cap, and every delay
// lands in [d/2, d] — jitter spreads retries without shortening the
// floor below half the nominal delay.
func TestBackoffSchedule(t *testing.T) {
	base, cap := 100*time.Millisecond, 800*time.Millisecond
	b := NewBackoff(base, cap, rand.New(rand.NewSource(1)))
	nominal := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		800 * time.Millisecond, // capped
		800 * time.Millisecond,
	}
	for i, want := range nominal {
		got := b.Next()
		if got < want/2 || got > want {
			t.Fatalf("delay %d = %v, want within [%v, %v]", i, got, want/2, want)
		}
	}
}

// TestBackoffCapSaturation: a long-lived retry loop must stay pinned at
// the cap forever — the schedule saturates instead of overflowing or
// drifting, however many attempts a flaky shard burns.
func TestBackoffCapSaturation(t *testing.T) {
	base, cap := 10*time.Millisecond, 80*time.Millisecond
	b := NewBackoff(base, cap, rand.New(rand.NewSource(7)))
	for i := 0; i < 3; i++ {
		b.Next() // walk up the doubling ramp (10, 20, 40)
	}
	for i := 0; i < 50; i++ {
		got := b.Next()
		if got < cap/2 || got > cap {
			t.Fatalf("saturated delay %d = %v, want within [%v, %v]", i, got, cap/2, cap)
		}
	}
}

// TestBackoffJitterDeterministic: the same seed yields the same delay
// sequence (replayable chaos timing); different seeds diverge.
func TestBackoffJitterDeterministic(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		b := NewBackoff(time.Second, 8*time.Second,
			rand.New(rand.NewSource(engine.DeriveSeed(seed, "backoff", "0"))))
		out := make([]time.Duration, 6)
		for i := range out {
			out[i] = b.Next()
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

func TestBackoffDegenerateBounds(t *testing.T) {
	// Zero base falls back to the default; cap below base clamps up.
	b := NewBackoff(0, 0, rand.New(rand.NewSource(1)))
	if d := b.Next(); d <= 0 {
		t.Fatalf("degenerate backoff returned %v", d)
	}
}

// TestProgress drives the liveness state machine with a fake clock:
// growth resets the deadline, silence past the deadline trips it.
func TestProgress(t *testing.T) {
	t0 := time.Unix(1000, 0)
	p := NewProgress(t0, 10*time.Second)
	for i := 1; i <= 100; i++ {
		if p.Observe(t0.Add(time.Duration(i)*time.Second), true) {
			t.Fatalf("stalled at t+%ds despite growth", i)
		}
	}
	base := t0.Add(100 * time.Second)
	if p.Observe(base.Add(10*time.Second), false) {
		t.Fatal("stalled exactly at the deadline; must be strictly past it")
	}
	if !p.Observe(base.Add(11*time.Second), false) {
		t.Fatal("not stalled past the deadline")
	}
	// Growth after near-stall resets the clock.
	p2 := NewProgress(t0, 10*time.Second)
	p2.Observe(t0.Add(9*time.Second), false)
	p2.Observe(t0.Add(10*time.Second), true) // growth at the wire
	if p2.Observe(t0.Add(19*time.Second), false) {
		t.Fatal("stalled 9s after growth with a 10s deadline")
	}
	if !p2.Observe(t0.Add(21*time.Second), false) {
		t.Fatal("not stalled 11s after the last growth")
	}
}

// --- ShardMirror / PullState ---

func TestShardMirrorDedupAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0.jsonl")
	m, err := OpenShardMirror(path)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := m.Absorb([]engine.Record{rec(0), rec(2)}); err != nil || n != 2 {
		t.Fatalf("absorb = (%d, %v), want 2 new", n, err)
	}
	// Replays deduplicate by index; genuinely new records append.
	if n, err := m.Absorb([]engine.Record{rec(0), rec(2), rec(4)}); err != nil || n != 1 {
		t.Fatalf("replay absorb = (%d, %v), want 1 new", n, err)
	}
	if m.Len() != 3 {
		t.Fatalf("mirror holds %d records, want 3", m.Len())
	}
	m.Close()

	// Reopening resumes the seen-set from disk.
	m2, err := OpenShardMirror(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.Len() != 3 {
		t.Fatalf("reopened mirror holds %d records, want 3", m2.Len())
	}
	if n, _ := m2.Absorb([]engine.Record{rec(2)}); n != 0 {
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
	LocalExec
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
	mirror, err := OpenShardMirror(filepath.Join(t.TempDir(), "shard-0.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer mirror.Close()
	ps := NewPullState(tr, "h", "remote", mirror, 0)

	grew, err := ps.Poll(context.Background())
	if err != nil || !grew {
		t.Fatalf("poll 1 = (%v, %v), want growth", grew, err)
	}
	if ps.Offset() != int64(len(l0)) {
		t.Fatalf("offset %d after torn chunk, want %d (fragment held back)", ps.Offset(), len(l0))
	}
	if grew, err = ps.Poll(context.Background()); err == nil {
		t.Fatal("dropped pull did not surface its error")
	}
	if ps.Offset() != int64(len(l0)) {
		t.Fatal("failed pull advanced the offset")
	}
	if grew, err = ps.Poll(context.Background()); err != nil || !grew {
		t.Fatalf("rewound replay poll = (%v, %v), want growth", grew, err)
	}
	if want := int64(len(l0) + len(l1)); ps.Offset() != want {
		t.Fatalf("offset %d after replay, want %d", ps.Offset(), want)
	}
	if grew, err = ps.Poll(context.Background()); err != nil || !grew {
		t.Fatalf("final poll = (%v, %v), want growth", grew, err)
	}
	if mirror.Len() != 3 {
		t.Fatalf("mirror holds %d records, want 3 exactly-once", mirror.Len())
	}
}

func TestPullStateRejectsSkipAhead(t *testing.T) {
	tr := &scriptedTransport{pulls: []func(int64) ([]byte, int64, error){
		func(o int64) ([]byte, int64, error) { return []byte("x"), o + 10, nil },
	}}
	ps := NewPullState(tr, "h", "remote", nil, 0)
	if _, err := ps.Poll(context.Background()); err == nil {
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
	mirror, err := OpenShardMirror(filepath.Join(t.TempDir(), "shard-0.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer mirror.Close()
	ps := NewPullState(tr, "h", "remote", mirror, 0)
	grew, err := ps.Poll(context.Background())
	if !errors.Is(err, engine.ErrCorruptLog) {
		t.Fatalf("corrupt stream returned %v, want ErrCorruptLog", err)
	}
	if !grew || mirror.Len() != 1 {
		t.Fatalf("valid prefix not absorbed before the corruption verdict (grew=%v, mirrored=%d)", grew, mirror.Len())
	}
}

// --- LocalExec / CmdTransport ---

func TestLocalExecPullPush(t *testing.T) {
	ctx := context.Background()
	var tr LocalExec
	path := filepath.Join(t.TempDir(), "sub", "log.jsonl")
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
	if tr.Mirrored() {
		t.Fatal("LocalExec claims mirroring; the worker log is the local file")
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
	if !tr.Mirrored() {
		t.Fatal("CmdTransport must be mirrored; remote logs are not local files")
	}
	path := filepath.Join(t.TempDir(), "ckpt", "shard-0.jsonl")
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
	if err := proc.Wait(); err != nil {
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
	want := "ssh {host} -- {exe}"
	if tr.String() != want {
		t.Fatalf("template = %q, want %q", tr.String(), want)
	}
}

func TestShellQuote(t *testing.T) {
	if got := shellQuote(`a'b c`); got != `'a'\''b c'` {
		t.Fatalf("shellQuote = %s", got)
	}
}

// --- Loopback ---

func TestLoopbackHostNamespaces(t *testing.T) {
	l := NewLoopback()
	dir := t.TempDir()
	pa := l.ShardLogPath("a", dir, 1)
	pb := l.ShardLogPath("b", dir, 1)
	if pa == pb {
		t.Fatal("two hosts share one shard-log path; failover would collide")
	}
}

func TestLoopbackKillAndRevive(t *testing.T) {
	ctx := context.Background()
	l := NewLoopback()
	dir := t.TempDir()
	path := l.ShardLogPath("a", dir, 0)
	if err := l.Push(ctx, "a", path, []byte("x\n")); err != nil {
		t.Fatal(err)
	}
	// A long-running worker on the host dies with it.
	proc, err := l.Start(ctx, "a", []string{"sleep", "60"}, nil, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- proc.Wait() }()
	l.KillHost("a")
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("killed worker reported success")
		}
	case <-time.After(10 * time.Second):
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
	if _, _, err := l.Pull(ctx, "b", l.ShardLogPath("b", dir, 0), 0); err != nil {
		t.Fatalf("healthy host affected by sibling's death: %v", err)
	}
	l.Revive("a")
	data, _, err := l.Pull(ctx, "a", path, 0)
	if err != nil || string(data) != "x\n" {
		t.Fatalf("revived host pull = (%q, %v)", data, err)
	}
}
