package dispatch

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sync"
)

// Loopback simulates a multi-host pool on one machine: each named host
// gets its own filesystem namespace (dir/host-<name>/...) and its own
// set of tracked worker processes, and a host can be killed — every
// process on it dies, every later transport operation against it fails
// with ErrHostDown — and later revived. Workers really are separate
// processes writing to files the supervisor can only reach through the
// transport, so the full remote protocol (push, start, offset pull,
// failover) runs for real; only the network is simulated. This is the
// test and CI transport.
type Loopback struct {
	mu    sync.Mutex
	down  map[string]bool
	procs map[string]map[*loopProc]bool
}

// NewLoopback builds an empty loopback fabric; hosts exist implicitly
// the moment they are named.
func NewLoopback() *Loopback {
	return &Loopback{down: map[string]bool{}, procs: map[string]map[*loopProc]bool{}}
}

func (l *Loopback) Mirrored() bool { return true }

// ShardLogPath places each host's logs in its own namespace under the
// checkpoint dir, so two hosts can hold the same shard's log (one stale,
// one live, across a failover) without colliding — exactly the situation
// separate machines' filesystems give for free.
func (l *Loopback) ShardLogPath(host, dir string, shard int) string {
	return filepath.Join(dir, "host-"+host, fmt.Sprintf("shard-%d.jsonl", shard))
}

func (l *Loopback) Start(ctx context.Context, host string, argv, env []string, stderr io.Writer) (Proc, error) {
	l.mu.Lock()
	if l.down[host] {
		l.mu.Unlock()
		return nil, fmt.Errorf("%w: start on %s", ErrHostDown, host)
	}
	l.mu.Unlock()
	inner, err := startLocal(ctx, argv, env, stderr)
	if err != nil {
		return nil, err
	}
	p := &loopProc{l: l, host: host, inner: inner}
	l.mu.Lock()
	// The host may have died between the check and the launch; kill the
	// straggler rather than leak a process on a dead host.
	if l.down[host] {
		l.mu.Unlock()
		inner.Kill()
		inner.Wait()
		return nil, fmt.Errorf("%w: start on %s", ErrHostDown, host)
	}
	if l.procs[host] == nil {
		l.procs[host] = map[*loopProc]bool{}
	}
	l.procs[host][p] = true
	l.mu.Unlock()
	return p, nil
}

func (l *Loopback) Pull(_ context.Context, host, path string, offset int64) ([]byte, int64, error) {
	l.mu.Lock()
	dead := l.down[host]
	l.mu.Unlock()
	if dead {
		return nil, 0, fmt.Errorf("%w: pull from %s", ErrHostDown, host)
	}
	return pullLocal(path, offset)
}

func (l *Loopback) Push(_ context.Context, host, path string, data []byte) error {
	l.mu.Lock()
	dead := l.down[host]
	l.mu.Unlock()
	if dead {
		return fmt.Errorf("%w: push to %s", ErrHostDown, host)
	}
	return pushLocal(path, data)
}

// KillHost takes host down: every worker on it is killed and every later
// Start/Pull/Push against it fails until Revive. The workers' files stay
// on disk — a dead machine's disk does not answer pulls, but its
// contents are not erased, and Revive exposes them again exactly as a
// rebooted machine would.
func (l *Loopback) KillHost(host string) {
	l.mu.Lock()
	l.down[host] = true
	victims := make([]*loopProc, 0, len(l.procs[host]))
	for p := range l.procs[host] {
		victims = append(victims, p)
	}
	l.mu.Unlock()
	for _, p := range victims {
		p.inner.Kill()
	}
}

// Revive brings host back: new work can land on it again.
func (l *Loopback) Revive(host string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.down[host] = false
}

// Down reports whether host is currently dead.
func (l *Loopback) Down(host string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.down[host]
}

// loopProc tracks one worker so KillHost can find it; it untracks itself
// when reaped.
type loopProc struct {
	l     *Loopback
	host  string
	inner Proc
}

func (p *loopProc) Wait() error {
	err := p.inner.Wait()
	p.l.mu.Lock()
	delete(p.l.procs[p.host], p)
	p.l.mu.Unlock()
	return err
}

func (p *loopProc) Kill() error { return p.inner.Kill() }
