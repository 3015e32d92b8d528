package dispatch

import (
	"context"
	"fmt"
	"io"
	"sync"
)

// Loopback runs a pool of named hosts on this machine — the default
// transport, one host per sweep unless -hosts names more. Each host's
// workers are child processes writing in the host's own directory
// (<dir>/host-<name>/), reached only through Pull and Push, so the sweep runs
// the same remote protocol (push, start, offset pull, mirror, failover)
// as over ssh. A host can be killed: every worker on it dies, and every
// later transport operation against it fails with ErrHostDown until
// Revive.
type Loopback struct {
	mu    sync.Mutex
	down  map[string]bool
	procs map[string][]Proc
	// start launches one worker; a Loopback runs child processes
	// (startLocal), and the supervisor's tests run goroutines.
	start func(ctx context.Context, argv, env []string, stderr io.Writer) (Proc, error)
}

// NewLoopback builds an empty loopback fabric; hosts exist implicitly
// the moment they are named.
func NewLoopback() *Loopback {
	return &Loopback{down: map[string]bool{}, procs: map[string][]Proc{}, start: startLocal}
}

func (l *Loopback) Start(ctx context.Context, host string, argv, env []string, stderr io.Writer) (Proc, error) {
	if l.Down(host) {
		return nil, fmt.Errorf("%w: start on %s", ErrHostDown, host)
	}
	p, err := l.start(ctx, argv, env, stderr)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	// The host may have died between the check and the launch; kill the
	// straggler rather than leak a worker on a dead host.
	if l.down[host] {
		l.mu.Unlock()
		p.Kill()
		<-p.Done()
		return nil, fmt.Errorf("%w: start on %s", ErrHostDown, host)
	}
	l.procs[host] = append(l.procs[host], p) // killing an exited worker is a no-op
	l.mu.Unlock()
	return p, nil
}

func (l *Loopback) Pull(_ context.Context, host, path string, offset int64) ([]byte, int64, error) {
	if l.Down(host) {
		return nil, 0, fmt.Errorf("%w: pull from %s", ErrHostDown, host)
	}
	return pullLocal(path, offset)
}

func (l *Loopback) Push(_ context.Context, host, path string, data []byte) error {
	if l.Down(host) {
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
	victims := l.procs[host]
	l.procs[host] = nil
	l.mu.Unlock()
	for _, p := range victims {
		p.Kill()
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
