package dispatch

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ErrHostDown marks a transport operation refused because the target
// host is dead. Supervisors test for it with errors.Is: an attempt that
// fails this way is a placement problem, not a shard problem, so it
// triggers failover to another host without consuming the shard's retry
// budget.
var ErrHostDown = errors.New("dispatch: host down")

// maxHostScore is a healthy host's score. Each pull error costs 1, each
// start error 2, and a successful pull restores the maximum — transient
// flakiness (one dropped connection) barely moves the needle, while a
// host that stops answering decays to 0 within a few poll intervals.
const maxHostScore = 5

// hostPool tracks which hosts are worth giving work to. Health is
// inferred entirely from transport outcomes — the pull stream doubles as
// the host heartbeat — so no separate health-check protocol exists to
// disagree with the data path. Score 0 means dead: acquire skips the
// host until a successful pull for a still-running shard restores it,
// which is how a flapping host rejoins the pool and gets new work.
type hostPool struct {
	mu    sync.Mutex
	hosts []string
	score map[string]int
	load  map[string]int
}

// newHostPool builds a pool over hosts, all initially healthy. Host
// names must be unique and non-empty.
func newHostPool(hosts []string) (*hostPool, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("dispatch: empty host pool")
	}
	p := &hostPool{score: map[string]int{}, load: map[string]int{}}
	for _, h := range hosts {
		if h == "" {
			return nil, fmt.Errorf("dispatch: empty host name in pool")
		}
		if _, dup := p.score[h]; dup {
			return nil, fmt.Errorf("dispatch: duplicate host %q in pool", h)
		}
		p.hosts = append(p.hosts, h)
		p.score[h] = maxHostScore
	}
	return p, nil
}

// acquire picks the best live host for a new shard attempt — highest
// score, then lightest load, then declaration order, so work converges
// onto the healthiest machines and spreads evenly among equals — and
// charges it one unit of load. It reports false when every host is dead,
// which is the supervisor's signal that failover is exhausted and rescue
// is the only path left.
func (p *hostPool) acquire() (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	best := -1
	for i, h := range p.hosts {
		if p.score[h] == 0 {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		bh := p.hosts[best]
		if p.score[h] > p.score[bh] ||
			(p.score[h] == p.score[bh] && p.load[h] < p.load[bh]) {
			best = i
		}
	}
	if best < 0 {
		return "", false
	}
	h := p.hosts[best]
	p.load[h]++
	return h, true
}

// release returns the load unit a prior acquire charged to host.
func (p *hostPool) release(host string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.load[host] > 0 {
		p.load[host]--
	}
}

// pullOK records a successful pull: host answered on the data path, so
// its health resets to the maximum regardless of past sins — the pool
// forgives as fast as it condemns.
func (p *hostPool) pullOK(host string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.score[host]; ok {
		p.score[host] = maxHostScore
	}
}

// pullError records a failed pull against host.
func (p *hostPool) pullError(host string) { p.penalize(host, 1) }

// startError records a failed worker launch against host — a stronger
// signal than a dropped pull, since launches retry less often.
func (p *hostPool) startError(host string) { p.penalize(host, 2) }

func (p *hostPool) penalize(host string, cost int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.score[host]; ok {
		s -= cost
		if s < 0 {
			s = 0
		}
		p.score[host] = s
	}
}

// dead reports whether host's score has decayed to zero.
func (p *hostPool) dead(host string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.score[host] == 0
}

// state renders the pool for supervisor logs: "a:5/1 b:0/0"
// (score/load), hosts sorted by name.
func (p *hostPool) state() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	hosts := append([]string{}, p.hosts...)
	sort.Strings(hosts)
	var b strings.Builder
	for i, h := range hosts {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d/%d", h, p.score[h], p.load[h])
	}
	return b.String()
}
