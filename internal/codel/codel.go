// Package codel implements the CoDel active queue management algorithm of
// Nichols & Jacobson ("Controlling Queue Delay", ACM Queue 2012; RFC 8289),
// following the published pseudocode. The paper evaluates Cubic-over-CoDel
// as the in-network alternative to Sprout (§5.4); Cellsim gains CoDel as an
// optional dequeue policy exactly as described in §4.2.
package codel

import (
	"math"
	"time"

	"sprout/internal/link"
	"sprout/internal/network"
)

// The parameters RFC 8289 recommends.
const (
	target   = 5 * time.Millisecond
	interval = 100 * time.Millisecond
)

// CoDel is a link.Dequeuer that drops packets at the head of the queue when
// the standing sojourn time exceeds the target for at least one interval.
// The zero value is not usable; construct with New.
type CoDel struct {
	firstAboveTime time.Duration // 0 means "not currently above target"
	dropNext       time.Duration
	count          int
	lastCount      int
	dropping       bool

	drops int64
	pool  *network.Pool
}

// New returns a CoDel instance with the RFC's 5 ms target and 100 ms
// interval.
func New() *CoDel { return &CoDel{} }

// UsePool directs CoDel's head drops to the given arena (the one the
// link's packets come from); nil leaves them to the garbage collector.
func (c *CoDel) UsePool(p *network.Pool) { c.pool = p }

// Drops returns the number of packets CoDel has dropped.
func (c *CoDel) Drops() int64 { return c.drops }

type dodequeueResult struct {
	pkt      *network.Packet
	okToDrop bool
}

// doDequeue implements the dodequeue() helper of the RFC pseudocode.
func (c *CoDel) doDequeue(now time.Duration, q *link.FIFO) dodequeueResult {
	pkt := q.Pop()
	if pkt == nil {
		c.firstAboveTime = 0
		return dodequeueResult{nil, false}
	}
	sojourn := now - pkt.EnqueuedAt
	if sojourn < target || q.Bytes() <= network.MTU {
		// Went below target, or the queue is nearly empty: stay out of
		// (or leave) the above-target state.
		c.firstAboveTime = 0
		return dodequeueResult{pkt, false}
	}
	if c.firstAboveTime == 0 {
		c.firstAboveTime = now + interval
	} else if now >= c.firstAboveTime {
		return dodequeueResult{pkt, true}
	}
	return dodequeueResult{pkt, false}
}

func (c *CoDel) controlLaw(t time.Duration, count int) time.Duration {
	return t + time.Duration(float64(interval)/math.Sqrt(float64(count)))
}

// Next implements link.Dequeuer with the RFC 8289 deque() routine.
func (c *CoDel) Next(now time.Duration, q *link.FIFO) *network.Packet {
	r := c.doDequeue(now, q)
	if c.dropping {
		if !r.okToDrop {
			c.dropping = false
		}
		for now >= c.dropNext && c.dropping {
			c.drops++
			c.pool.Put(r.pkt)
			c.count++
			r = c.doDequeue(now, q)
			if !r.okToDrop {
				c.dropping = false
			} else {
				c.dropNext = c.controlLaw(c.dropNext, c.count)
			}
		}
	} else if r.okToDrop {
		c.drops++
		c.pool.Put(r.pkt)
		r = c.doDequeue(now, q)
		c.dropping = true
		// Start the next drop cycle near the rate that controlled the
		// queue last time (see RFC 8289 §5.3).
		delta := c.count - c.lastCount
		c.count = 1
		if delta > 1 && now-c.dropNext < 16*interval {
			c.count = delta
		}
		c.lastCount = c.count
		c.dropNext = c.controlLaw(now, c.count)
	}
	return r.pkt
}
