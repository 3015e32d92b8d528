package codel

import (
	"testing"
	"time"

	"sprout/internal/link"
	"sprout/internal/network"
)

func fill(q *link.FIFO, n int, enq time.Duration) {
	for i := 0; i < n; i++ {
		q.Push(&network.Packet{Seq: int64(i), Size: network.MTU, EnqueuedAt: enq})
	}
}

func TestCoDelPassThroughLowDelay(t *testing.T) {
	c := New(nil)
	var q link.FIFO
	fill(&q, 10, 0)
	// Sojourn 1ms < target: everything passes.
	for i := 0; i < 10; i++ {
		if p := c.Next(time.Millisecond, &q); p == nil {
			t.Fatalf("packet %d dropped at low delay", i)
		}
	}
	if c.Drops() != 0 {
		t.Errorf("drops = %d, want 0", c.Drops())
	}
}

func TestCoDelEmptyQueue(t *testing.T) {
	c := New(nil)
	var q link.FIFO
	if c.Next(time.Second, &q) != nil {
		t.Error("Next on empty queue should be nil")
	}
}

func TestCoDelDropsOnStandingQueue(t *testing.T) {
	c := New(nil)
	var q link.FIFO
	// A deep standing queue: sojourn always 200ms (> 5ms target).
	// Dequeue once per 10ms of virtual time; CoDel should enter the
	// dropping state after one interval (100ms) and start dropping.
	now := time.Duration(0)
	dropped := false
	for i := 0; i < 200; i++ {
		// Keep the queue deep and stale.
		for q.Len() < 50 {
			q.Push(&network.Packet{Size: network.MTU, EnqueuedAt: now - 200*time.Millisecond})
		}
		c.Next(now, &q)
		now += 10 * time.Millisecond
		if c.Drops() > 0 {
			dropped = true
		}
	}
	if !dropped {
		t.Fatal("CoDel never dropped despite standing 200ms queue")
	}
	if c.Drops() < 5 {
		t.Errorf("drops = %d, want several (control law should accelerate)", c.Drops())
	}
}

func TestCoDelNoDropsWhenQueueNearlyEmpty(t *testing.T) {
	c := New(nil)
	var q link.FIFO
	// One old packet, but queue bytes <= MTU: CoDel must not drop
	// (standing queue of one packet is allowed).
	now := 10 * time.Second
	for i := 0; i < 50; i++ {
		q.Push(&network.Packet{Size: network.MTU, EnqueuedAt: 0})
		if p := c.Next(now, &q); p == nil {
			t.Fatal("dropped the only packet")
		}
		now += 50 * time.Millisecond
	}
	if c.Drops() != 0 {
		t.Errorf("drops = %d, want 0", c.Drops())
	}
}

func TestCoDelRecoversWhenDelayFalls(t *testing.T) {
	c := New(nil)
	var q link.FIFO
	now := time.Duration(0)
	// Phase 1: standing queue to enter dropping.
	for i := 0; i < 100; i++ {
		for q.Len() < 50 {
			q.Push(&network.Packet{Size: network.MTU, EnqueuedAt: now - 300*time.Millisecond})
		}
		c.Next(now, &q)
		now += 10 * time.Millisecond
	}
	drops1 := c.Drops()
	if drops1 == 0 {
		t.Fatal("setup failed: no drops in phase 1")
	}
	// Phase 2: fresh packets (low sojourn): dropping stops.
	q = link.FIFO{}
	for i := 0; i < 100; i++ {
		q.Push(&network.Packet{Size: network.MTU, EnqueuedAt: now})
		if p := c.Next(now+time.Millisecond, &q); p == nil {
			t.Fatal("dropped a fresh packet")
		}
		now += 10 * time.Millisecond
		q = link.FIFO{}
	}
	if c.Drops() != drops1 {
		t.Errorf("drops grew in recovery phase: %d -> %d", drops1, c.Drops())
	}
}

// TestCoDelDefaults: New runs RFC 8289's parameters. A queue standing at
// the 5 ms target drops its first packet once it has stayed above target
// for the 100 ms interval; one standing just under the target never drops.
func TestCoDelDefaults(t *testing.T) {
	firstDrop := func(sojourn time.Duration) time.Duration {
		c := New(nil)
		for now := time.Duration(0); now <= time.Second; now += time.Millisecond {
			var q link.FIFO // every packet has waited exactly sojourn
			for q.Len() < 10 {
				q.Push(&network.Packet{Size: network.MTU, EnqueuedAt: now - sojourn})
			}
			c.Next(now, &q)
			if c.Drops() > 0 {
				return now
			}
		}
		return -1
	}
	if got := firstDrop(5*time.Millisecond - 1); got != -1 {
		t.Errorf("sojourn just under 5 ms: first drop at %v, want none", got)
	}
	if got := firstDrop(5 * time.Millisecond); got != 100*time.Millisecond {
		t.Errorf("sojourn 5 ms: first drop at %v, want 100ms", got)
	}
}

func TestCoDelControlLawAccelerates(t *testing.T) {
	c := New(nil)
	t1 := c.controlLaw(0, 1)
	t4 := c.controlLaw(0, 4)
	if t4 != t1/2 {
		t.Errorf("controlLaw(4) = %v, want half of controlLaw(1) = %v", t4, t1)
	}
}

// TestCoDelReleasesDrops: CoDel takes its head drops out of the network,
// so it is the one to release them. Every packet of a standing queue ends
// up either returned by Next (the link's to release) or back in the pool.
func TestCoDelReleasesDrops(t *testing.T) {
	var pool network.Pool
	c := New(&pool)
	var q link.FIFO
	now := time.Duration(0)
	var returned int64
	for i := 0; i < 400; i++ {
		for q.Len() < 50 {
			p := pool.Get()
			p.Size, p.EnqueuedAt = network.MTU, now-200*time.Millisecond
			q.Push(p)
		}
		if p := c.Next(now, &q); p != nil {
			returned++
			pool.Put(p) // what the link does once it has delivered it
		}
		now += 10 * time.Millisecond
	}
	if c.Drops() < 10 {
		t.Fatalf("only %d drops; the standing queue should keep CoDel dropping", c.Drops())
	}
	if got := pool.InUse(); got != q.Len() {
		t.Errorf("%d packets live with %d queued after %d drops and %d dequeues: drops leak",
			got, q.Len(), c.Drops(), returned)
	}
}
