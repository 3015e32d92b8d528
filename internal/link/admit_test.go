package link_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sprout/internal/codel"
	"sprout/internal/link"
	"sprout/internal/network"
	"sprout/internal/sim"
	"sprout/internal/trace"
)

// eventClock is a sim.Loop seen through sim.Clock alone. It is no
// Sequencer, so a Link built on it schedules one After event per arrival —
// the schedule whose outputs the admit rule must reproduce. After consumes
// the sequence number Reserve would, so the two worlds tie identically.
type eventClock struct{ loop *sim.Loop }

func (c eventClock) Now() time.Duration                         { return c.loop.Now() }
func (c eventClock) After(d time.Duration, fn func()) sim.Timer { return c.loop.After(d, fn) }

// tieTrace returns n opportunities on integer milliseconds, some sharing
// one, about one per millisecond.
func tieTrace(rng *rand.Rand, n int) *trace.Trace {
	ops := make([]time.Duration, n)
	at := time.Duration(0)
	for i := range ops {
		at += []time.Duration{0, 1, 1, 2}[rng.Intn(4)] * time.Millisecond
		ops[i] = at
	}
	return &trace.Trace{Name: "ties", Opportunities: ops}
}

type linkCase struct {
	name  string
	prop  time.Duration
	loss  float64
	bound int
	codel bool
}

// runLinkWorld drives one link with seeded traffic built to tie — a sender
// ticking on the milliseconds the opportunities fall on, echoes sent from
// inside the delivery handler, accessors read from events, between two
// Runs and after the last — and returns everything observable: each
// delivery with its EnqueuedAt, each accessor reading, every counter, the
// loss generator's next draw and the pool's live count after the drain.
func runLinkWorld(c linkCase, seed int64, perArrivalEvents bool) (log []string, end linkEnd) {
	loop := sim.New()
	var clock sim.Clock = loop
	if perArrivalEvents {
		clock = eventClock{loop}
	}
	traffic := rand.New(rand.NewSource(seed))
	lossRand := rand.New(rand.NewSource(seed + 1))
	var pool network.Pool
	var l *link.Link
	var seq int64

	send := func(size int) {
		p := pool.Get()
		p.Size, p.Seq, p.SentAt = size, seq, loop.Now()
		seq++
		l.Send(p)
	}
	reads := 0
	read := func(where string) {
		// Whichever accessor is asked first must do the admitting.
		first := -1
		switch reads++; reads % 3 {
		case 1:
			first = l.QueueBytes()
		case 2:
			first = l.QueueLen()
		}
		loss, queue, aqm := l.Drops()
		log = append(log, fmt.Sprintf("%s @%v: first %d, drops %d/%d/%d, queue %d B %d pkts",
			where, loop.Now(), first, loss, queue, aqm, l.QueueBytes(), l.QueueLen()))
	}

	cfg := link.Config{
		Trace:            tieTrace(rand.New(rand.NewSource(seed+2)), 500),
		PropagationDelay: c.prop,
		LossRate:         c.loss,
		Rand:             lossRand,
		QueueBytes:       c.bound,
		Pool:             &pool,
	}
	if c.codel {
		cd := codel.New(0, 0)
		cd.UsePool(&pool)
		cfg.Dequeuer = cd
	}
	const sending = 700 * time.Millisecond
	l = link.New(clock, cfg, func(p *network.Packet) {
		log = append(log, fmt.Sprintf("deliver %d sent %v enqueued %v at %v", p.Seq, p.SentAt, p.EnqueuedAt, loop.Now()))
		if loop.Now() < sending && traffic.Intn(8) == 0 {
			send(100) // lands, with no propagation delay, at this very instant
		}
	})

	sizes := []int{100, 700, network.MTU}
	var tick func()
	tick = func() {
		for n := traffic.Intn(6); n > 0; n-- { // 1.3 times what the trace carries
			send(sizes[traffic.Intn(len(sizes))])
		}
		if traffic.Intn(4) == 0 {
			read("event")
		}
		if loop.Now() < sending {
			loop.After(time.Millisecond, tick)
		}
	}
	loop.After(0, tick)

	loop.Run(300 * time.Millisecond)
	read("after Run")
	send(700) // taken outside any event: lands in the next Run at the earliest
	read("after Send")
	loop.Run(300 * time.Millisecond)
	read("after Run again")
	loop.Run(20 * time.Second) // long past the last packet
	read("drained")
	log = append(log, fmt.Sprintf("delivered %d B, wasted %d, next loss draw %d, %d packets live",
		l.DeliveredBytes(), l.WastedOpportunities(), lossRand.Int63(), pool.InUse()))
	end.loss, end.tail, end.aqm = l.Drops()
	end.live = pool.InUse()
	return log, end
}

// linkEnd is what a drained world is left with.
type linkEnd struct {
	loss, tail, aqm int64
	live            int
}

// TestLinkAdmitMatchesPerArrivalEvents: a link that admits arrivals when
// its queue is next looked at is indistinguishable from one that schedules
// an event per arrival — same deliveries at the same instants with the
// same EnqueuedAt, same loss draws against the same packets, same tail and
// CoDel drops, same accessor readings wherever they are taken.
func TestLinkAdmitMatchesPerArrivalEvents(t *testing.T) {
	cases := []linkCase{
		{name: "no delay, loss, bound", loss: 0.2, bound: 6 * network.MTU},
		{name: "3 ms, loss, bound", prop: 3 * time.Millisecond, loss: 0.2, bound: 6 * network.MTU},
		{name: "no delay, codel", codel: true},
		{name: "2 ms, codel, loss", prop: 2 * time.Millisecond, loss: 0.1, codel: true},
		{name: "1 ms, unbounded", prop: time.Millisecond},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var lost, tail, aqm bool
			for seed := int64(1); seed <= 8; seed++ {
				got, end := runLinkWorld(c, seed, false)
				want, _ := runLinkWorld(c, seed, true)
				for i := 0; i < len(got) && i < len(want); i++ {
					if got[i] != want[i] {
						t.Fatalf("seed %d, line %d:\n admit:      %s\n per-arrival: %s", seed, i, got[i], want[i])
					}
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d: %d log lines with admit, %d with per-arrival events", seed, len(got), len(want))
				}
				if end.live != 0 || len(got) < 500 {
					t.Errorf("seed %d: %d log lines, %d packets live after the drain; want a busy link and none", seed, len(got), end.live)
				}
				lost, tail, aqm = lost || end.loss > 0, tail || end.tail > 0, aqm || end.aqm > 0
			}
			if lost != (c.loss > 0) || tail != (c.bound > 0) || aqm != c.codel {
				t.Errorf("traffic did not exercise the case: loss %v, tail drops %v, CoDel drops %v", lost, tail, aqm)
			}
		})
	}
}

// TestLinkAccessorsAdmitFirst pins what the accessors see on a link with
// no propagation delay, where a packet's arrival is reserved for the very
// instant it is sent: not an arrival whose event would still be waiting
// behind the one now firing, and every arrival up to the horizon once Run
// has returned.
func TestLinkAccessorsAdmitFirst(t *testing.T) {
	loop := sim.New()
	l := link.New(loop, link.Config{
		Trace:    &trace.Trace{Name: "late", Opportunities: []time.Duration{time.Hour}},
		LossRate: 1, // every arrival is a loss the moment it lands
		Rand:     rand.New(rand.NewSource(1)),
	}, nil)
	losses := func() int64 {
		loss, _, _ := l.Drops()
		return loss
	}
	pkt := func() *network.Packet { return &network.Packet{Size: 100} }

	loop.After(time.Millisecond, func() {
		l.Send(pkt())
		if got := losses(); got != 0 {
			t.Errorf("inside the sending event: %d arrivals landed, want 0", got)
		}
		loop.After(0, func() {
			if got := losses(); got != 1 {
				t.Errorf("inside an event scheduled after the Send for the same instant: %d arrivals landed, want 1", got)
			}
			l.Send(pkt())
		})
	})
	loop.After(time.Millisecond, func() {
		if got := losses(); got != 0 {
			t.Errorf("inside an event scheduled before the Send for the same instant: %d arrivals landed, want 0", got)
		}
	})
	loop.Run(time.Millisecond)
	if got := losses(); got != 2 {
		t.Errorf("after Run: %d arrivals landed, want 2", got)
	}
	l.Send(pkt()) // its event would wait for the next Run
	if got := losses(); got != 2 {
		t.Errorf("after a Send outside Run: %d arrivals landed, want 2", got)
	}
	loop.Run(time.Millisecond)
	if got := losses(); got != 3 {
		t.Errorf("after the next Run: %d arrivals landed, want 3", got)
	}

	// The queue accessors follow the same rule.
	loop.Reset()
	l.Reset(link.Config{
		Trace:            &trace.Trace{Name: "late", Opportunities: []time.Duration{time.Hour}},
		PropagationDelay: 2 * time.Millisecond,
	}, nil)
	l.Send(pkt())
	loop.After(time.Millisecond, func() { l.Send(pkt()) })
	loop.Run(2 * time.Millisecond)
	if b, n := l.QueueBytes(), l.QueueLen(); b != 100 || n != 1 {
		t.Errorf("at 2 ms: queue holds %d B in %d packets, want 100 B in 1 (the second lands at 3 ms)", b, n)
	}
	loop.Run(3 * time.Millisecond)
	if b, n := l.QueueBytes(), l.QueueLen(); b != 200 || n != 2 {
		t.Errorf("at 3 ms: queue holds %d B in %d packets, want 200 B in 2", b, n)
	}
}

// TestLinkSendSchedulesNoEvent is the time-free form of "a propagation
// delay is not an event": however many packets cross the link, the loop
// fires one event per delivery opportunity and nothing else.
func TestLinkSendSchedulesNoEvent(t *testing.T) {
	for _, prop := range []time.Duration{0, 5 * time.Millisecond} {
		loop := sim.New()
		var l *link.Link
		var opportunities, sent, delivered uint64
		ops := make([]time.Duration, 1000)
		for i := range ops {
			ops[i] = time.Duration(i+1) * time.Millisecond
		}
		l = link.New(loop, link.Config{Trace: &trace.Trace{Name: "ms", Opportunities: ops}, PropagationDelay: prop},
			func(*network.Packet) { delivered++ })
		// The sender needs no event of its own either: it sends from
		// the opportunity observer.
		l.OnOpportunity(func(time.Duration) {
			opportunities++
			for i := 0; i < 3; i++ {
				l.Send(&network.Packet{Size: 500})
				sent++
			}
		})
		loop.Run(600 * time.Millisecond)
		if delivered < 1000 || sent != 3*opportunities {
			t.Fatalf("prop %v: %d sent, %d delivered over %d opportunities", prop, sent, delivered, opportunities)
		}
		if got := loop.Fired(); got != opportunities {
			t.Errorf("prop %v: %d events fired for %d opportunities and %d packets; a packet costs no event",
				prop, got, opportunities, sent)
		}
		if got := loop.Pending(); got != 1 {
			t.Errorf("prop %v: %d events pending, want the next opportunity alone", prop, got)
		}
	}
}
