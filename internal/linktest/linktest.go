// Package linktest is the one differential driver behind the link and
// tower admit tests: it runs a link.Link of any slot count on traffic
// built to tie, once admitting arrivals when the queues are next looked at
// and once with an event per arrival, and returns everything observable.
package linktest

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
// Sequencer, so a link built on it schedules one After event per arrival —
// the schedule whose outputs the admit rule must reproduce. After consumes
// the sequence number Reserve would, so the two worlds tie identically.
type eventClock struct{ loop *sim.Loop }

func (c eventClock) Now() time.Duration                         { return c.loop.Now() }
func (c eventClock) After(d time.Duration, fn func()) sim.Timer { return c.loop.After(d, fn) }

// ties offers opportunities on integer milliseconds, some sharing one,
// about one per millisecond.
type ties struct {
	rng *rand.Rand
	at  time.Duration
}

func (p *ties) Next() (time.Duration, bool) {
	p.at += []time.Duration{0, 1, 1, 2}[p.rng.Intn(4)] * time.Millisecond
	return p.at, true
}

func (p *ties) Reset(seed int64) { p.rng, p.at = rand.New(rand.NewSource(seed)), 0 }

// traced records every call the link makes to its scheduler, so two worlds
// compare not only what was delivered but the order of Attach, Detach,
// Backlog edges, Opportunity, Pick and Grant that led to it.
type traced struct {
	link.Scheduler
	log *[]string
}

func (s traced) note(format string, args ...any) {
	*s.log = append(*s.log, fmt.Sprintf(format, args...))
}

func (s traced) Attach(slot int) { s.note("sched attach %d", slot); s.Scheduler.Attach(slot) }
func (s traced) Detach(slot int) { s.note("sched detach %d", slot); s.Scheduler.Detach(slot) }
func (s traced) Backlog(slot int, on bool) {
	s.note("sched backlog %d %v", slot, on)
	s.Scheduler.Backlog(slot, on)
}
func (s traced) Opportunity() { s.note("sched opportunity"); s.Scheduler.Opportunity() }
func (s traced) Grant(slot, bytes int) {
	s.note("sched grant %d %d B", slot, bytes)
	s.Scheduler.Grant(slot, bytes)
}
func (s traced) Pick() int {
	slot := s.Scheduler.Pick()
	s.note("sched pick %d", slot)
	return slot
}

// Case is one link shape. A nil Scheduler is the dedicated link, its
// traffic all through the standing slot; otherwise Slots users attach, and
// leave and arrive with packets queued and in flight.
type Case struct {
	Name      string
	Prop      time.Duration
	Loss      float64
	Bound     int
	CoDel     bool
	Scheduler func() link.Scheduler
	Slots     int
}

// End is what a drained world is left with.
type End struct {
	Loss, Tail, AQM, Stale int64
	Live                   int
}

// Run drives one link with seeded traffic built to tie — a sender ticking
// on the milliseconds the opportunities fall on, echoes sent from inside
// the delivery handler, accessors read from events, between two Runs and
// after the last — and returns everything observable: each delivery with
// its EnqueuedAt, each scheduler call, each accessor reading, every
// counter, the loss generator's next draw and the pool's live count after
// the drain.
func Run(c Case, seed int64, perArrivalEvents bool) (log []string, end End) {
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
	attached := map[int]bool{0: c.Scheduler == nil}

	send := func(slot, size int) {
		p := pool.Get()
		p.Flow, p.Size, p.Seq, p.SentAt = uint32(slot), size, seq, loop.Now()
		seq++
		l.SendTo(slot, p)
	}
	reads := 0
	read := func(where string) {
		// Whichever accessor is asked first must do the admitting.
		first := -1
		switch reads++; reads % 4 {
		case 1:
			first = l.SlotBytes(reads % l.Slots())
		case 2:
			first = l.QueueLen()
		case 3:
			first = int(l.StaleDrops())
		}
		loss, tail, aqm := l.Drops()
		line := fmt.Sprintf("%s @%v: first %d, drops %d/%d/%d/%d, %d pkts at slot 0, queues",
			where, loop.Now(), first, loss, tail, aqm, l.StaleDrops(), l.QueueLen())
		for s := 0; s < l.Slots(); s++ {
			line += fmt.Sprint(" ", l.SlotBytes(s))
		}
		log = append(log, line)
	}

	cfg := link.Config{
		Process:          &ties{},
		ProcessSeed:      seed + 2,
		PropagationDelay: c.Prop,
		LossRate:         c.Loss,
		Rand:             lossRand,
		QueueBytes:       c.Bound,
		Pool:             &pool,
	}
	if c.CoDel {
		cd := codel.New()
		cd.UsePool(&pool)
		cfg.Dequeuer = cd
	}
	if c.Scheduler != nil {
		cfg.Scheduler = traced{c.Scheduler(), &log}
	}
	const sending = 700 * time.Millisecond
	l = link.New(clock, cfg, func(p *network.Packet) {
		log = append(log, fmt.Sprintf("deliver %d to %d sent %v enqueued %v at %v", p.Seq, p.Flow, p.SentAt, p.EnqueuedAt, loop.Now()))
		if slot := int(p.Flow); loop.Now() < sending && attached[slot] && traffic.Intn(8) == 0 {
			send(slot, 100) // with no propagation delay it lands at this very instant
		}
	})
	for l.Slots() < c.Slots {
		attached[l.Attach()] = true
	}

	sizes := []int{100, 700, network.MTU}
	var tick func()
	tick = func() {
		for n := traffic.Intn(6); n > 0; n-- { // 1.3 times what the link carries
			if slot := traffic.Intn(l.Slots()); attached[slot] {
				send(slot, sizes[traffic.Intn(len(sizes))])
			}
		}
		switch r := traffic.Intn(16); {
		case r >= 12:
			read("event")
		case c.Scheduler == nil:
		case r == 0: // a user leaves with packets queued and in flight
			if slot := traffic.Intn(l.Slots()); attached[slot] {
				l.Detach(slot)
				attached[slot] = false
				log = append(log, fmt.Sprintf("detach %d @%v", slot, loop.Now()))
			}
		case r == 1: // one arrives, onto the most recently vacated slot if any
			slot := l.Attach()
			attached[slot] = true
			log = append(log, fmt.Sprintf("attach %d @%v", slot, loop.Now()))
		}
		if loop.Now() < sending {
			loop.After(time.Millisecond, tick)
		}
	}
	loop.After(0, tick)

	loop.Run(300 * time.Millisecond)
	read("after Run")
	for slot := 0; slot < l.Slots(); slot++ {
		if attached[slot] {
			send(slot, 700) // taken outside any event: lands in the next Run at the earliest
		}
	}
	read("after Send")
	loop.Run(300 * time.Millisecond)
	read("after Run again")
	loop.Run(20 * time.Second) // long past the last packet
	read("drained")
	log = append(log, fmt.Sprintf("delivered %d B, wasted %d, next loss draw %d, %d packets live",
		l.DeliveredBytes(), l.WastedOpportunities(), lossRand.Int63(), pool.InUse()))
	end.Loss, end.Tail, end.AQM = l.Drops()
	end.Stale, end.Live = l.StaleDrops(), pool.InUse()
	return log, end
}

// AdmitMatchesPerArrivalEvents fails t unless, on each seed, the case's
// link is indistinguishable from one that schedules an event per arrival:
// same deliveries to the same slots at the same instants with the same
// EnqueuedAt, the scheduler told of the same Backlog edges between the
// same grants, same loss draws against the same packets, same tail, CoDel
// and stale drops, same accessor readings wherever they are taken. It
// returns what the drained worlds were left with, summed over the seeds.
func AdmitMatchesPerArrivalEvents(t *testing.T, c Case, seeds int64) (sum End) {
	for seed := int64(1); seed <= seeds; seed++ {
		got, end := Run(c, seed, false)
		want, _ := Run(c, seed, true)
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Fatalf("seed %d, line %d:\n admit:       %s\n per-arrival: %s", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines with admit, %d with per-arrival events", seed, len(got), len(want))
		}
		if end.Live != 0 || len(got) < 500 {
			t.Errorf("seed %d: %d log lines, %d packets live after the drain; want a busy link and none", seed, len(got), end.Live)
		}
		sum.Loss, sum.Tail, sum.AQM, sum.Stale = sum.Loss+end.Loss, sum.Tail+end.Tail, sum.AQM+end.AQM, sum.Stale+end.Stale
	}
	return sum
}

// AccessorsAdmitFirst pins what the accessors and the slot operations see
// on a link with no propagation delay, where a packet's arrival is
// reserved for the very instant it is sent: not an arrival whose event
// would still be waiting behind the one now firing, and every arrival up
// to the horizon once Run has returned. sched nil is the dedicated link.
func AccessorsAdmitFirst(t *testing.T, sched link.Scheduler) {
	late := &trace.Trace{Name: "late", Opportunities: []time.Duration{time.Hour}}
	loop := sim.New()
	l := link.New(loop, link.Config{
		Trace:     late,
		LossRate:  1, // every arrival is a loss the moment it lands
		Rand:      rand.New(rand.NewSource(1)),
		Scheduler: sched,
	}, nil)
	slot := 0
	if sched != nil {
		slot = l.Attach()
	}
	losses := func() int64 {
		loss, _, _ := l.Drops()
		return loss
	}
	send := func() { l.SendTo(slot, &network.Packet{Size: 100}) }

	loop.After(time.Millisecond, func() {
		send()
		if got := losses(); got != 0 {
			t.Errorf("inside the sending event: %d arrivals landed, want 0", got)
		}
		loop.After(0, func() {
			if got := losses(); got != 1 {
				t.Errorf("inside an event scheduled after the Send for the same instant: %d arrivals landed, want 1", got)
			}
			send()
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
	send() // its event would wait for the next Run
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
		Trace:            late,
		PropagationDelay: 2 * time.Millisecond,
		Scheduler:        sched,
	}, nil)
	if sched != nil {
		slot = l.Attach()
	}
	send()
	loop.After(time.Millisecond, send)
	loop.Run(2 * time.Millisecond)
	if b, n := l.SlotBytes(slot), l.QueueLen(); b != 100 || n != 1 {
		t.Errorf("at 2 ms: queue holds %d B in %d packets, want 100 B in 1 (the second lands at 3 ms)", b, n)
	}
	loop.Run(3 * time.Millisecond)
	if b, n := l.SlotBytes(slot), l.QueueLen(); b != 200 || n != 2 {
		t.Errorf("at 3 ms: queue holds %d B in %d packets, want 200 B in 2", b, n)
	}

	// Detach flushes what has landed and strands what has not: of two
	// packets sent before it, the one whose event would have fired is
	// queued (and flushed), the other arrives stale.
	send()
	loop.Run(5 * time.Millisecond)
	send()
	l.Detach(slot)
	if got := l.Attach(); got != slot {
		t.Fatalf("Attach = slot %d, want the vacated slot %d", got, slot)
	}
	loop.Run(10 * time.Millisecond)
	if got := l.StaleDrops(); got != 1 {
		t.Errorf("%d stale drops, want 1 (the packet still in flight at the Detach)", got)
	}
	if got := l.SlotBytes(slot); got != 0 {
		t.Errorf("the slot's next user inherited %d B", got)
	}
}

// SendSchedulesNoEvent is the time-free form of "a propagation delay is
// not an event": however many packets cross the link, to however many
// slots, the loop fires one event per delivery opportunity and nothing
// else. sched nil is the dedicated link.
func SendSchedulesNoEvent(t *testing.T, sched func() link.Scheduler, slots int) {
	ops := make([]time.Duration, 1000)
	for i := range ops {
		ops[i] = time.Duration(i+1) * time.Millisecond
	}
	for _, prop := range []time.Duration{0, 5 * time.Millisecond} {
		loop := sim.New()
		var opportunities, sent, delivered uint64
		cfg := link.Config{Trace: &trace.Trace{Name: "ms", Opportunities: ops}, PropagationDelay: prop}
		if sched != nil {
			cfg.Scheduler = sched()
		}
		l := link.New(loop, cfg, func(*network.Packet) { delivered++ })
		for l.Slots() < slots {
			l.Attach()
		}
		// The sender needs no event of its own either: it sends from
		// the opportunity observer.
		l.OnOpportunity(func(time.Duration) {
			opportunities++
			for i := 0; i < 3; i++ {
				l.SendTo(i%slots, &network.Packet{Size: 500})
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
