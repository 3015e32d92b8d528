package cell

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sprout/internal/network"
	"sprout/internal/sim"
)

// eventClock is a sim.Loop seen through sim.Clock alone. It is no
// Sequencer, so a Tower built on it schedules one After event per arrival
// — the schedule whose outputs the admit rule must reproduce. After
// consumes the sequence number Reserve would, so the two worlds tie
// identically.
type eventClock struct{ loop *sim.Loop }

func (c eventClock) Now() time.Duration                         { return c.loop.Now() }
func (c eventClock) After(d time.Duration, fn func()) sim.Timer { return c.loop.After(d, fn) }

// tieProc offers opportunities on integer milliseconds, some sharing one,
// about one per millisecond.
type tieProc struct {
	rng *rand.Rand
	at  time.Duration
}

func (p *tieProc) Next() (time.Duration, bool) {
	p.at += []time.Duration{0, 1, 1, 2}[p.rng.Intn(4)] * time.Millisecond
	return p.at, true
}

func (p *tieProc) Reset(seed int64) { p.rng, p.at = rand.New(rand.NewSource(seed)), 0 }

// tracedSched records every call the tower makes to its scheduler, so two
// worlds compare not only what was delivered but the order of Attach,
// Detach, Backlog edges, Opportunity, Pick and Grant that led to it.
type tracedSched struct {
	Scheduler
	log *[]string
}

func (s tracedSched) note(format string, args ...any) {
	*s.log = append(*s.log, fmt.Sprintf(format, args...))
}

func (s tracedSched) Attach(slot int) { s.note("sched attach %d", slot); s.Scheduler.Attach(slot) }
func (s tracedSched) Detach(slot int) { s.note("sched detach %d", slot); s.Scheduler.Detach(slot) }
func (s tracedSched) Backlog(slot int, on bool) {
	s.note("sched backlog %d %v", slot, on)
	s.Scheduler.Backlog(slot, on)
}
func (s tracedSched) Opportunity() { s.note("sched opportunity"); s.Scheduler.Opportunity() }
func (s tracedSched) Grant(slot, bytes int) {
	s.note("sched grant %d %d B", slot, bytes)
	s.Scheduler.Grant(slot, bytes)
}
func (s tracedSched) Pick() int {
	slot := s.Scheduler.Pick()
	s.note("sched pick %d", slot)
	return slot
}

// runTowerWorld drives one tower with seeded traffic built to tie — a
// sender ticking on the milliseconds the opportunities fall on, echoes
// sent from inside the delivery handler, handovers (Detach then Attach of
// a slot with packets queued and in flight), accessors read from events,
// between two Runs and after the last — and returns everything observable.
func runTowerWorld(sched Scheduler, prop time.Duration, seed int64, perArrivalEvents bool) (log []string, end towerEnd) {
	loop := sim.New()
	var clock sim.Clock = loop
	if perArrivalEvents {
		clock = eventClock{loop}
	}
	traffic := rand.New(rand.NewSource(seed))
	lossRand := rand.New(rand.NewSource(seed + 1))
	var pool network.Pool
	var tw *Tower
	var seq int64
	attached := map[int]bool{}

	send := func(slot, size int) {
		p := pool.Get()
		p.Flow, p.Size, p.Seq, p.SentAt = uint32(slot), size, seq, loop.Now()
		seq++
		tw.Send(slot, p)
	}
	reads := 0
	read := func(where string) {
		// Whichever accessor is asked first must do the admitting.
		first := -1
		if reads++; reads%2 == 1 {
			first = tw.QueueBytes(reads % tw.Slots())
		}
		loss, stale := tw.Drops()
		line := fmt.Sprintf("%s @%v: first %d, drops %d/%d, queues", where, loop.Now(), first, loss, stale)
		for s := 0; s < tw.Slots(); s++ {
			line += fmt.Sprint(" ", tw.QueueBytes(s))
		}
		log = append(log, line)
	}

	const sending = 700 * time.Millisecond
	tw = NewTower(clock, Config{
		Process:          &tieProc{},
		ProcessSeed:      seed + 2,
		PropagationDelay: prop,
		LossRate:         0.1,
		Rand:             lossRand,
		Scheduler:        tracedSched{sched, &log},
		Pool:             &pool,
	}, func(p *network.Packet) {
		log = append(log, fmt.Sprintf("deliver %d to %d sent %v enqueued %v at %v", p.Seq, p.Flow, p.SentAt, p.EnqueuedAt, loop.Now()))
		if slot := int(p.Flow); loop.Now() < sending && attached[slot] && traffic.Intn(8) == 0 {
			send(slot, 100) // with no propagation delay it lands at this very instant
		}
	})
	for i := 0; i < 6; i++ {
		attached[tw.Attach()] = true
	}

	sizes := []int{100, 700, network.MTU}
	var tick func()
	tick = func() {
		for n := traffic.Intn(6); n > 0; n-- { // 1.3 times what the cell carries
			if slot := traffic.Intn(tw.Slots()); attached[slot] {
				send(slot, sizes[traffic.Intn(len(sizes))])
			}
		}
		switch traffic.Intn(16) {
		case 0: // a user leaves with packets queued and in flight
			if slot := traffic.Intn(tw.Slots()); attached[slot] {
				tw.Detach(slot)
				delete(attached, slot)
				log = append(log, fmt.Sprintf("detach %d @%v", slot, loop.Now()))
			}
		case 1: // one arrives, onto the most recently vacated slot if any
			slot := tw.Attach()
			attached[slot] = true
			log = append(log, fmt.Sprintf("attach %d @%v", slot, loop.Now()))
		case 2, 3, 4:
			read("event")
		}
		if loop.Now() < sending {
			loop.After(time.Millisecond, tick)
		}
	}
	loop.After(0, tick)

	loop.Run(300 * time.Millisecond)
	read("after Run")
	for slot := range tw.Slots() {
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
		tw.DeliveredBytes(), tw.WastedOpportunities(), lossRand.Int63(), pool.InUse()))
	end.loss, end.stale = tw.Drops()
	end.live = pool.InUse()
	return log, end
}

// towerEnd is what a drained world is left with.
type towerEnd struct {
	loss, stale int64
	live        int
}

// TestTowerAdmitMatchesPerArrivalEvents: a tower that admits arrivals
// when its queues are next looked at is indistinguishable from one that
// schedules an event per arrival — same deliveries to the same slots at
// the same instants with the same EnqueuedAt, the scheduler told of the
// same Backlog edges between the same grants, same loss draws against
// the same packets, same stale drops around each handover, same accessor
// readings wherever they are taken.
func TestTowerAdmitMatchesPerArrivalEvents(t *testing.T) {
	cases := []struct {
		name  string
		sched func() Scheduler
		prop  time.Duration
	}{
		{"round-robin, no delay", func() Scheduler { return NewRoundRobin() }, 0},
		{"round-robin, 3 ms", func() Scheduler { return NewRoundRobin() }, 3 * time.Millisecond},
		{"proportional-fair, no delay", func() Scheduler { return NewPropFair(0) }, 0},
		{"proportional-fair, 2 ms", func() Scheduler { return NewPropFair(0) }, 2 * time.Millisecond},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stale int64
			for seed := int64(1); seed <= 4; seed++ {
				got, end := runTowerWorld(c.sched(), c.prop, seed, false)
				want, _ := runTowerWorld(c.sched(), c.prop, seed, true)
				for i := 0; i < len(got) && i < len(want); i++ {
					if got[i] != want[i] {
						t.Fatalf("seed %d, line %d:\n admit:       %s\n per-arrival: %s", seed, i, got[i], want[i])
					}
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d: %d log lines with admit, %d with per-arrival events", seed, len(got), len(want))
				}
				if end.live != 0 || end.loss == 0 || len(got) < 500 {
					t.Errorf("seed %d: %d log lines, %d lost, %d packets live after the drain; want a busy lossy cell and none live",
						seed, len(got), end.loss, end.live)
				}
				stale += end.stale
			}
			if stale == 0 {
				t.Error("no handover caught a packet in flight")
			}
		})
	}
}

// TestTowerAccessorsAdmitFirst pins what the accessors and the slot
// operations see with no propagation delay, where a packet's arrival is
// reserved for the very instant it is sent.
func TestTowerAccessorsAdmitFirst(t *testing.T) {
	loop := sim.New()
	tw := NewTower(loop, Config{
		Process:   &periodicProc{period: time.Hour},
		Scheduler: NewRoundRobin(),
	}, nil)
	slot := tw.Attach()
	pkt := func() *network.Packet { return &network.Packet{Size: 100} }

	loop.After(time.Millisecond, func() {
		tw.Send(slot, pkt())
		if got := tw.QueueBytes(slot); got != 0 {
			t.Errorf("inside the sending event: %d B landed, want 0", got)
		}
		loop.After(0, func() {
			if got := tw.QueueBytes(slot); got != 100 {
				t.Errorf("inside an event scheduled after the Send for the same instant: %d B landed, want 100", got)
			}
		})
	})
	loop.Run(time.Millisecond)
	tw.Send(slot, pkt()) // its event would wait for the next Run
	if got := tw.QueueBytes(slot); got != 100 {
		t.Errorf("after a Send outside Run: %d B landed, want 100", got)
	}
	loop.Run(time.Millisecond)
	if got := tw.QueueBytes(slot); got != 200 {
		t.Errorf("after the next Run: %d B landed, want 200", got)
	}

	// Detach flushes what has landed and strands what has not: of two
	// packets sent before it, the one whose event would have fired is
	// queued (and flushed), the other arrives stale.
	tw.Send(slot, pkt())
	loop.Run(time.Millisecond)
	tw.Send(slot, pkt())
	tw.Detach(slot)
	if got := tw.Attach(); got != slot {
		t.Fatalf("Attach = slot %d, want the vacated slot %d", got, slot)
	}
	loop.Run(2 * time.Millisecond)
	if _, stale := tw.Drops(); stale != 1 {
		t.Errorf("%d stale drops, want 1 (the packet still in flight at the Detach)", stale)
	}
	if got := tw.QueueBytes(slot); got != 0 {
		t.Errorf("the slot's next user inherited %d B", got)
	}
}

// TestTowerSendSchedulesNoEvent is the time-free form of "a propagation
// delay is not an event": however many packets cross the cell, the loop
// fires one event per delivery opportunity and nothing else.
func TestTowerSendSchedulesNoEvent(t *testing.T) {
	for _, prop := range []time.Duration{0, 5 * time.Millisecond} {
		loop := sim.New()
		var tw *Tower
		var opportunities, sent, delivered uint64
		tw = NewTower(loop, Config{
			Process:          &periodicProc{period: time.Millisecond},
			PropagationDelay: prop,
			Scheduler:        NewPropFair(0),
		}, func(*network.Packet) { delivered++ })
		slots := []int{tw.Attach(), tw.Attach(), tw.Attach()}
		// The sender needs no event of its own either: it sends from
		// the opportunity observer.
		tw.OnOpportunity(func(time.Duration) {
			opportunities++
			for _, s := range slots {
				tw.Send(s, &network.Packet{Flow: uint32(s), Size: 500})
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
