package link_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sprout/internal/cell"
	"sprout/internal/codel"
	"sprout/internal/link"
	"sprout/internal/network"
	"sprout/internal/sim"
	"sprout/internal/trace"
)

// The admit differential: a link of any slot count is driven on traffic
// built to tie, once admitting arrivals when the queues are next looked at
// and once with an event per arrival, and everything observable must
// match.

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

// admitCase is one link shape. A nil scheduler is the dedicated link, its
// traffic all through the standing slot; otherwise slots users attach, and
// leave and arrive with packets queued and in flight.
type admitCase struct {
	name      string
	prop      time.Duration
	loss      float64
	codel     bool
	scheduler func() link.Scheduler
	slots     int
}

// linkCases are the dedicated link's shapes: every traffic fate a one-slot
// link has (random loss, CoDel) with and without a propagation delay.
var linkCases = []admitCase{
	{name: "no delay, loss", loss: 0.2},
	{name: "3 ms, loss", prop: 3 * time.Millisecond, loss: 0.2},
	{name: "no delay, codel", codel: true},
	{name: "2 ms, codel, loss", prop: 2 * time.Millisecond, loss: 0.1, codel: true},
	{name: "1 ms, unbounded", prop: time.Millisecond},
}

func roundRobin() link.Scheduler { return cell.NewRoundRobin() }
func propFair() link.Scheduler   { return cell.NewPropFair(0) }

// towerCases are six-user lossy towers under both built-in schedulers,
// whose users leave and arrive with packets queued and in flight.
var towerCases = []admitCase{
	{name: "round-robin, no delay", scheduler: roundRobin, loss: 0.1, slots: 6},
	{name: "round-robin, 3 ms", scheduler: roundRobin, prop: 3 * time.Millisecond, loss: 0.1, slots: 6},
	{name: "proportional-fair, no delay", scheduler: propFair, loss: 0.1, slots: 6},
	{name: "proportional-fair, 2 ms", scheduler: propFair, prop: 2 * time.Millisecond, loss: 0.1, slots: 6},
}

// drained is what a drained world is left with.
type drained struct {
	loss, aqm, stale int64
	live             int
}

// driveLink drives one link with seeded traffic built to tie — a sender
// ticking on the milliseconds the opportunities fall on, echoes sent from
// inside the delivery handler, accessors read from events, between two
// Runs and after the last — and returns everything observable: each
// delivery with its EnqueuedAt, each scheduler call, each accessor
// reading, every counter, the loss generator's next draw and the pool's
// live count after the drain.
func driveLink(c admitCase, seed int64, perArrivalEvents bool) (log []string, end drained) {
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
	attached := map[int]bool{0: c.scheduler == nil}

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
		loss, aqm := l.Drops()
		// The 0 stands where the parent logged tail drops, so the
		// parentLinkLogs pins read the same bytes.
		line := fmt.Sprintf("%s @%v: first %d, drops %d/0/%d/%d, %d pkts at slot 0, queues",
			where, loop.Now(), first, loss, aqm, l.StaleDrops(), l.QueueLen())
		for s := 0; s < l.Slots(); s++ {
			line += fmt.Sprint(" ", l.SlotBytes(s))
		}
		log = append(log, line)
	}

	cfg := link.Config{
		Process:          &ties{},
		ProcessSeed:      seed + 2,
		PropagationDelay: c.prop,
		LossRate:         c.loss,
		Rand:             lossRand,
		Pool:             &pool,
	}
	if c.codel {
		cd := codel.New()
		cd.UsePool(&pool)
		cfg.Dequeuer = cd
	}
	if c.scheduler != nil {
		cfg.Scheduler = traced{c.scheduler(), &log}
	}
	const sending = 700 * time.Millisecond
	l = link.New(clock, cfg, func(p *network.Packet) {
		log = append(log, fmt.Sprintf("deliver %d to %d sent %v enqueued %v at %v", p.Seq, p.Flow, p.SentAt, p.EnqueuedAt, loop.Now()))
		if slot := int(p.Flow); loop.Now() < sending && attached[slot] && traffic.Intn(8) == 0 {
			send(slot, 100) // with no propagation delay it lands at this very instant
		}
	})
	for l.Slots() < c.slots {
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
		case c.scheduler == nil:
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
	end.loss, end.aqm = l.Drops()
	end.stale, end.live = l.StaleDrops(), pool.InUse()
	return log, end
}

// admitMatchesPerArrivalEvents: on each seed, a link that admits arrivals
// when its queues are next looked at is indistinguishable from one that
// schedules an event per arrival — same deliveries to the same slots at
// the same instants with the same EnqueuedAt, the scheduler told of the
// same Backlog edges between the same grants, same loss draws against the
// same packets, same CoDel and stale drops, same accessor readings
// wherever they are taken. The summed drops show that the traffic
// exercised each case.
func admitMatchesPerArrivalEvents(t *testing.T, cases []admitCase) {
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seeds := int64(8)
			if c.scheduler != nil {
				seeds = 4
			}
			var sum drained
			for seed := int64(1); seed <= seeds; seed++ {
				got, end := driveLink(c, seed, false)
				want, _ := driveLink(c, seed, true)
				for i := 0; i < len(got) && i < len(want); i++ {
					if got[i] != want[i] {
						t.Fatalf("seed %d, line %d:\n admit:       %s\n per-arrival: %s", seed, i, got[i], want[i])
					}
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d: %d log lines with admit, %d with per-arrival events", seed, len(got), len(want))
				}
				if end.live != 0 || len(got) < 500 {
					t.Errorf("seed %d: %d log lines, %d packets live after the drain; want a busy link and none", seed, len(got), end.live)
				}
				sum.loss, sum.aqm, sum.stale = sum.loss+end.loss, sum.aqm+end.aqm, sum.stale+end.stale
			}
			if (sum.loss > 0) != (c.loss > 0) || (sum.aqm > 0) != c.codel || (sum.stale > 0) != (c.scheduler != nil) {
				t.Errorf("traffic did not exercise the case: %+v", sum)
			}
		})
	}
}

// TestLinkAdmitMatchesPerArrivalEvents runs the differential on the
// dedicated link's shapes.
func TestLinkAdmitMatchesPerArrivalEvents(t *testing.T) {
	admitMatchesPerArrivalEvents(t, linkCases)
}

// TestTowerAdmitMatchesPerArrivalEvents runs it on towers whose users
// leave and arrive with packets queued and in flight.
func TestTowerAdmitMatchesPerArrivalEvents(t *testing.T) {
	admitMatchesPerArrivalEvents(t, towerCases)
}

// accessorsAdmitFirst pins what the accessors and the slot operations see
// on a link with no propagation delay, where a packet's arrival is
// reserved for the very instant it is sent: not an arrival whose event
// would still be waiting behind the one now firing, and every arrival up
// to the horizon once Run has returned. sched nil is the dedicated link.
func accessorsAdmitFirst(t *testing.T, sched link.Scheduler) {
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
		loss, _ := l.Drops()
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

func TestLinkAccessorsAdmitFirst(t *testing.T)  { accessorsAdmitFirst(t, nil) }
func TestTowerAccessorsAdmitFirst(t *testing.T) { accessorsAdmitFirst(t, roundRobin()) }

// sendSchedulesNoEvent is the time-free form of "a propagation delay is
// not an event": however many packets cross the link, to however many
// slots, the loop fires one event per delivery opportunity and nothing
// else. sched nil is the dedicated link.
func sendSchedulesNoEvent(t *testing.T, sched func() link.Scheduler, slots int) {
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

func TestLinkSendSchedulesNoEvent(t *testing.T)  { sendSchedulesNoEvent(t, nil, 1) }
func TestTowerSendSchedulesNoEvent(t *testing.T) { sendSchedulesNoEvent(t, propFair, 3) }

// parentLinkLogs pins, per case, the SHA-256 of the driver's log over
// seeds 1 to 8 as the dedicated Link produced it before it and the tower
// became one type (commit acc6156, the same driver calling Send,
// QueueBytes and QueueLen). The two loss-only cases have no pin: that
// commit ran them behind a tail-drop bound the link no longer has.
var parentLinkLogs = map[string]string{
	"no delay, codel":   "04dae31cc89afa8dc0f7256dfc104836de71c25e0fd8e10320d08b88921d6039",
	"2 ms, codel, loss": "99de711624fb741b5994b691d223a263d99f7eb24bffb76c17bc82ed85667070",
	"1 ms, unbounded":   "739ca0827142206a9ff696da7842ff00b28e7d8122aeead0f1e6521e92060c00",
}

// TestLinkLogMatchesParent: the one-slot case of the shared queue core —
// standing slot, round-robin Pick/Grant loop — leaves the log the
// dedicated Link left on the same traffic: every delivery with its
// EnqueuedAt, every accessor reading and counter, the next loss draw and
// the pool's live count after the drain.
func TestLinkLogMatchesParent(t *testing.T) {
	for _, c := range linkCases {
		want, ok := parentLinkLogs[c.name]
		if !ok {
			continue
		}
		h := sha256.New()
		for seed := int64(1); seed <= 8; seed++ {
			log, _ := driveLink(c, seed, false)
			h.Write([]byte(strings.Join(log, "\n")))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%s: log hash %s, want the parent's %s", c.name, got, want)
		}
	}
}
