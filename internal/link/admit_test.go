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
// Sequencer, so a link built on it schedules one After event per arrival
// and fires every opportunity — the schedule whose outputs the
// admit rule and the skipping of idle opportunities must reproduce. After
// schedules at the priority Reserve gives (an arrival, class 0), and the
// opportunities keep the link's rank, so the two worlds tie identically.
type eventClock struct{ loop *sim.Loop }

func (c eventClock) Now() time.Duration { return c.loop.Now() }
func (c eventClock) After(d time.Duration, fn func()) sim.Timer {
	return c.loop.RescheduleAt(sim.Timer{}, c.loop.Reserve(d), fn)
}
func (c eventClock) Reschedule(t sim.Timer, d time.Duration, fn func()) sim.Timer {
	return c.loop.Reschedule(t, d, fn)
}
func (c eventClock) NewRank() uint32 { return c.loop.NewRank() }
func (c eventClock) RescheduleAt(t sim.Timer, r sim.Reservation, fn func()) sim.Timer {
	return c.loop.RescheduleAt(t, r, fn)
}

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
		cfg.Dequeuer = codel.New(&pool)
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
// slots, the loop fires at most one event per delivery opportunity and
// nothing else — exactly one on a tower, which fires every opportunity; at
// least one per opportunity that delivered on a dedicated link, which
// passes over the ones it can see are wasted. The sender needs no event of
// its own: it keeps a window of packets per slot and sends the next one
// from the delivery handler (not from the opportunity observer, which a
// dedicated link calls ahead of the clock). sched nil is the dedicated
// link.
func sendSchedulesNoEvent(t *testing.T, sched func() link.Scheduler, slots int) {
	ops := make([]time.Duration, 1000)
	for i := range ops {
		ops[i] = time.Duration(i+1) * time.Millisecond
	}
	for _, prop := range []time.Duration{0, 5 * time.Millisecond} {
		loop := sim.New()
		var opportunities, busy, sent, delivered uint64
		var l *link.Link
		send := func(slot int) {
			l.SendTo(slot, &network.Packet{Flow: uint32(slot), Size: 500})
			sent++
		}
		cfg := link.Config{Trace: &trace.Trace{Name: "ms", Opportunities: ops}, PropagationDelay: prop}
		if sched != nil {
			cfg.Scheduler = sched()
		}
		last := time.Duration(-1)
		l = link.New(loop, cfg, func(p *network.Packet) {
			delivered++
			if now := loop.Now(); now != last {
				busy, last = busy+1, now
			}
			send(int(p.Flow))
		})
		for l.Slots() < slots {
			l.Attach()
		}
		l.OnOpportunity(func(time.Duration) { opportunities++ })
		for i := 0; i < 12*slots; i++ {
			send(i % slots)
		}
		loop.Run(600 * time.Millisecond)
		if delivered < 1000 {
			t.Fatalf("prop %v: %d sent, %d delivered over %d opportunities", prop, sent, delivered, opportunities)
		}
		if got := loop.Fired(); got > opportunities || got < busy || sched != nil && got != opportunities {
			t.Errorf("prop %v: %d events fired for %d opportunities (%d of them delivering) and %d packets; a packet costs no event",
				prop, got, opportunities, busy, sent)
		}
		if got := loop.Pending(); got != 1 {
			t.Errorf("prop %v: %d events pending, want the next opportunity alone", prop, got)
		}
	}
}

func TestLinkSendSchedulesNoEvent(t *testing.T)  { sendSchedulesNoEvent(t, nil, 1) }
func TestTowerSendSchedulesNoEvent(t *testing.T) { sendSchedulesNoEvent(t, propFair, 3) }

// parentLinkLogs pins, per case, the SHA-256 of the driver's log over
// seeds 1 to 8 (every delivery with its EnqueuedAt, every accessor reading
// and counter, the next loss draw and the pool's live count after the
// drain). The dedicated Link first pinned them before it and the tower
// became one type (commit acc6156, the same driver calling Send,
// QueueBytes and QueueLen); they were re-pinned when an instant's events
// came to be ordered by class (DESIGN.md §2): where the sender's tick ties
// with an opportunity, the opportunity now fires first, whichever was
// armed first. The first tied instant whose lines moved is 1–7 ms into
// every seed, and the traffic generator the delivery handler shares with
// the tick carries the difference to every later line. The two loss-only
// cases have no pin: acc6156 ran them behind a tail-drop bound the link no
// longer has.
var parentLinkLogs = map[string]string{
	"no delay, codel":   "d26412f11b6ecfd05a71dae83edcd2ac6f6e706a428fb57583e2a02549a49ca8",
	"2 ms, codel, loss": "58eec62bd1941ff4ecc4ee97c68f048d5dba85b6c7d8993b2ba11b8386c1890d",
	"1 ms, unbounded":   "41eefa09a99c9b132d223e0b090d228d1100bfc1d7d90a66c4cb7843f242f5d9",
}

// TestLinkLogMatchesParent: the one-slot case of the shared queue core —
// standing slot, round-robin Pick/Grant loop, idle opportunities skipped —
// leaves the pinned log on the same traffic.
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

// countingSource counts the draws a rand.Rand takes from it.
type countingSource struct {
	rand.Source
	draws int
}

func (s *countingSource) Int63() int64 { s.draws++; return s.Source.Int63() }

// TestStaleArrivalsDrawNoLoss: on a lossy link, an arrival at a slot that
// was detached while it was in flight is dropped as stale before any loss
// draw, so it takes no randomness and the loss stream the slot's next user
// sees does not depend on what was in flight at the Detach. Then a packet
// that lands on the reattached slot takes exactly one draw.
func TestStaleArrivalsDrawNoLoss(t *testing.T) {
	ops := make([]time.Duration, 100)
	for i := range ops {
		ops[i] = time.Duration(i+1) * time.Millisecond
	}
	for _, sched := range []link.Scheduler{nil, roundRobin()} {
		name := "dedicated"
		if sched != nil {
			name = "tower"
		}
		src := &countingSource{Source: rand.NewSource(1)}
		loop := sim.New()
		l := link.New(loop, link.Config{
			Trace:            &trace.Trace{Name: "steady", Opportunities: ops},
			PropagationDelay: 10 * time.Millisecond,
			LossRate:         0.5,
			Rand:             rand.New(src),
			Scheduler:        sched,
		}, nil)
		slot := 0
		if sched != nil {
			slot = l.Attach()
		}
		for i := 0; i < 10; i++ {
			l.SendTo(slot, &network.Packet{Seq: int64(i), Size: 100})
		}
		l.Detach(slot)
		if got := l.Attach(); got != slot {
			t.Fatalf("%s: Attach = slot %d, want the vacated slot %d", name, got, slot)
		}
		loop.Run(30 * time.Millisecond)
		if got := l.StaleDrops(); got != 10 {
			t.Errorf("%s: %d stale drops, want the 10 packets in flight at the Detach", name, got)
		}
		if src.draws != 0 {
			t.Errorf("%s: stale arrivals took %d loss draws, want none", name, src.draws)
		}
		l.SendTo(slot, &network.Packet{Seq: 10, Size: 100})
		loop.Run(60 * time.Millisecond)
		if src.draws != 1 {
			t.Errorf("%s: a live arrival took %d loss draws, want 1", name, src.draws)
		}
	}
}

// TestIdleLinkFiresOncePerDelay: a dedicated link with nothing to carry
// fires about one event per propagation delay, not one per opportunity —
// each wasted opportunity passes over every later one before the earliest
// instant a packet sent from then on could land — and WastedOpportunities
// counts what the per-opportunity reference counts wherever it is read:
// between Runs whose horizons fall among the skipped opportunities, and
// from events on every millisecond, which tie with them — events of the
// class after the opportunities' (At) and of the class before (events at
// reservations), which must not count an opportunity of their instant.
func TestIdleLinkFiresOncePerDelay(t *testing.T) {
	const idle, prop = 10 * time.Second, 20 * time.Millisecond
	const none, after, before = 0, 1, 2
	run := func(perOpportunity bool, probe int) (fired uint64, wasted []int64) {
		loop := sim.New()
		var clock sim.Clock = loop
		if perOpportunity {
			clock = eventClock{loop}
		}
		l := link.New(clock, link.Config{Process: &ties{}, ProcessSeed: 1, PropagationDelay: prop}, nil)
		var tick func()
		next := func(d time.Duration) {
			if probe == after {
				loop.After(d, tick)
			} else {
				loop.RescheduleAt(sim.Timer{}, loop.Reserve(d), tick)
			}
		}
		tick = func() {
			wasted = append(wasted, l.WastedOpportunities())
			next(time.Millisecond)
		}
		if probe != none {
			next(time.Millisecond)
		}
		for at := time.Duration(0); at < idle; at += 7 * time.Millisecond {
			loop.Run(at)
			wasted = append(wasted, l.WastedOpportunities())
		}
		loop.Run(idle)
		return loop.Fired(), append(wasted, l.WastedOpportunities())
	}
	fired, got := run(false, none)
	if limit := uint64((idle+prop-1)/prop) + 1; fired > limit {
		t.Errorf("an idle link fired %d events over %v at %v delay, want at most %d", fired, idle, prop, limit)
	}
	all, want := run(true, none)
	if n := want[len(want)-1]; n != int64(all) || n < 9000 {
		t.Fatalf("the reference wasted %d of %d opportunities; want every one of thousands", n, all)
	}
	for _, probe := range []int{none, after, before} {
		if probe != none {
			_, got = run(false, probe)
			_, want = run(true, probe)
		}
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("probe %d, reading %d: %d wasted opportunities, the reference %d", probe, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("probe %d: %d readings, the reference %d", probe, len(got), len(want))
		}
	}
	t.Logf("%d events for %d opportunities", fired, all)
}
