// Package link emulates one direction of a cellular access link, faithfully
// implementing the Cellsim semantics of the paper (§4.2):
//
//   - each arriving packet is delayed by the propagation delay, then
//     appended to the tail of a FIFO queue;
//   - the queue drains only at delivery opportunities — recorded in a
//     trace or pulled on demand from a streaming trace.DeliveryProcess —
//     each worth MTU (1500) bytes with per-byte accounting
//     (footnote 6: fifteen 100-byte packets leave on one opportunity);
//   - an opportunity that finds the queue empty is wasted;
//   - optionally, arriving packets are dropped with a fixed probability
//     (the stochastic-loss mode of §5.6), or the queue is governed by an
//     AQM such as CoDel consulted at dequeue time (§5.4).
//
// A base station keeps one such queue per user (§2.1) and apportions the
// shared opportunities among them. That is the same mechanism with more
// slots, so it is the same type: a Link holds one FIFO per attached slot
// and asks a Scheduler which backlogged slot each opportunity serves. The
// dedicated link of Cellsim is the one-slot case.
package link

import (
	"fmt"
	"math/rand"
	"time"

	"sprout/internal/network"
	"sprout/internal/sim"
	"sprout/internal/trace"
)

// Dequeuer selects the next packet to transmit from a slot's queue.
// Implementations may drop packets by popping and discarding them (CoDel
// drops at the head); one that does releases each discarded packet to the
// link's pool, since it is the one taking it out of the network. Without
// one the queue drains in plain FIFO order. A Dequeuer that keeps per-queue state, as
// CoDel does, governs a one-slot link only.
type Dequeuer interface {
	// Next pops the next packet to transmit, or returns nil once the
	// queue is empty. now is the current virtual time.
	Next(now time.Duration, q *FIFO) *network.Packet
}

// Delivery records one packet delivered by the link, for metrics.
type Delivery struct {
	SentAt      time.Duration
	DeliveredAt time.Duration
	Size        int
	Seq         int64
	Flow        uint32
}

// Config parameterizes a Link.
type Config struct {
	// Trace supplies the delivery opportunities from a materialized
	// recording. If the experiment outlasts the trace, the trace repeats
	// from its start (mahimahi behaviour). Exactly one of Trace and
	// Process must be set.
	Trace *trace.Trace
	// Process supplies delivery opportunities on demand instead of from a
	// materialized trace: the link pulls the next opportunity only when it
	// needs to schedule it, so runs of any duration hold O(1) trace state.
	// The link Resets the process with ProcessSeed at New/Reset time, so a
	// reused process instance honours the world-reuse determinism
	// contract. The process must emit nondecreasing times and must not be
	// shared between links.
	Process trace.DeliveryProcess
	// ProcessSeed seeds Process at New/Reset; ignored for Trace configs.
	ProcessSeed int64
	// PropagationDelay is applied to each packet before it joins its
	// slot's queue. The paper measures ≈20 ms each way on its cellular
	// paths.
	PropagationDelay time.Duration
	// LossRate, if positive, drops each arriving packet with this
	// probability before it joins the queue (§5.6).
	LossRate float64
	// Dequeuer selects packets at transmission time; nil means plain FIFO
	// order with no AQM.
	Dequeuer Dequeuer
	// Scheduler apportions the opportunities among slots claimed with
	// Attach (a shared cell). Nil means the dedicated link: one standing
	// slot, attached at New/Reset, that Send feeds.
	Scheduler Scheduler
	// Rand is the randomness source for loss; required if LossRate > 0.
	Rand *rand.Rand
	// Pool, if non-nil, is the arena the link's packets came from. The
	// link releases each packet when it leaves the network — after the
	// delivery handler returns, where it is dropped (random loss or
	// arrival at a slot detached mid-flight), or when Detach
	// flushes a vacated slot's queue — so the handler must not keep the
	// packet or its payload. An AQM Dequeuer releases its own drops.
	// Reset releases nothing: Pool.Reset reclaims the arena at the world
	// boundary.
	Pool *network.Pool
}

// userSlot is one user's queue: the FIFO, the packet mid-transmission across
// opportunities (per-byte accounting, held inline so partial
// transmissions do not allocate), and the generation in-flight arrivals
// are checked against.
type userSlot struct {
	queue  FIFO
	txPkt  *network.Packet // nil when no transmission is in progress
	txSent int             // bytes of txPkt already transmitted
	gen    uint32          // bumped at Detach
}

func (s *userSlot) backlogged() bool { return s.txPkt != nil || s.queue.Len() > 0 }

// bytes is the slot's occupancy, including a partially transmitted
// packet's untransmitted remainder.
func (s *userSlot) bytes() int {
	b := s.queue.Bytes()
	if s.txPkt != nil {
		b += s.txPkt.Size - s.txSent
	}
	return b
}

// Link is one direction of an emulated cellular path: per-slot FIFO
// queues drained by a single delivery-opportunity schedule. All per-slot
// state lives in one flat array indexed by slot — no per-flow goroutines,
// timers or heap nodes.
type Link struct {
	cfg      Config
	clock    sim.Clock
	sched    Scheduler
	standing standing // the scheduler of a link configured without one
	deliver  network.Handler

	// proc is the active opportunity source. Trace configs stream through
	// the retained Loop(Replay) below — the same mahimahi wrap semantics
	// the link used to implement against Trace.Opportunities indices, now
	// expressed as a composable trace.DeliveryProcess — so Reset allocates
	// nothing and both config forms share one scheduling path.
	proc   trace.DeliveryProcess
	replay trace.Replay
	looped *trace.Loop

	slots      []userSlot // slots[:nslots] have been attached at least once
	nslots     int
	free       []int32 // detached slots available for reuse, LIFO
	backlogged int     // how many slots are backlogged

	// The propagation delay is constant, so packets emerge from it in the
	// order they were submitted, and the queues they join drain only at
	// opportunities: nothing can tell when, between two looks at the
	// queues, an arrival joined one. On a loop, live or virtual, a packet in
	// flight is therefore not an event. Send reserves the (time, key)
	// priority its arrival event would have had and parks the packet in a
	// ring; admit, run before anything reads or changes slot or scheduler
	// state, moves in every packet whose reservation has passed — the same
	// packets, in the same order, against the same state as one event per
	// packet, so experiment outputs are byte-identical (DESIGN.md §3.3).
	seqr     sim.Sequencer // nil on the reference clocks: one After per packet
	arrivals ring[arrival]

	// Opportunities are keyed by the link's rank, not by when they were
	// armed (DESIGN.md §2), so a dedicated link with nothing to serve can
	// pass over every opportunity before the earliest instant a packet
	// could land without moving any event's place: skipIdle counts them
	// wasted, and WastedOpportunities counts those the loop has reached.
	rank    uint32
	batch   bool            // dedicated link on a Sequencer
	skipped []time.Duration // passed over since the last opportunity fired

	opTimer sim.Timer
	opFn    func() // built once for the delivery-opportunity schedule

	// Telemetry.
	deliveries    []Delivery
	recordLog     bool
	onDelivery    func(Delivery)         // streaming observer; see OnDelivery
	onOpportunity func(at time.Duration) // see OnOpportunity
	delivered     int64                  // bytes
	dropsLoss     int64                  // packets dropped by random loss
	dropsAQM      int64                  // packets dropped by the AQM
	dropsStale    int64                  // arrivals whose slot was detached mid-flight
	wasted        int64                  // opportunities that found no backlog
}

// arrival is one packet in flight across the propagation delay.
type arrival struct {
	res  sim.Reservation
	pkt  *network.Packet
	slot int32
	gen  uint32
}

// New creates a link on the given clock and starts its delivery schedule.
// deliver is invoked, at the instant each packet fully crosses the link,
// with the delivered packet; on a shared link the caller demuxes on the
// packet's flow id. The clock is a sim.Loop, virtual or paced by the wall
// clock (internal/realtime); a clock that is no sim.Sequencer makes the
// link schedule one event per arrival and fire every opportunity, which
// is what the tests' reference clocks are for.
func New(clock sim.Clock, cfg Config, deliver network.Handler) *Link {
	l := &Link{clock: clock, rank: clock.NewRank()}
	l.seqr, _ = clock.(sim.Sequencer)
	l.opFn = l.opportunity
	l.Reset(cfg, deliver)
	return l
}

// Reset re-arms the link for a fresh run on the same clock: the new config
// and delivery handler replace the old, every slot, queue, counter and log
// is cleared, and the delivery schedule restarts from the source's first
// opportunity — all without freeing the retained rings, slot array and log
// capacity. Packets still queued or in flight are forgotten, not released
// to the pool: Pool.Reset reclaims them at the same boundary.
// It must be called at a world boundary, after the clock itself has been
// reset (or while no link event is pending): a reset link then behaves
// byte-identically to one freshly built with New.
func (l *Link) Reset(cfg Config, deliver network.Handler) {
	switch {
	case cfg.Trace != nil && cfg.Process != nil:
		panic("link: config requires exactly one of Trace and Process")
	case cfg.Process != nil:
		cfg.Process.Reset(cfg.ProcessSeed)
		l.proc = cfg.Process
	case cfg.Trace != nil:
		if cfg.Trace.Count() == 0 {
			panic("link: config requires a non-empty trace")
		}
		l.replay.SetTrace(cfg.Trace)
		if l.looped == nil {
			l.looped = trace.NewLoop(&l.replay)
		}
		l.looped.Reset(0) // replays ignore seeds; this rewinds the wrap state
		l.proc = l.looped
	default:
		panic("link: config requires a Trace or a Process opportunity source")
	}
	if cfg.LossRate > 0 && cfg.Rand == nil {
		panic("link: LossRate requires a Rand source")
	}
	l.cfg, l.deliver = cfg, deliver
	if l.sched = cfg.Scheduler; l.sched == nil {
		l.sched = &l.standing
	}
	l.sched.Reset()
	for i := range l.slots[:l.nslots] {
		s := &l.slots[i]
		s.queue.Reset()
		s.txPkt, s.txSent, s.gen = nil, 0, 0
	}
	l.nslots, l.backlogged = 0, 0
	l.free = l.free[:0]
	l.arrivals.reset()
	l.batch = cfg.Scheduler == nil && l.seqr != nil
	l.skipped = l.skipped[:0]
	l.deliveries = l.deliveries[:0]
	l.recordLog, l.onDelivery, l.onOpportunity = false, nil, nil
	l.delivered, l.dropsLoss, l.dropsAQM, l.dropsStale, l.wasted = 0, 0, 0, 0, 0
	if cfg.Scheduler == nil {
		l.Attach() // the standing slot
	}
	l.opTimer = sim.Timer{} // any old handle is stale on the reset clock
	l.arm(l.proc.Next())
}

// Attach claims a slot for a user (reusing the most recently detached
// slot, else growing the array) and returns its index.
func (l *Link) Attach() int {
	l.admit()
	var slot int
	if n := len(l.free); n > 0 {
		slot = int(l.free[n-1])
		l.free = l.free[:n-1]
	} else {
		slot = l.nslots
		l.nslots++
		if l.nslots > len(l.slots) {
			l.slots = append(l.slots, userSlot{})
		}
	}
	l.sched.Attach(slot)
	return slot
}

// Detach releases a slot: queued and partially transmitted packets are
// dropped (a handed-over or departed user's queue does not follow it) and
// released to the pool, in-flight arrivals to the slot are invalidated,
// and the slot returns to the free list. A delivery handler must not
// detach the slot whose packet it was handed.
func (l *Link) Detach(slot int) {
	l.admit()
	s := &l.slots[slot]
	if s.backlogged() {
		l.setBacklog(slot, false)
	}
	l.sched.Detach(slot)
	for pkt := s.queue.Pop(); pkt != nil; pkt = s.queue.Pop() {
		l.cfg.Pool.Put(pkt)
	}
	if s.txPkt != nil {
		l.cfg.Pool.Put(s.txPkt)
	}
	s.txPkt, s.txSent = nil, 0
	s.gen++
	l.free = append(l.free, int32(slot))
}

// Slots returns the high-water slot count.
func (l *Link) Slots() int { return l.nslots }

// RecordDeliveries turns on the per-packet delivery log (used by the
// timeseries experiments that need the raw log after the run).
func (l *Link) RecordDeliveries(on bool) { l.recordLog = on }

// OnDelivery registers fn to observe each Delivery record at the instant
// the packet fully crosses the link (before the delivery handler runs, the
// same point the log would record it). Streaming metrics accumulate through
// this hook instead of retaining an ever-growing log. nil removes the
// observer.
func (l *Link) OnDelivery(fn func(Delivery)) { l.onDelivery = fn }

// OnOpportunity registers fn to observe the instant of every delivery
// opportunity the link services, whether or not any packet used it.
// Streaming runs use this to accumulate the omniscient-protocol bound and
// offered capacity online — the role the materialized trace's opportunity
// slice plays in metrics.Evaluate. nil removes the observer.
//
// The instants come in nondecreasing order, but not always at their
// instant: a dedicated link that passes over opportunities it can see are
// wasted reports them when it does, ahead of the clock. So fn must be
// pure — fold the instant into state nothing reads before the run ends,
// schedule nothing, send nothing — and registered before the run;
// metrics.Accumulator.ObserveOpportunity is such an observer, and ignores
// instants at or past its window's end, which is the run's horizon.
func (l *Link) OnOpportunity(fn func(at time.Duration)) { l.onOpportunity = fn }

// Deliveries returns the recorded delivery log.
func (l *Link) Deliveries() []Delivery { return l.deliveries }

// TakeDeliveries returns the recorded delivery log and transfers ownership
// to the caller: the link forgets the slice, so a later Reset cannot
// overwrite a log the caller has kept.
func (l *Link) TakeDeliveries() []Delivery {
	d := l.deliveries
	l.deliveries = nil
	return d
}

// DeliveredBytes returns the total bytes delivered so far, across all
// slots.
func (l *Link) DeliveredBytes() int64 { return l.delivered }

// Drops returns packet drop counts by cause (random loss, AQM decision).
func (l *Link) Drops() (loss, aqm int64) {
	l.admit()
	return l.dropsLoss, l.dropsAQM
}

// StaleDrops returns how many packets arrived at a slot detached while
// they were in flight (handover or departure: the radio bearer they were
// destined for is gone).
func (l *Link) StaleDrops() int64 {
	l.admit()
	return l.dropsStale
}

// WastedOpportunities returns how many of the delivery opportunities the
// loop has reached found no backlogged slot.
func (l *Link) WastedOpportunities() int64 {
	n := l.wasted
	for _, at := range l.skipped {
		if !l.seqr.Passed(sim.Ranked(at, l.rank)) {
			break
		}
		n++
	}
	return n
}

// SlotBytes returns slot's queue occupancy in bytes (including any
// partially transmitted packet's untransmitted remainder).
func (l *Link) SlotBytes(slot int) int {
	l.admit()
	return l.slots[slot].bytes()
}

// QueueBytes is SlotBytes of the standing slot.
func (l *Link) QueueBytes() int { return l.SlotBytes(0) }

// QueueLen returns the number of packets fully queued at the standing
// slot.
func (l *Link) QueueLen() int {
	l.admit()
	return l.slots[0].queue.Len()
}

// Send submits a packet to the standing slot of a dedicated link.
func (l *Link) Send(pkt *network.Packet) { l.SendTo(0, pkt) }

// SendTo submits a packet toward slot at the current virtual time. The
// packet experiences the propagation delay, then joins the slot's queue.
// On a loop this schedules nothing: the packet lands — queued, or lost or
// stale and only then released to the pool — when the queues are next
// looked at, as if at its arrival instant.
func (l *Link) SendTo(slot int, pkt *network.Packet) {
	gen := l.slots[slot].gen
	if l.seqr == nil {
		// A reference clock: no priority reservations, one event per packet.
		l.clock.After(l.cfg.PropagationDelay, func() { l.enqueue(slot, gen, pkt, l.clock.Now()) })
		return
	}
	l.arrivals.push(arrival{res: l.seqr.Reserve(l.cfg.PropagationDelay), pkt: pkt, slot: int32(slot), gen: gen})
}

// admit lands every in-flight packet whose arrival event would already
// have fired, oldest first. It runs before anything reads or changes slot
// or scheduler state, so loss draws, drops and Backlog edges happen in the
// order, and against the state, one event per arrival would have produced.
func (l *Link) admit() {
	for !l.arrivals.empty() && l.seqr.Passed(l.arrivals.peek().res) {
		a := l.arrivals.pop()
		l.enqueue(int(a.slot), a.gen, a.pkt, a.res.Time())
	}
}

// enqueue lands a packet that finished its propagation delay at instant at.
func (l *Link) enqueue(slot int, gen uint32, pkt *network.Packet, at time.Duration) {
	s := &l.slots[slot]
	switch {
	case gen != s.gen:
		l.dropsStale++
	case l.cfg.LossRate > 0 && l.cfg.Rand.Float64() < l.cfg.LossRate:
		l.dropsLoss++
	default:
		pkt.EnqueuedAt = at
		was := s.backlogged()
		s.queue.Push(pkt)
		if !was {
			l.setBacklog(slot, true)
		}
		return
	}
	l.cfg.Pool.Put(pkt)
}

// setBacklog reports slot's backlog transition to the scheduler and keeps
// the count that lets an opportunity with nothing to serve skip the Pick.
func (l *Link) setBacklog(slot int, on bool) {
	if on {
		l.backlogged++
	} else {
		l.backlogged--
	}
	l.sched.Backlog(slot, on)
}

// arm re-arms the standing timer for the delivery opportunity at, the
// next one the active process gave. An exhausted process (ok false)
// simply stops the schedule (a wrapped trace never exhausts unless it
// cannot advance time).
func (l *Link) arm(at time.Duration, ok bool) {
	if ok {
		l.opTimer = l.clock.RescheduleAt(l.opTimer, sim.Ranked(at, l.rank), l.opFn)
	}
}

// skipIdle passes over, without an event, every opportunity from at on
// that falls strictly before the earliest instant a packet could land on
// a dedicated link with nothing queued: the head of the arrival ring, or,
// with nothing in flight, a propagation delay from now (a packet sent from
// now on lands no sooner). Each one would have found the queue empty; an
// arrival at exactly an opportunity's instant lands before it (DESIGN.md
// §2), so that opportunity is armed. The standing scheduler is told of
// each (a no-op) and the observer sees each, ahead of the clock. It
// returns the first opportunity left to arm.
func (l *Link) skipIdle(at time.Duration, ok bool) (time.Duration, bool) {
	horizon := l.clock.Now() + l.cfg.PropagationDelay
	if !l.arrivals.empty() {
		horizon = l.arrivals.peek().res.Time()
	}
	for ok && at < horizon {
		l.skipped = append(l.skipped, at)
		l.standing.Opportunity()
		if l.onOpportunity != nil {
			l.onOpportunity(at)
		}
		at, ok = l.proc.Next()
	}
	return at, ok
}

// opportunity releases up to MTU bytes (per-byte accounting, footnote 6)
// to scheduler-picked slots: the picked slot is served until its queue
// drains or the budget ends; a drained slot hands the remaining budget to
// the next pick. A dedicated link left with nothing to serve then skips
// its idle opportunities.
func (l *Link) opportunity() {
	l.admit()
	// Every opportunity the last batch skipped came before this one.
	l.wasted += int64(len(l.skipped))
	l.skipped = l.skipped[:0]
	budget := network.MTU
	now := l.clock.Now()
	if l.onOpportunity != nil {
		l.onOpportunity(now)
	}
	l.sched.Opportunity()
	progress := false
	slot := -1
	for budget > 0 && l.backlogged > 0 {
		if slot < 0 {
			slot = l.sched.Pick()
		}
		s := &l.slots[slot]
		if s.txPkt == nil {
			before := s.queue.Len()
			if before == 0 {
				panic(fmt.Sprintf("link: scheduler %s picked slot %d, which has no backlog", l.sched.Name(), slot))
			}
			if l.cfg.Dequeuer == nil {
				s.txPkt = s.queue.Pop()
			} else {
				s.txPkt = l.cfg.Dequeuer.Next(now, &s.queue)
				l.dropsAQM += int64(before - s.queue.Len())
				if s.txPkt == nil {
					// The AQM dropped everything the slot held.
					l.setBacklog(slot, false)
					slot = -1
					continue
				}
				l.dropsAQM-- // the packet it returned is no drop
			}
			s.txSent = 0
		}
		progress = true
		need := s.txPkt.Size - s.txSent
		if need > budget {
			s.txSent += budget
			l.sched.Grant(slot, budget)
			break
		}
		budget -= need
		l.sched.Grant(slot, need)
		pkt := s.txPkt
		s.txPkt, s.txSent = nil, 0
		l.delivered += int64(pkt.Size)
		if l.recordLog || l.onDelivery != nil {
			d := Delivery{
				SentAt:      pkt.SentAt,
				DeliveredAt: now,
				Size:        pkt.Size,
				Seq:         pkt.Seq,
				Flow:        pkt.Flow,
			}
			if l.recordLog {
				l.deliveries = append(l.deliveries, d)
			}
			if l.onDelivery != nil {
				l.onDelivery(d)
			}
		}
		if l.deliver != nil {
			l.deliver(pkt)
		}
		l.cfg.Pool.Put(pkt)
		// The handler may have attached slots and so moved the array.
		if !l.slots[slot].backlogged() {
			l.setBacklog(slot, false)
			slot = -1
		}
	}
	if !progress {
		l.wasted++
	}
	at, ok := l.proc.Next()
	if l.batch && l.backlogged == 0 {
		at, ok = l.skipIdle(at, ok)
	}
	l.arm(at, ok)
}
