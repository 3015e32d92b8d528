package cell

import (
	"math/rand"
	"time"

	"sprout/internal/link"
	"sprout/internal/network"
	"sprout/internal/sim"
	"sprout/internal/trace"
)

// Config parameterizes one Tower: the shared downlink delivery process and
// the scheduler that apportions it.
type Config struct {
	// Process supplies the cell's shared delivery opportunities on
	// demand; the tower Resets it with ProcessSeed. Required; must not be
	// shared with any link or other tower.
	Process trace.DeliveryProcess
	// ProcessSeed seeds Process at Reset.
	ProcessSeed int64
	// PropagationDelay is applied to each packet before it joins its
	// flow's queue.
	PropagationDelay time.Duration
	// LossRate, if positive, drops each arriving packet with this
	// probability (§5.6); requires Rand.
	LossRate float64
	// Rand is the randomness source for loss.
	Rand *rand.Rand
	// Scheduler apportions opportunities among attached slots. Required.
	Scheduler Scheduler
	// Pool, if non-nil, is the arena the tower's packets came from. As
	// with link.Config.Pool, the tower releases each packet when it leaves
	// the network: after the delivery handler returns, at a loss or
	// stale-generation drop, and when Detach flushes a vacated slot's
	// queue. Reset releases nothing.
	Pool *network.Pool
}

// Tower is one shared cell: per-slot FIFO queues (the base station's
// per-user queues of §2.1) drained by a single delivery-opportunity
// schedule under a pluggable Scheduler. All per-slot state lives in flat
// parallel arrays indexed by slot — no per-flow goroutines, timers or
// heap nodes — so a 1024-user cell costs four slice indexes per packet
// over the dedicated link's hot path.
//
// With one attached slot under round-robin, a Tower performs exactly the
// clock-visible operation sequence of link.Link (same reservation, event
// and RNG consumption), so the degenerate one-user cell is byte-identical
// to the dedicated-link path.
type Tower struct {
	clock   sim.Clock
	seqr    sim.Sequencer
	cfg     Config
	proc    trace.DeliveryProcess
	sched   Scheduler
	deliver network.Handler

	// Struct-of-arrays per-slot state, indexed by slot in [0, nslots).
	queues []link.FIFO
	txPkt  []*network.Packet // packet mid-transmission (per-byte accounting)
	txSent []int             // bytes of txPkt already transmitted
	gen    []uint32          // bumped at Detach; in-flight arrivals check it
	nslots int
	free   []int32 // detached slots available for reuse, LIFO

	// Propagation delay: like link.Link, a packet in flight is a ring
	// entry holding the priority its arrival event would have had, not an
	// event; admit moves in the entries whose reservation has passed
	// before anything reads or changes slot or scheduler state.
	arrivals ring[towerArrival]

	opTimer sim.Timer
	opFn    func()

	onDelivery    func(link.Delivery)
	onOpportunity func(at time.Duration)

	delivered  int64
	dropsLoss  int64
	dropsStale int64 // arrivals whose slot was detached mid-flight (handover/departure)
	wasted     int64
}

// towerArrival is one packet in flight across the propagation delay.
type towerArrival struct {
	res  sim.Reservation
	pkt  *network.Packet
	slot int32
	gen  uint32
}

// NewTower creates a tower on the clock and starts its delivery schedule.
// deliver is invoked with each fully delivered packet; the caller demuxes
// on the packet's flow id.
func NewTower(clock sim.Clock, cfg Config, deliver network.Handler) *Tower {
	t := &Tower{clock: clock}
	t.seqr, _ = clock.(sim.Sequencer)
	t.opFn = t.opportunity
	t.Reset(cfg, deliver)
	return t
}

// Reset re-arms the tower for a fresh run on the same clock, retaining
// every queue ring and slot array. Like link.Reset it must be called at a
// world boundary (queued packets are forgotten, not released: Pool.Reset
// reclaims them); a reset tower is byte-identical to a fresh one.
func (t *Tower) Reset(cfg Config, deliver network.Handler) {
	if cfg.Process == nil {
		panic("cell: Config requires a Process opportunity source")
	}
	if cfg.Scheduler == nil {
		panic("cell: Config requires a Scheduler")
	}
	if cfg.LossRate > 0 && cfg.Rand == nil {
		panic("cell: LossRate requires a Rand source")
	}
	cfg.Process.Reset(cfg.ProcessSeed)
	t.cfg, t.proc, t.sched, t.deliver = cfg, cfg.Process, cfg.Scheduler, deliver
	for i := 0; i < t.nslots; i++ {
		t.queues[i].Reset()
		t.txPkt[i], t.txSent[i], t.gen[i] = nil, 0, 0
	}
	t.nslots = 0
	t.free = t.free[:0]
	t.sched.Reset()
	t.arrivals.reset()
	t.onDelivery, t.onOpportunity = nil, nil
	t.delivered, t.dropsLoss, t.dropsStale, t.wasted = 0, 0, 0, 0
	t.opTimer = sim.Timer{} // any old handle is stale on the reset clock
	t.scheduleNextOpportunity()
}

// Attach claims a slot for a flow (reusing the most recently detached
// slot, else growing the arrays) and returns its index.
func (t *Tower) Attach() int {
	t.admit()
	var slot int
	if n := len(t.free); n > 0 {
		slot = int(t.free[n-1])
		t.free = t.free[:n-1]
	} else {
		slot = t.nslots
		t.nslots++
		if t.nslots > len(t.queues) {
			t.queues = append(t.queues, link.FIFO{})
			t.txPkt = append(t.txPkt, nil)
			t.txSent = append(t.txSent, 0)
			t.gen = append(t.gen, 0)
		}
	}
	t.sched.Attach(slot)
	return slot
}

// Detach releases a slot: queued and partially transmitted packets are
// dropped (a handed-over or departed user's downlink queue does not
// follow it) and released to the pool, in-flight arrivals to the slot are
// invalidated, and the slot returns to the free list.
func (t *Tower) Detach(slot int) {
	t.admit()
	if t.backlogged(slot) {
		t.sched.Backlog(slot, false)
	}
	t.sched.Detach(slot)
	q := &t.queues[slot]
	for pkt := q.Pop(); pkt != nil; pkt = q.Pop() {
		t.cfg.Pool.Put(pkt)
	}
	if pkt := t.txPkt[slot]; pkt != nil {
		t.cfg.Pool.Put(pkt)
	}
	t.txPkt[slot], t.txSent[slot] = nil, 0
	t.gen[slot]++
	t.free = append(t.free, int32(slot))
}

// Slots returns the current high-water slot count.
func (t *Tower) Slots() int { return t.nslots }

// OnDelivery registers fn to observe each delivery at the instant the
// packet fully crosses the cell (before the delivery handler runs).
func (t *Tower) OnDelivery(fn func(link.Delivery)) { t.onDelivery = fn }

// OnOpportunity registers fn to observe every delivery-opportunity
// instant the tower services, used or not.
func (t *Tower) OnOpportunity(fn func(at time.Duration)) { t.onOpportunity = fn }

// DeliveredBytes returns total bytes delivered across all slots.
func (t *Tower) DeliveredBytes() int64 { return t.delivered }

// Drops returns packets dropped by random loss and by mid-flight slot
// detach (handover/departure).
func (t *Tower) Drops() (loss, stale int64) {
	t.admit()
	return t.dropsLoss, t.dropsStale
}

// WastedOpportunities returns opportunities that found no backlogged slot.
func (t *Tower) WastedOpportunities() int64 { return t.wasted }

// QueueBytes returns slot's queued bytes including any partially
// transmitted packet's remainder.
func (t *Tower) QueueBytes(slot int) int {
	t.admit()
	b := t.queues[slot].Bytes()
	if t.txPkt[slot] != nil {
		b += t.txPkt[slot].Size - t.txSent[slot]
	}
	return b
}

// Send submits a packet toward slot at the current virtual time. The
// packet crosses the propagation delay, then joins the slot's queue (if
// the slot is still attached when it lands). As with link.Link.Send, on a
// virtual-time loop this schedules nothing: the packet lands — queued,
// lost or stale, and in the last two cases released to the pool — when the
// tower next looks at its queues.
func (t *Tower) Send(slot int, pkt *network.Packet) {
	if t.seqr == nil {
		// Real-time clock: no priority reservations, one timer per packet.
		g := t.gen[slot]
		t.clock.After(t.cfg.PropagationDelay, func() { t.enqueue(slot, g, pkt, t.clock.Now()) })
		return
	}
	res := t.seqr.Reserve(t.cfg.PropagationDelay)
	t.arrivals.push(towerArrival{res: res, pkt: pkt, slot: int32(slot), gen: t.gen[slot]})
}

// admit lands every in-flight packet whose arrival event would already
// have fired, oldest first (link.Link's rule): loss draws, stale drops and
// Backlog edges then happen in the order, and against the slot state, one
// event per arrival would have produced.
func (t *Tower) admit() {
	for !t.arrivals.empty() && t.seqr.Passed(t.arrivals.peek().res) {
		a := t.arrivals.pop()
		t.enqueue(int(a.slot), a.gen, a.pkt, a.res.Time())
	}
}

func (t *Tower) backlogged(slot int) bool {
	return t.txPkt[slot] != nil || t.queues[slot].Len() > 0
}

// enqueue lands a packet that finished its propagation delay at instant at.
func (t *Tower) enqueue(slot int, gen uint32, pkt *network.Packet, at time.Duration) {
	if gen != t.gen[slot] {
		// The slot was detached (handover or departure) while the packet
		// was in flight: the radio bearer it was destined for is gone.
		t.dropsStale++
		t.cfg.Pool.Put(pkt)
		return
	}
	if t.cfg.LossRate > 0 && t.cfg.Rand.Float64() < t.cfg.LossRate {
		t.dropsLoss++
		t.cfg.Pool.Put(pkt)
		return
	}
	pkt.EnqueuedAt = at
	was := t.backlogged(slot)
	t.queues[slot].Push(pkt)
	if !was {
		t.sched.Backlog(slot, true)
	}
}

func (t *Tower) scheduleNextOpportunity() {
	at, ok := t.proc.Next()
	if !ok {
		return
	}
	t.opTimer = sim.Reschedule(t.clock, t.opTimer, at-t.clock.Now(), t.opFn)
}

// opportunity releases up to MTU bytes (per-byte accounting, footnote 6)
// to scheduler-picked slots: the picked slot is served until its queue
// drains or the budget ends; a drained slot hands the remaining budget to
// the next pick.
func (t *Tower) opportunity() {
	t.admit()
	budget := network.MTU
	now := t.clock.Now()
	if t.onOpportunity != nil {
		t.onOpportunity(now)
	}
	t.sched.Opportunity()
	progress := false
	slot := -1
	for budget > 0 {
		if slot < 0 {
			if slot = t.sched.Pick(); slot < 0 {
				break
			}
		}
		if t.txPkt[slot] == nil {
			pkt := t.queues[slot].Pop()
			if pkt == nil {
				// Defensive: the backlog bitmap said otherwise.
				t.sched.Backlog(slot, false)
				slot = -1
				continue
			}
			t.txPkt[slot], t.txSent[slot] = pkt, 0
		}
		need := t.txPkt[slot].Size - t.txSent[slot]
		if need > budget {
			t.txSent[slot] += budget
			t.sched.Grant(slot, budget)
			budget = 0
			progress = true
			break
		}
		budget -= need
		t.sched.Grant(slot, need)
		pkt := t.txPkt[slot]
		t.txPkt[slot], t.txSent[slot] = nil, 0
		t.delivered += int64(pkt.Size)
		progress = true
		if t.onDelivery != nil {
			t.onDelivery(link.Delivery{
				SentAt:      pkt.SentAt,
				DeliveredAt: now,
				Size:        pkt.Size,
				Seq:         pkt.Seq,
				Flow:        pkt.Flow,
			})
		}
		if t.deliver != nil {
			t.deliver(pkt)
		}
		t.cfg.Pool.Put(pkt)
		if !t.backlogged(slot) {
			t.sched.Backlog(slot, false)
			slot = -1
		}
	}
	if !progress {
		t.wasted++
	}
	t.scheduleNextOpportunity()
}

// ring is the power-of-two FIFO ring backing the arrival queue (the
// link package's idiom; its ring is unexported).
type ring[T any] struct {
	buf        []T
	head, tail uint64
}

func (r *ring[T]) empty() bool { return r.head == r.tail }

func (r *ring[T]) peek() *T { return &r.buf[r.head&uint64(len(r.buf)-1)] }

func (r *ring[T]) push(v T) {
	if int(r.tail-r.head) == len(r.buf) {
		r.grow()
	}
	r.buf[r.tail&uint64(len(r.buf)-1)] = v
	r.tail++
}

func (r *ring[T]) pop() T {
	i := r.head & uint64(len(r.buf)-1)
	v := r.buf[i]
	var zero T
	r.buf[i] = zero
	r.head++
	return v
}

func (r *ring[T]) reset() {
	var zero T
	for i := r.head; i != r.tail; i++ {
		r.buf[i&uint64(len(r.buf)-1)] = zero
	}
	r.head, r.tail = 0, 0
}

func (r *ring[T]) grow() {
	n := len(r.buf) * 2
	if n == 0 {
		n = 16
	}
	buf := make([]T, n)
	cnt := int(r.tail - r.head)
	for i := 0; i < cnt; i++ {
		buf[i] = r.buf[(r.head+uint64(i))&uint64(len(r.buf)-1)]
	}
	r.buf = buf
	r.head, r.tail = 0, uint64(cnt)
}
