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
package link

import (
	"math/rand"
	"time"

	"sprout/internal/network"
	"sprout/internal/sim"
	"sprout/internal/trace"
)

// Dequeuer selects the next packet to transmit from the bottleneck queue.
// Implementations may drop packets by popping and discarding them (CoDel
// drops at the head); one that does releases each discarded packet to the
// link's pool, since it is the one taking it out of the network. The
// default is plain FIFO order.
type Dequeuer interface {
	// Next pops the next packet to transmit, or returns nil if the queue
	// is (effectively) empty. now is the current virtual time.
	Next(now time.Duration, q *FIFO) *network.Packet
}

// DropTail is the default Dequeuer: plain FIFO with no AQM.
type DropTail struct{}

// Next implements Dequeuer.
func (DropTail) Next(_ time.Duration, q *FIFO) *network.Packet { return q.Pop() }

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
	// PropagationDelay is applied to each packet before it joins the
	// queue. The paper measures ≈20 ms each way on its cellular paths.
	PropagationDelay time.Duration
	// LossRate, if positive, drops each arriving packet with this
	// probability before it joins the queue (§5.6).
	LossRate float64
	// QueueBytes, if positive, bounds the queue; packets arriving to a
	// full queue are dropped (tail drop). Zero means unbounded
	// ("bufferbloated" base station).
	QueueBytes int
	// Dequeuer selects packets at transmission time; nil means DropTail.
	Dequeuer Dequeuer
	// Rand is the randomness source for loss; required if LossRate > 0.
	Rand *rand.Rand
	// Pool, if non-nil, is the arena the link's packets came from. The
	// link releases each packet when it leaves the network — after the
	// delivery handler returns, or where it is dropped (random loss, tail
	// drop) — so the handler must not keep the packet or its payload. An
	// AQM Dequeuer releases its own drops. Reset releases nothing:
	// Pool.Reset reclaims the arena at the world boundary.
	Pool *network.Pool
}

// Link is one direction of an emulated cellular path.
type Link struct {
	cfg     Config
	clock   sim.Clock
	queue   FIFO
	deq     Dequeuer
	deliver network.Handler

	// proc is the active opportunity source. Trace configs stream through
	// the retained Loop(Replay) below — the same mahimahi wrap semantics
	// the link used to implement against Trace.Opportunities indices, now
	// expressed as a composable trace.DeliveryProcess — so Reset allocates
	// nothing and both config forms share one scheduling path.
	proc   trace.DeliveryProcess
	replay trace.Replay
	looped *trace.Loop

	// The propagation delay is constant, so packets emerge from it in the
	// order they were submitted, and the queue they join drains only at
	// opportunities: nothing can tell when, between two looks at the
	// queue, an arrival joined it. On a virtual-time loop a packet in
	// flight is therefore not an event. Send reserves the (time, sequence)
	// priority its arrival event would have had and parks the packet in a
	// ring; admit, run before anything reads or changes the queue, moves
	// in every packet whose reservation has passed — the same packets, in
	// the same order, against the same queue state as one event per
	// packet, so experiment outputs are byte-identical (DESIGN.md §9).
	seqr     sim.Sequencer // nil on real-time clocks: fall back to After
	arrivals ring[arrival]

	opTimer sim.Timer
	opFn    func() // built once for the delivery-opportunity schedule

	// Telemetry.
	deliveries    []Delivery
	recordLog     bool
	onDelivery    func(Delivery)         // streaming observer; see OnDelivery
	onOpportunity func(at time.Duration) // see OnOpportunity
	delivered     int64                  // bytes
	dropsLoss     int64                  // packets dropped by random loss
	dropsQueue    int64                  // packets dropped by the queue bound
	dropsAQM      int64                  // packets dropped by the AQM
	wasted        int64                  // opportunities that found an empty queue

	// Packet mid-transmission across opportunities (per-byte accounting),
	// held inline so partial transmissions do not allocate.
	txPkt  *network.Packet // nil when no transmission is in progress
	txSent int             // bytes of txPkt already transmitted
}

// New creates a link on the given clock and starts its delivery schedule.
// deliver is invoked, at the instant each packet fully crosses the link,
// with the delivered packet. The clock may be a virtual-time sim.Loop or
// the wall-clock adapter in internal/realtime.
func New(clock sim.Clock, cfg Config, deliver network.Handler) *Link {
	l := &Link{clock: clock}
	l.seqr, _ = clock.(sim.Sequencer)
	l.opFn = l.opportunity
	l.Reset(cfg, deliver)
	return l
}

// Reset re-arms the link for a fresh run on the same clock: the new config
// and delivery handler replace the old, every queue, counter and log is
// cleared, and the delivery schedule restarts from the trace's first
// opportunity — all without freeing the retained rings and log capacity.
// Packets still queued or in flight are forgotten, not released to the
// pool: Pool.Reset reclaims them at the same boundary.
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
	deq := cfg.Dequeuer
	if deq == nil {
		deq = DropTail{}
	}
	l.cfg, l.deq, l.deliver = cfg, deq, deliver
	l.queue.Reset()
	l.arrivals.reset()
	l.deliveries = l.deliveries[:0]
	l.recordLog, l.onDelivery, l.onOpportunity = false, nil, nil
	l.delivered, l.dropsLoss, l.dropsQueue, l.dropsAQM, l.wasted = 0, 0, 0, 0, 0
	l.txPkt, l.txSent = nil, 0
	l.opTimer = sim.Timer{} // any old handle is stale on the reset clock
	l.scheduleNextOpportunity()
}

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

// DeliveredBytes returns the total bytes delivered so far.
func (l *Link) DeliveredBytes() int64 { return l.delivered }

// Drops returns packet drop counts by cause (random loss, queue overflow,
// AQM decision).
func (l *Link) Drops() (loss, queue, aqm int64) {
	l.admit()
	return l.dropsLoss, l.dropsQueue, l.dropsAQM
}

// WastedOpportunities returns how many delivery opportunities found an
// empty queue.
func (l *Link) WastedOpportunities() int64 { return l.wasted }

// QueueBytes returns the current queue occupancy in bytes (including any
// partially transmitted packet's untransmitted remainder).
func (l *Link) QueueBytes() int {
	l.admit()
	return l.queuedBytes()
}

func (l *Link) queuedBytes() int {
	b := l.queue.Bytes()
	if l.txPkt != nil {
		b += l.txPkt.Size - l.txSent
	}
	return b
}

// QueueLen returns the number of fully queued packets.
func (l *Link) QueueLen() int {
	l.admit()
	return l.queue.Len()
}

// Send submits a packet to the link at the current virtual time. The packet
// experiences the propagation delay, then joins the queue. On a
// virtual-time loop this schedules nothing: the packet joins the queue
// (or is lost, or tail-dropped, and only then released to the pool) when
// the queue is next looked at, as if at its arrival instant.
func (l *Link) Send(pkt *network.Packet) {
	if l.seqr == nil {
		// Real-time clock: no priority reservations, one timer per packet.
		l.clock.After(l.cfg.PropagationDelay, func() { l.enqueue(pkt, l.clock.Now()) })
		return
	}
	l.arrivals.push(arrival{res: l.seqr.Reserve(l.cfg.PropagationDelay), pkt: pkt})
}

// admit enqueues every in-flight packet whose arrival event would already
// have fired, oldest first. It runs before anything reads or changes queue
// state, so that state is always what one event per arrival would have
// left.
func (l *Link) admit() {
	for !l.arrivals.empty() && l.seqr.Passed(l.arrivals.peek().res) {
		a := l.arrivals.pop()
		l.enqueue(a.pkt, a.res.Time())
	}
}

// arrival is one packet in flight across the propagation delay.
type arrival struct {
	res sim.Reservation
	pkt *network.Packet
}

// enqueue lands a packet that finished its propagation delay at instant at.
func (l *Link) enqueue(pkt *network.Packet, at time.Duration) {
	if l.cfg.LossRate > 0 && l.cfg.Rand.Float64() < l.cfg.LossRate {
		l.dropsLoss++
		l.cfg.Pool.Put(pkt)
		return
	}
	if l.cfg.QueueBytes > 0 && l.queuedBytes()+pkt.Size > l.cfg.QueueBytes {
		l.dropsQueue++
		l.cfg.Pool.Put(pkt)
		return
	}
	pkt.EnqueuedAt = at
	l.queue.Push(pkt)
}

// scheduleNextOpportunity pulls the next delivery opportunity from the
// active process and re-arms the standing timer for it. An exhausted
// process simply stops the schedule (a wrapped trace never exhausts
// unless it cannot advance time).
func (l *Link) scheduleNextOpportunity() {
	at, ok := l.proc.Next()
	if !ok {
		return
	}
	l.opTimer = sim.Reschedule(l.clock, l.opTimer, at-l.clock.Now(), l.opFn)
}

// opportunity releases up to MTU bytes from the queue (per-byte accounting).
func (l *Link) opportunity() {
	l.admit()
	budget := network.MTU
	now := l.clock.Now()
	if l.onOpportunity != nil {
		l.onOpportunity(now)
	}
	progress := false
	for budget > 0 {
		if l.txPkt == nil {
			before := l.queue.Len()
			pkt := l.deq.Next(now, &l.queue)
			popped := before - l.queue.Len()
			if pkt == nil {
				l.dropsAQM += int64(popped)
				break
			}
			l.dropsAQM += int64(popped - 1)
			l.txPkt, l.txSent = pkt, 0
		}
		need := l.txPkt.Size - l.txSent
		if need > budget {
			l.txSent += budget
			budget = 0
			progress = true
			break
		}
		budget -= need
		pkt := l.txPkt
		l.txPkt, l.txSent = nil, 0
		l.delivered += int64(pkt.Size)
		progress = true
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
	}
	if !progress {
		l.wasted++
	}
	l.scheduleNextOpportunity()
}
