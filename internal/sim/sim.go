// Package sim provides a deterministic discrete-event simulation loop with
// a virtual clock. All of the trace-driven experiments in this repository
// run inside a sim.Loop, which replaces the real-time Cellsim PC of the
// paper's testbed (§4.2) with reproducible virtual time; the live tools
// run one too, paced by the wall clock (internal/realtime).
//
// Events of one instant fire in a fixed order (DESIGN.md §2): arrivals
// reserved with Reserve first, in the order they were reserved; then
// ranked sources' events (link opportunities), by the source's rank; then
// every other event, in the order it was scheduled. That makes every
// experiment byte-for-byte reproducible for a given seed.
//
// The loop is allocation-free in steady state: events live in a pooled
// arena of slots recycled through a free list, the priority queue is a
// hand-rolled min-heap of inline keys over those slots (no container/heap,
// no interface boxing), and Timer handles are small values whose generation counter
// keeps Stop safe after a slot has been reused. Periodic callers re-arm
// one timer with Reschedule instead of allocating a new one every firing.
package sim

import (
	"time"
)

// Clock exposes the current time and lets components schedule callbacks.
// The virtual-time Loop implements it, and so does internal/realtime's
// live clock, which is a Loop paced by the wall clock: protocol endpoints
// and links are written once and run in either world.
//
// A source that needs its events kept in place among an instant's others
// (a link's opportunities, DESIGN.md §2) takes a rank once and arms each
// of its events at Ranked(at, rank), at most one pending at a time; its
// events then keep their place however early or late they were armed.
type Clock interface {
	// Now returns the time elapsed since the start of the run.
	Now() time.Duration
	// After schedules fn to run once, d from now. A non-positive d runs
	// fn at the current instant (but not synchronously). It returns a
	// handle that can cancel the callback.
	After(d time.Duration, fn func()) Timer
	// Reschedule cancels t (if still pending) and schedules fn to run d
	// from now, reusing t's resources. Periodic callers hold one Timer
	// and one prebuilt fn and re-arm through it; on the Loop the whole
	// cycle is allocation-free.
	Reschedule(t Timer, d time.Duration, fn func()) Timer
	// NewRank returns a rank no source on this clock has had.
	NewRank() uint32
	// RescheduleAt cancels t (if still pending) and schedules fn to run
	// at r's priority, reusing t's resources.
	RescheduleAt(t Timer, r Reservation, fn func()) Timer
}

// Timer is a handle to a scheduled callback: (slot, generation). The zero
// value is a valid handle to nothing: Stop on it returns false. The
// generation check makes Stop safe to call after the event has fired and
// its slot has been recycled for an unrelated event.
type Timer struct {
	s   *slot
	gen uint32
}

// Stop cancels the callback if it has not fired yet. It reports whether
// the call prevented the callback from firing.
func (t Timer) Stop() bool {
	if t.s == nil {
		return false
	}
	return t.s.loop.stopSlot(t.s, t.gen)
}

// slot is one pooled event in the loop's arena. Slots are allocated in
// blocks, recycled through a free list, and never individually freed, so
// pointers to them stay valid for the life of the loop. The event's key
// lives in its heap entry, not here.
type slot struct {
	loop *Loop
	fn   func()
	gen  uint32 // bumped on every retire/re-arm; validates Timer handles
	idx  int32  // position in the heap; -1 when not queued
}

// entry is one element of the heap: the event's key inline, so a sift
// compares keys that sit next to each other in the array instead of
// loading each through a pointer, and the slot that holds its callback.
type entry struct {
	at  time.Duration
	key uint64 // tie-break for equal times: class, then sequence or rank
	s   *slot
}

// An event's key orders the events of one instant: its class in the top
// two bits, then a sequence number (classes 0 and 2) or its source's rank
// (class 1).
const (
	classReserved uint64 = 0 << 62 // Reserve: arrivals, by sequence number
	classRanked   uint64 = 1 << 62 // ranked sources' events, by rank
	classOther    uint64 = 2 << 62 // At and Reschedule, by sequence number
)

// slotBlock is how many slots are allocated at once when the free list
// runs dry. Steady-state experiments stop growing after warmup.
const slotBlock = 64

// Reservation is a position in the loop's total event order: the (time,
// key) priority an event would receive. A component whose callbacks would
// only move work into a queue that nothing can look at between two of its
// own events (the link's propagation delay, DESIGN.md §3.3) can Reserve at
// submission time, schedule nothing, and ask Passed when it next looks: it
// then acts on exactly the work whose per-item events would have fired by
// now, in the order they would have fired.
type Reservation struct {
	at  time.Duration
	key uint64
}

// Ranked returns the priority of rank's event at instant at: after every
// reservation of that instant, before every At and Reschedule of it, and
// among the other ranked sources' events of it by rank — wherever and
// whenever it is armed.
func Ranked(at time.Duration, rank uint32) Reservation {
	return Reservation{at: at, key: classRanked | uint64(rank)}
}

// Time returns the virtual time the reservation is for.
func (r Reservation) Time() time.Duration { return r.at }

// Sequencer is implemented by clocks that support priority reservations:
// the Loop, live or virtual. The reference clocks of the link and
// scenario tests are not, so a link on one schedules an event per arrival
// and fires every opportunity: the oracle the admit rule is checked
// against (DESIGN.md §3.3).
type Sequencer interface {
	// Reserve consumes the priority of an arrival d from now, without
	// scheduling anything.
	Reserve(d time.Duration) Reservation
	// Passed reports whether an event scheduled at r would already have
	// fired.
	Passed(r Reservation) bool
}

// Loop is a discrete-event simulation loop. The zero value is ready to use.
//
// The loop is not reentrant: a callback may schedule, re-arm, stop,
// reserve and even Reset, but calling Run or Step from inside one panics.
type Loop struct {
	now   time.Duration
	seq   uint64
	ranks uint32  // ranks handed out; Reset keeps it
	heap  []entry // min-heap on (at, key); every entry but held is live
	free  []*slot // retired slots awaiting reuse

	// held is the firing event's slot while its callback runs, until the
	// callback's first At takes it over (nil otherwise). It stays at the
	// heap root the whole time: its key sorts before every key scheduled
	// since, so nothing can displace it.
	held *slot
	busy bool // inside Run or Step; guards against reentry

	// firing bounds the events of the current instant that have fired:
	// those with a smaller key. It is the firing event's own key while
	// its handler runs (and after Step returns), the next class-2 key
	// once Run has reached its horizon, 0 after Reset. See Passed.
	firing uint64
	fired  uint64 // events run since Reset
}

// New returns a Loop starting at virtual time zero.
func New() *Loop { return &Loop{} }

// Now returns the current virtual time.
func (l *Loop) Now() time.Duration { return l.now }

// alloc takes a slot from the free list, growing the arena by one block
// when empty.
func (l *Loop) alloc() *slot {
	if n := len(l.free); n > 0 {
		s := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return s
	}
	block := make([]slot, slotBlock)
	for i := range block {
		block[i].loop = l
		block[i].idx = -1
	}
	for i := 1; i < len(block); i++ {
		l.free = append(l.free, &block[i])
	}
	return &block[0]
}

// retire returns a cancelled slot to the free list, invalidating
// outstanding Timer handles via the generation counter.
func (l *Loop) retire(s *slot) {
	s.fn = nil
	s.gen++
	s.idx = -1
	l.free = append(l.free, s)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// fires the event at the current time instead (events never run backward).
//
// The first At a callback makes takes over the firing event's slot, which
// is still the heap root: it gets the new key and sinks to its place, one
// sift where a pop and a push would be two.
func (l *Loop) At(t time.Duration, fn func()) Timer {
	if t < l.now {
		t = l.now
	}
	key := classOther | l.seq
	l.seq++
	return l.schedule(t, key, fn)
}

// schedule puts fn in the heap at (at, key), taking over the held firing
// slot when there is one.
func (l *Loop) schedule(at time.Duration, key uint64, fn func()) Timer {
	e := entry{at: at, key: key}
	if s := l.held; s != nil {
		l.held = nil
		s.fn = fn
		e.s = s
		l.heap[0] = e
		l.siftDown(0)
		return Timer{s: s, gen: s.gen}
	}
	s := l.alloc()
	s.fn = fn
	e.s = s
	s.idx = int32(len(l.heap))
	l.heap = append(l.heap, e)
	l.siftUp(len(l.heap) - 1)
	return Timer{s: s, gen: s.gen}
}

// After schedules fn to run d after the current virtual time.
func (l *Loop) After(d time.Duration, fn func()) Timer {
	return l.At(l.now+d, fn)
}

// Reschedule implements Clock: it re-arms t to fire fn d from now,
// reusing t's slot in place when t is still pending on this loop. Exactly
// one sequence number is consumed, the same as After, so replacing a
// Stop+After pair with Reschedule leaves the event order untouched.
func (l *Loop) Reschedule(t Timer, d time.Duration, fn func()) Timer {
	at := l.now + d
	if at < l.now {
		at = l.now
	}
	key := classOther | l.seq
	l.seq++
	return l.rearm(t, at, key, fn)
}

// RescheduleAt implements Clock: it re-arms t to fire fn at r's priority,
// reusing t's slot in place when t is still pending on this loop. A
// priority that sorts before the loop's position — an earlier instant, or
// the current one ahead of the event now firing, as a source armed from
// another event's callback would be — is never taken: the event fires at
// the current instant after everything already scheduled for it, as At
// does for a past time. So nothing a callback schedules sorts before it.
func (l *Loop) RescheduleAt(t Timer, r Reservation, fn func()) Timer {
	if r.at < l.now || r.at == l.now && r.key < l.firing {
		r = Reservation{at: l.now, key: classOther | l.seq}
		l.seq++
	}
	return l.rearm(t, r.at, r.key, fn)
}

// rearm is Reschedule and RescheduleAt once the new key is known.
func (l *Loop) rearm(t Timer, at time.Duration, key uint64, fn func()) Timer {
	if s := t.s; s != nil && s.loop == l {
		if s.gen == t.gen && s.idx >= 0 {
			e := &l.heap[s.idx]
			e.at, e.key, s.fn = at, key, fn
			s.gen++ // invalidate the old handle
			l.fix(int(s.idx))
			return Timer{s: s, gen: s.gen}
		}
		// A stale handle on this loop (the periodic pattern: the event
		// fired, invalidating its handles, before the callback re-armed it)
		// has nothing to stop — schedule fresh without the Stop round trip,
		// which takes over the firing slot if this is the callback's first.
		return l.schedule(at, key, fn)
	}
	t.Stop()
	return l.schedule(at, key, fn)
}

// NewRank implements Clock: ranks are handed out in creation order, and
// Reset does not rewind them, so a component built once and reset for
// every run keeps its rank (DESIGN.md §8.5).
func (l *Loop) NewRank() uint32 {
	l.ranks++
	return l.ranks - 1
}

// Reserve implements Sequencer: it consumes the priority of an arrival d
// from now (class 0, in reservation order), without scheduling anything.
// One for the current instant taken while a later class fires, or after
// Run or Step has fired one, would sort before the event now firing; it
// takes the next class-2 key instead, so it lands after the events of the
// instant already scheduled, as At would.
func (l *Loop) Reserve(d time.Duration) Reservation {
	at := l.now + d
	if at < l.now {
		at = l.now
	}
	r := Reservation{at: at, key: classReserved | l.seq}
	if at == l.now && r.key < l.firing {
		r.key = classOther | l.seq
	}
	l.seq++
	return r
}

// Passed implements Sequencer: it reports whether an event scheduled at
// r's priority would already have fired. Inside a handler that is "r sorts
// before the event now firing"; once Run has returned it is every
// reservation up to Run's horizon, but not one taken since (its event
// would wait for the next Run); on a Reset loop it is nothing.
func (l *Loop) Passed(r Reservation) bool {
	if r.at != l.now {
		return r.at < l.now
	}
	return r.key < l.firing
}

// stopSlot cancels the event in s if the handle generation still matches.
// The slot is removed from the heap immediately and recycled, so cancelled
// ghosts never accumulate and Pending stays exact without scanning.
func (l *Loop) stopSlot(s *slot, gen uint32) bool {
	if s.gen != gen || s.idx < 0 {
		return false
	}
	l.remove(int(s.idx))
	l.retire(s)
	return true
}

// Step runs the single earliest pending event, advancing the clock to its
// time. It reports whether an event was run.
func (l *Loop) Step() bool {
	l.enter()
	ran := len(l.heap) > 0
	if ran {
		l.fire()
	}
	l.busy = false
	return ran
}

// Run executes events in order until the event queue is empty or the next
// event is later than until. The clock finishes at until (or at the last
// event time if that is later — it never rewinds).
func (l *Loop) Run(until time.Duration) {
	l.enter()
	for len(l.heap) > 0 && l.heap[0].at <= until {
		l.fire()
	}
	l.busy = false
	if until >= l.now {
		// Every event up to the horizon has fired, whatever its key;
		// one scheduled since takes a class-2 key at least this one.
		// (An earlier horizon than the clock ran nothing.)
		l.now, l.firing = until, classOther|l.seq
	}
}

// enter marks the loop busy for one Run or Step, panicking if it already
// is: a callback that drove the loop would fire the held root's nil fn.
func (l *Loop) enter() {
	if l.busy {
		panic("sim: Run or Step called from an event callback; the loop is not reentrant")
	}
	l.busy = true
}

// fire runs the root event; it is the one fire path of Run and Step. The
// slot's generation is bumped before the callback, so the event's handles
// are stale inside it, and the slot stays at the root as held until the
// callback's first At takes it over. If the callback schedules nothing
// (and does not Reset), the root is popped after it returns.
func (l *Loop) fire() {
	e := l.heap[0]
	s := e.s
	l.now, l.firing = e.at, e.key
	l.fired++
	fn := s.fn
	s.fn = nil
	s.gen++
	l.held = s
	fn()
	if l.held != nil {
		l.held = nil
		l.remove(0)
		s.idx = -1
		l.free = append(l.free, s)
	}
}

// Fired returns the number of events run since Reset (or New).
func (l *Loop) Fired() uint64 { return l.fired }

// NextAt returns the time of the earliest pending event, and false when
// none is pending. It is a driver's question, asked between runs: inside
// a callback the firing event still holds the heap's root.
func (l *Loop) NextAt() (time.Duration, bool) {
	if len(l.heap) == 0 {
		return 0, false
	}
	return l.heap[0].at, true
}

// Pending returns the number of scheduled events; inside a callback the
// firing event is not one of them. Cancellation removes events from the
// heap eagerly, so this is an exact O(1) count.
func (l *Loop) Pending() int {
	if l.held != nil {
		return len(l.heap) - 1
	}
	return len(l.heap)
}

// Reset restores the loop to its initial state — virtual time zero, empty
// event queue, sequence and fired-event counters zero — without freeing the
// slot arena, so a reused loop schedules its first events with no
// allocation. Every pending event is cancelled and every outstanding Timer
// handle invalidated (Stop on one returns false, exactly as after firing),
// and no reservation has passed. Called from a callback, it also recycles
// the firing event's held slot. Ranks are kept: they belong to sources
// that outlive the run. A reset loop is indistinguishable from a fresh one
// to its callers: the priorities handed out after Reset replay those of a
// new Loop whose sources were created in the same order, which is what
// keeps reused-world experiment runs byte-identical to fresh-world runs.
func (l *Loop) Reset() {
	for _, e := range l.heap {
		l.retire(e.s)
	}
	l.heap = l.heap[:0]
	l.held = nil
	l.now, l.seq = 0, 0
	l.firing, l.fired = 0, 0
}

// --- min-heap on (at, key), keys inline, indices tracked in the slots ---

// before reports whether x sorts before (at, key). Keys are unique, so the
// order is strict and total: the pop sequence is fixed whatever the heap's
// layout.
func (x *entry) before(at time.Duration, key uint64) bool {
	return x.at < at || x.at == at && x.key < key
}

// remove deletes the entry at heap index i, restoring the heap property.
func (l *Loop) remove(i int) {
	h := l.heap
	n := len(h) - 1
	l.heap = h[:n]
	if i != n {
		h[i] = h[n]
		h[i].s.idx = int32(i)
		l.fix(i)
	}
}

// fix restores the heap property around index i after its key changed.
func (l *Loop) fix(i int) {
	if !l.siftDown(i) {
		l.siftUp(i)
	}
}

// siftUp moves the entry at i toward the root. Callers guarantee
// h[i].s.idx == i on entry, so an unmoved entry needs no stores at all —
// the common case for events scheduled in time order.
func (l *Loop) siftUp(i int) {
	h := l.heap
	e := h[i]
	start := i
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].before(e.at, e.key) {
			break
		}
		h[i] = h[parent]
		h[i].s.idx = int32(i)
		i = parent
	}
	if i != start {
		h[i] = e
		e.s.idx = int32(i)
	}
}

// siftDown moves the entry at i toward the leaves; it reports whether the
// entry moved. Which sibling is smaller is a coin flip no predictor
// learns, so that choice is arithmetic (child += d) rather than a branch.
func (l *Loop) siftDown(i int) bool {
	h := l.heap
	n := len(h)
	e := h[i]
	start := i
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n {
			a, b := &h[child], &h[r]
			child += b2i(b.at < a.at) | b2i(b.at == a.at)&b2i(b.key < a.key)
		}
		if !h[child].before(e.at, e.key) {
			break
		}
		h[i] = h[child]
		h[i].s.idx = int32(i)
		i = child
	}
	if i == start {
		return false
	}
	h[i] = e
	e.s.idx = int32(i)
	return true
}

// b2i is 1 for true and 0 for false; the compiler emits it as a SETcc.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
