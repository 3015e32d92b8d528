package sim

import (
	"math/rand"
	"testing"
	"time"
)

// refQueue is the reference the Loop is checked against: the same contract
// with none of its machinery. Pending events sit in a slice scanned
// linearly for the minimum (at, key); a handle is the event's unique id.
type refQueue struct {
	now    time.Duration
	seq    uint64
	ranks  uint32
	firing uint64
	fired  uint64
	lastID uint64
	events []refEvent
}

type refEvent struct {
	at  time.Duration
	key uint64
	id  uint64
	fn  func()
}

func (q *refQueue) Now() time.Duration { return q.now }
func (q *refQueue) Pending() int       { return len(q.events) }
func (q *refQueue) Fired() uint64      { return q.fired }

func (q *refQueue) NextAt() (time.Duration, bool) {
	if len(q.events) == 0 {
		return 0, false
	}
	at := q.events[0].at
	for _, e := range q.events[1:] {
		at = min(at, e.at)
	}
	return at, true
}

func (q *refQueue) At(t time.Duration, fn func()) uint64 {
	q.seq++
	return q.add(max(t, q.now), classOther|(q.seq-1), fn)
}

func (q *refQueue) add(at time.Duration, key uint64, fn func()) uint64 {
	q.lastID++
	q.events = append(q.events, refEvent{at: at, key: key, id: q.lastID, fn: fn})
	return q.lastID
}

func (q *refQueue) After(d time.Duration, fn func()) uint64 { return q.At(q.now+d, fn) }

func (q *refQueue) Stop(id uint64) bool {
	for i, e := range q.events {
		if e.id == id {
			q.events = append(q.events[:i], q.events[i+1:]...)
			return true
		}
	}
	return false
}

func (q *refQueue) Reschedule(id uint64, d time.Duration, fn func()) uint64 {
	q.Stop(id)
	return q.After(d, fn)
}

// before reports whether (at, key) sorts before the queue's position:
// the instant now, among its events the one firing (or last fired).
func (q *refQueue) before(at time.Duration, key uint64) bool {
	return at < q.now || at == q.now && key < q.firing
}

// Reserve: an arrival, in reservation order, unless it would sort before
// the position; then it is the instant's next class-2 event.
func (q *refQueue) Reserve(d time.Duration) Reservation {
	r := Reservation{at: max(q.now+d, q.now), key: classReserved | q.seq}
	if q.before(r.at, r.key) {
		r.key = classOther | q.seq
	}
	q.seq++
	return r
}

func (q *refQueue) Passed(r Reservation) bool { return q.before(r.at, r.key) }

func (q *refQueue) NewRank() uint32 {
	q.ranks++
	return q.ranks - 1
}

// RescheduleAt: at r, unless r sorts before the position; then at the
// current instant, after everything scheduled for it.
func (q *refQueue) RescheduleAt(id uint64, r Reservation, fn func()) uint64 {
	q.Stop(id)
	if q.before(r.at, r.key) {
		q.seq++
		return q.add(q.now, classOther|(q.seq-1), fn)
	}
	return q.add(r.at, r.key, fn)
}

// next returns the index of the earliest pending event, or -1.
func (q *refQueue) next() int {
	m := -1
	for i, e := range q.events {
		if m < 0 || e.at < q.events[m].at || e.at == q.events[m].at && e.key < q.events[m].key {
			m = i
		}
	}
	return m
}

func (q *refQueue) fire(i int) {
	e := q.events[i]
	q.events = append(q.events[:i], q.events[i+1:]...)
	q.now, q.firing = e.at, e.key
	q.fired++
	e.fn()
}

func (q *refQueue) Step() bool {
	i := q.next()
	if i >= 0 {
		q.fire(i)
	}
	return i >= 0
}

func (q *refQueue) Run(until time.Duration) {
	for i := q.next(); i >= 0 && q.events[i].at <= until; i = q.next() {
		q.fire(i)
	}
	if until >= q.now {
		q.now, q.firing = until, classOther|q.seq
	}
}

// Reset keeps the ranks: they belong to the sources, not the run.
func (q *refQueue) Reset() {
	q.events = q.events[:0]
	q.now, q.seq, q.firing, q.fired = 0, 0, 0, 0
}

// queue is what a program drives: the Loop's surface with Stop taking the
// handle, so the Loop and the reference run one interpreter.
type queue[H any] interface {
	Now() time.Duration
	Pending() int
	Fired() uint64
	NextAt() (time.Duration, bool)
	At(t time.Duration, fn func()) H
	After(d time.Duration, fn func()) H
	Reschedule(h H, d time.Duration, fn func()) H
	Stop(h H) bool
	Reserve(d time.Duration) Reservation
	Passed(r Reservation) bool
	NewRank() uint32
	RescheduleAt(h H, r Reservation, fn func()) H
	Step() bool
	Run(until time.Duration)
	Reset()
}

type loopQueue struct{ *Loop }

func (loopQueue) Stop(t Timer) bool { return t.Stop() }

// record is one observation a program makes. The Loop and the reference
// must make equal sequences of them.
type record struct {
	what    string
	id      uint64 // the event that fired, for "fire"
	ok      bool   // the answer of Stop, Passed, Step or NextAt
	now     time.Duration
	next    time.Duration // NextAt's time, for "next"
	pending int
	fired   uint64
}

// program interprets bytes as loop operations, from the top level and
// from inside every callback, and logs what it observes. When the bytes
// run out callbacks schedule nothing more, so every program ends.
type program[H any] struct {
	q      queue[H]
	code   []byte
	pc     int
	hs     []H // the handles the program holds
	srcs   []source[H]
	res    []Reservation
	lastID uint64
	log    []record
}

// source is a ranked event source: its rank and the handle of its one
// event, which only the source re-arms.
type source[H any] struct {
	rank uint32
	h    H
}

const maxSources = 4

const maxHandles = 32

// delays tie often and include the past, which At clamps to now.
var delays = [8]time.Duration{-time.Millisecond, 0, 0, time.Millisecond, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 5 * time.Millisecond}

func (p *program[H]) done() bool { return p.pc >= len(p.code) }

func (p *program[H]) next() int {
	if p.done() {
		return 0
	}
	p.pc++
	return int(p.code[p.pc-1])
}

func (p *program[H]) delay() time.Duration { return delays[p.next()%len(delays)] }

func (p *program[H]) observe(what string, ok bool) {
	p.log = append(p.log, record{what: what, ok: ok, now: p.q.Now(), pending: p.q.Pending(), fired: p.q.Fired()})
}

// observeNext logs when the next pending event is due, as a driver asks
// between runs.
func (p *program[H]) observeNext() {
	at, ok := p.q.NextAt()
	p.log = append(p.log, record{what: "next", ok: ok, now: p.q.Now(), next: at, pending: p.q.Pending(), fired: p.q.Fired()})
}

// slot picks where a new handle goes: appended, or over an old one (whose
// event stays pending, unreachable) once the program holds maxHandles.
func (p *program[H]) slot() int {
	if len(p.hs) < maxHandles {
		var zero H
		p.hs = append(p.hs, zero)
		return len(p.hs) - 1
	}
	return p.next() % maxHandles
}

// schedule stores in hs[k] the handle mk returns for a new event whose
// callback knows k as its own handle.
func (p *program[H]) schedule(k int, mk func(fn func()) H) {
	p.lastID++
	id := p.lastID
	p.hs[k] = mk(func() { p.fire(id, k) })
}

func (p *program[H]) pick() int { return p.next() % len(p.hs) }

// maybeReset resets the queue one time in eight.
func (p *program[H]) maybeReset() {
	if p.next()%8 == 0 {
		p.q.Reset()
		p.observe("reset", false)
	}
}

// fire is every event's callback: it logs the firing, then acts with
// hs[k] and the stale handle it held on entry as its own.
func (p *program[H]) fire(id uint64, k int) {
	p.log = append(p.log, record{what: "fire", id: id, now: p.q.Now(), pending: p.q.Pending(), fired: p.q.Fired()})
	own := p.hs[k]
	for n := p.next() % 4; n > 0 && !p.done(); n-- {
		p.act(k, own)
	}
}

// source returns a ranked source's index, making a new one (with a new
// rank) now and then until there are maxSources.
func (p *program[H]) source() int {
	if n := len(p.srcs); n == 0 || n < maxSources && p.next()%4 == 0 {
		p.srcs = append(p.srcs, source[H]{rank: p.q.NewRank()})
	}
	return p.next() % len(p.srcs)
}

// armSource re-arms source i's event at its rank's priority, past times
// and the current instant included: only a re-arm at the instant of the
// source's own firing event keeps that priority; one from an earlier rank's
// or a later class's event sorts after the event now firing.
func (p *program[H]) armSource(i int) {
	p.lastID++
	id := p.lastID
	r := Ranked(p.q.Now()+p.delay(), p.srcs[i].rank)
	p.srcs[i].h = p.q.RescheduleAt(p.srcs[i].h, r, func() { p.fireSource(id, i) })
}

// fireSource is every ranked event's callback: it logs the firing, then
// re-arms its source or acts as from outside.
func (p *program[H]) fireSource(id uint64, i int) {
	p.log = append(p.log, record{what: "fire ranked", id: id, now: p.q.Now(), pending: p.q.Pending(), fired: p.q.Fired()})
	var none H
	for n := p.next() % 4; n > 0 && !p.done(); n-- {
		if p.next()%3 == 0 {
			p.armSource(i)
		} else {
			p.act(-1, none)
		}
	}
}

// act runs one operation; k < 0 outside callbacks, where "own" means a
// handle picked at random (the zero handle before the first event).
func (p *program[H]) act(k int, own H) {
	if k < 0 {
		if len(p.hs) == 0 {
			p.slot()
		}
		k = p.pick()
		own = p.hs[k]
	}
	switch p.next() % 20 {
	case 0, 1, 13: // At, past times included
		p.schedule(p.slot(), func(fn func()) H { return p.q.At(p.q.Now()+p.delay(), fn) })
	case 2, 14:
		p.schedule(p.slot(), func(fn func()) H { return p.q.After(p.delay(), fn) })
	case 3: // re-arm the own handle as it stands now
		p.schedule(k, func(fn func()) H { return p.q.Reschedule(p.hs[k], p.delay(), fn) })
	case 4: // re-arm the handle held on entry, again each time
		p.schedule(p.slot(), func(fn func()) H { return p.q.Reschedule(own, p.delay(), fn) })
	case 5, 6: // re-arm another timer, pending or not
		i := p.pick()
		p.schedule(i, func(fn func()) H { return p.q.Reschedule(p.hs[i], p.delay(), fn) })
	case 7:
		p.observe("stop", p.q.Stop(p.hs[p.pick()]))
	case 8:
		p.observe("stop own", p.q.Stop(own))
	case 9:
		p.res = append(p.res, p.q.Reserve(p.delay()))
	case 10:
		if len(p.res) > 0 {
			p.observe("passed", p.q.Passed(p.res[p.next()%len(p.res)]))
		}
	case 11:
		p.observe("state", false)
	case 12: // several events from one call site, ties likely
		for n := 2 + p.next()%4; n > 0; n-- {
			p.schedule(p.slot(), func(fn func()) H { return p.q.After(p.delay(), fn) })
		}
	case 15:
		p.maybeReset()
	case 16:
		p.armSource(p.source())
	case 17: // an event at a reservation's priority: class 0, or 2 at now
		var none H
		p.schedule(p.slot(), func(fn func()) H { return p.q.RescheduleAt(none, p.q.Reserve(p.delay()), fn) })
	case 18: // re-arm a held timer, pending or not, at a reservation's
		i := p.pick()
		p.schedule(i, func(fn func()) H { return p.q.RescheduleAt(p.hs[i], p.q.Reserve(p.delay()), fn) })
	case 19:
		if len(p.srcs) > 0 {
			r := Ranked(p.q.Now()+p.delay(), p.srcs[p.next()%len(p.srcs)].rank)
			p.observe("passed ranked", p.q.Passed(r))
		}
	}
}

// runProgram drives q with code and returns what it observed.
func runProgram[H any](q queue[H], code []byte) []record {
	p := &program[H]{q: q, code: code}
	var none H
	for !p.done() {
		switch p.next() % 8 {
		case 0, 1, 2:
			for n := 1 + p.next()%4; n > 0; n-- {
				p.act(-1, none)
			}
		case 3:
			p.q.Run(p.q.Now() + p.delay())
			p.observe("run", false)
			p.observeNext()
		case 4:
			p.q.Run(p.q.Now() - time.Millisecond) // runs nothing
			p.observe("run behind", false)
		case 5:
			p.observe("step", p.q.Step())
			p.observeNext()
		case 6:
			p.maybeReset()
		case 7:
			p.observe("state", false)
		}
	}
	p.q.Run(p.q.Now() + time.Hour)
	p.observe("drained", false)
	return p.log
}

// checkAgainstReference runs code on a Loop and on the reference and fails
// at the first observation where they differ. It returns the Loop's log.
func checkAgainstReference(t *testing.T, code []byte) []record {
	t.Helper()
	got := runProgram[Timer](loopQueue{New()}, code)
	want := runProgram[uint64](&refQueue{}, code)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("observation %d: Loop %+v, reference %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("Loop made %d observations, reference %d", len(got), len(want))
	}
	return got
}

// TestLoopMatchesReference: on seeded random programs, the Loop fires
// every event where the naive queue does, and answers every question the
// same: Now, Pending and Fired inside and between callbacks, NextAt
// between runs, Stop on pending, fired and own handles, and Passed on
// reservations and ranked priorities. The programs schedule all three classes: events at
// reservations, ranked sources' events (re-armed at their own instant,
// from other events and in the past) and At/Reschedule.
func TestLoopMatchesReference(t *testing.T) {
	counts := map[string]int{}
	for seed := int64(1); seed <= 300; seed++ {
		code := make([]byte, 800)
		rand.New(rand.NewSource(seed)).Read(code)
		for _, r := range checkAgainstReference(t, code) {
			switch r.what {
			case "stop", "stop own", "passed", "passed ranked", "step", "next":
				if r.ok {
					counts[r.what+" true"]++
				} else {
					counts[r.what+" false"]++
				}
			default:
				counts[r.what]++
			}
		}
	}
	for _, what := range []string{"fire", "fire ranked", "stop true", "stop false", "stop own false", "passed true", "passed false",
		"passed ranked true", "passed ranked false", "step true", "step false", "next true", "next false", "reset", "run"} {
		if counts[what] < 20 {
			t.Errorf("%q observed %d times over all programs; want at least 20", what, counts[what])
		}
	}
	if counts["fire"] < 20000 {
		t.Errorf("%d events fired; want at least 20000", counts["fire"])
	}
}

func FuzzLoop(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		code := make([]byte, 64<<(seed%5))
		rand.New(rand.NewSource(seed)).Read(code)
		f.Add(code)
	}
	f.Fuzz(func(t *testing.T, code []byte) {
		if len(code) > 4096 {
			code = code[:4096]
		}
		checkAgainstReference(t, code)
	})
}
