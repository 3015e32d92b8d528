package sim

import (
	"math/rand"
	"testing"
	"time"
)

func TestLoopOrdering(t *testing.T) {
	l := New()
	var order []int
	l.After(30*time.Millisecond, func() { order = append(order, 3) })
	l.After(10*time.Millisecond, func() { order = append(order, 1) })
	l.After(20*time.Millisecond, func() { order = append(order, 2) })
	l.Run(time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
}

func TestLoopFIFOTieBreak(t *testing.T) {
	l := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		l.At(time.Millisecond, func() { order = append(order, i) })
	}
	l.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestLoopClockAdvances(t *testing.T) {
	l := New()
	var at time.Duration
	l.After(50*time.Millisecond, func() { at = l.Now() })
	l.Run(time.Second)
	if at != 50*time.Millisecond {
		t.Errorf("event saw Now = %v, want 50ms", at)
	}
	if l.Now() != time.Second {
		t.Errorf("final Now = %v, want 1s", l.Now())
	}
}

func TestLoopRunStopsAtUntil(t *testing.T) {
	l := New()
	fired := false
	l.After(2*time.Second, func() { fired = true })
	l.Run(time.Second)
	if fired {
		t.Error("event beyond until fired")
	}
	l.Run(3 * time.Second)
	if !fired {
		t.Error("event did not fire on later Run")
	}
}

func TestLoopNestedScheduling(t *testing.T) {
	l := New()
	var times []time.Duration
	var tick func()
	tick = func() {
		times = append(times, l.Now())
		if len(times) < 5 {
			l.After(20*time.Millisecond, tick)
		}
	}
	l.After(0, tick)
	l.Run(time.Second)
	if len(times) != 5 {
		t.Fatalf("got %d ticks, want 5", len(times))
	}
	for i, ts := range times {
		want := time.Duration(i) * 20 * time.Millisecond
		if ts != want {
			t.Errorf("tick %d at %v, want %v", i, ts, want)
		}
	}
}

func TestTimerStop(t *testing.T) {
	l := New()
	fired := false
	tm := l.After(10*time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Error("Stop returned false on pending timer")
	}
	if tm.Stop() {
		t.Error("second Stop returned true")
	}
	l.Run(time.Second)
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	l := New()
	tm := l.After(0, func() {})
	l.Run(time.Second)
	if tm.Stop() {
		t.Error("Stop after fire returned true")
	}
}

func TestSchedulingInPastClamps(t *testing.T) {
	l := New()
	var at time.Duration
	l.After(100*time.Millisecond, func() {
		l.At(10*time.Millisecond, func() { at = l.Now() }) // in the past
	})
	l.Run(time.Second)
	if at != 100*time.Millisecond {
		t.Errorf("past event ran at %v, want clamped to 100ms", at)
	}
}

func TestPending(t *testing.T) {
	l := New()
	a := l.After(time.Millisecond, func() {})
	l.After(time.Millisecond, func() {})
	if got := l.Pending(); got != 2 {
		t.Errorf("Pending = %d, want 2", got)
	}
	a.Stop()
	if got := l.Pending(); got != 1 {
		t.Errorf("Pending = %d, want 1", got)
	}
}

func TestStep(t *testing.T) {
	l := New()
	n := 0
	l.After(time.Millisecond, func() { n++ })
	l.After(2*time.Millisecond, func() { n++ })
	if !l.Step() || n != 1 {
		t.Fatalf("first Step: n=%d", n)
	}
	if !l.Step() || n != 2 {
		t.Fatalf("second Step: n=%d", n)
	}
	if l.Step() {
		t.Error("Step on empty queue returned true")
	}
}

// TestNestedRunPanics: the loop is not reentrant. A callback that drives it
// gets a clear panic rather than firing its own held slot.
func TestNestedRunPanics(t *testing.T) {
	for name, nested := range map[string]func(*Loop){
		"Run":  func(l *Loop) { l.Run(time.Second) },
		"Step": func(l *Loop) { l.Step() },
	} {
		l := New()
		var got any
		l.After(time.Millisecond, func() {
			defer func() { got = recover() }()
			nested(l)
		})
		l.Run(time.Second)
		if msg, _ := got.(string); msg != "sim: Run or Step called from an event callback; the loop is not reentrant" {
			t.Errorf("%s from a callback: recovered %v, want the reentrancy panic", name, got)
		}
	}
}

func BenchmarkLoopThroughput(b *testing.B) {
	l := New()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			l.After(time.Microsecond, tick)
		}
	}
	l.After(0, tick)
	b.ResetTimer()
	l.Run(time.Duration(b.N+1) * time.Microsecond)
}

func TestFiredCountsEvents(t *testing.T) {
	l := New()
	for i := 0; i < 5; i++ {
		l.After(time.Duration(i)*time.Millisecond, func() {})
	}
	l.After(time.Millisecond, func() {}).Stop() // a cancelled event never runs
	l.Reserve(time.Millisecond)                 // nor does a reservation
	l.Step()
	l.Run(2 * time.Millisecond)
	if got := l.Fired(); got != 3 {
		t.Errorf("Fired = %d after one Step and a Run over two events, want 3", got)
	}
	l.Run(time.Second)
	if got := l.Fired(); got != 5 {
		t.Errorf("Fired = %d, want 5", got)
	}
	l.Reset()
	if got := l.Fired(); got != 0 {
		t.Errorf("Fired = %d after Reset, want 0", got)
	}
}

// passedProgram runs a seeded random program of loop operations — At,
// Reschedule, Stop, Reserve and ranked priorities with delays small enough
// to tie, from inside handlers and from outside — and returns the answer
// to every "has this priority passed?" it asks: inside handlers, after
// Run, after a Run whose horizon is behind the clock, after Step, and on a
// Reset loop. The priorities span the three classes: reservations for a
// later instant (class 0) and for the current one (class 2 once an event
// of it has fired), and ranked sources' (class 1). With markers the
// priority is a real event scheduled at it (RescheduleAt, which consumes
// no sequence number) and the answer is whether that event has fired;
// without, it is Loop.Passed.
func passedProgram(seed int64, markers bool) []bool {
	rng := rand.New(rand.NewSource(seed))
	l := New()
	var (
		answers []bool
		asks    []func() bool
		timers  []Timer
		budget  int
		handled int
		handler func()
	)
	delay := func() time.Duration {
		return []time.Duration{-1, 0, 0, 1, 1, 2, 3}[rng.Intn(7)] * time.Millisecond
	}
	reserve := func() {
		var r Reservation
		if rng.Intn(3) == 0 {
			// A ranked source's priority, for a later instant: one at the
			// current one would sort before the event now firing.
			r = Ranked(l.Now()+time.Duration(1+rng.Intn(3))*time.Millisecond, l.NewRank())
		} else {
			r = l.Reserve(delay())
		}
		if markers {
			fired := false
			l.RescheduleAt(Timer{}, r, func() { fired = true })
			asks = append(asks, func() bool { return fired })
			return
		}
		asks = append(asks, func() bool { return l.Passed(r) })
	}
	ask := func() {
		for _, a := range asks {
			answers = append(answers, a())
		}
	}
	act := func(n int) {
		for ; n > 0 && budget > 0; n-- {
			budget--
			switch rng.Intn(6) {
			case 0, 1:
				timers = append(timers, l.At(l.Now()+delay(), handler))
			case 2, 3:
				reserve()
			case 4:
				if len(timers) > 0 {
					i := rng.Intn(len(timers))
					timers[i] = l.Reschedule(timers[i], delay(), handler)
				}
			case 5:
				if len(timers) > 0 {
					timers[rng.Intn(len(timers))].Stop()
				}
			}
		}
	}
	handler = func() {
		handled++
		ask()
		act(rng.Intn(4))
		ask() // reservations taken inside this handler have not passed
	}
	for round := 0; round < 2; round++ {
		asks, timers, budget = asks[:0], timers[:0], 150
		for phase := 0; budget > 0; phase++ {
			act(8)
			ask()
			switch phase % 3 {
			case 0:
				l.Run(l.Now() + delay())
			case 1:
				// One program event; the markers sorted before it go with it.
				l.After(2*time.Millisecond, handler)
				for before := handled; handled == before; {
					l.Step()
				}
			case 2:
				l.Run(l.Now() - time.Millisecond) // runs nothing
			}
			ask()
		}
		l.Run(l.Now() + time.Second)
		ask()
		// Nothing has passed on a reset loop, whatever fired before it.
		l.Reset()
		asks = asks[:0]
		reserve()
		ask()
	}
	return answers
}

// TestPassedMatchesMarkerEvents is Passed's definition as a property: at
// every point a program can ask, Passed(r) equals "an event scheduled at r
// has fired".
func TestPassedMatchesMarkerEvents(t *testing.T) {
	var yes, no int
	for seed := int64(1); seed <= 200; seed++ {
		got, want := passedProgram(seed, false), passedProgram(seed, true)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d answers from Passed, %d from marker events", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: answer %d: Passed = %v, marker event fired = %v", seed, i, got[i], want[i])
			}
			if got[i] {
				yes++
			} else {
				no++
			}
		}
	}
	if yes < 1000 || no < 1000 {
		t.Errorf("program asked %d passed and %d pending reservations; want plenty of both", yes, no)
	}
}
