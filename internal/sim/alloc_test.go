package sim

import (
	"testing"
	"time"
)

// TestAfterStepSteadyStateAllocs: a self-rescheduling timer cycle —
// the shape of every periodic component in the simulator — must not
// allocate once the slot arena has warmed up.
func TestAfterStepSteadyStateAllocs(t *testing.T) {
	l := New()
	var tick func()
	tick = func() { l.After(time.Millisecond, tick) }
	l.After(0, tick)
	for i := 0; i < 100; i++ { // warm the arena
		l.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		l.Step()
	})
	if allocs != 0 {
		t.Errorf("After+Step cycle allocates %v allocs/op, want 0", allocs)
	}
}

// TestRescheduleSteadyStateAllocs: re-arming a pending timer in place must
// not allocate at all, even without a Step in between.
func TestRescheduleSteadyStateAllocs(t *testing.T) {
	l := New()
	fn := func() {}
	tm := l.After(time.Second, fn)
	allocs := testing.AllocsPerRun(1000, func() {
		tm = l.Reschedule(tm, time.Second, fn)
	})
	if allocs != 0 {
		t.Errorf("Reschedule allocates %v allocs/op, want 0", allocs)
	}
}

// TestReservePassedSteadyStateAllocs covers the link's in-flight pattern:
// reserve at submission, ask Passed from a later event.
func TestReservePassedSteadyStateAllocs(t *testing.T) {
	l := New()
	var res Reservation
	passed := 0
	var tick func()
	tick = func() {
		if l.Passed(res) {
			passed++
		}
		res = l.Reserve(time.Microsecond)
		l.After(2*time.Microsecond, tick)
	}
	l.After(0, tick)
	for i := 0; i < 100; i++ { // warm the arena
		l.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		l.Step()
	})
	if allocs != 0 {
		t.Errorf("Reserve+Passed+Step allocates %v allocs/op, want 0", allocs)
	}
	if passed < 1000 {
		t.Errorf("passed = %d reservations, want one per tick", passed)
	}
}

// TestCallbackTakesOverFiringSlot: a timer that re-arms itself from its
// callback, among 64 background timers doing the same, gets its firing
// slot back every time (the root takeover), so the arena never grows and
// no firing allocates; the handle that fired cannot stop the re-armed one.
func TestCallbackTakesOverFiringSlot(t *testing.T) {
	l := New()
	for i := 0; i < 64; i++ {
		period := time.Duration(1000+7*i) * time.Microsecond
		var fn func()
		fn = func() { l.After(period, fn) }
		l.After(period, fn)
	}
	var tm Timer
	firings, misses := 0, 0
	var tick func()
	tick = func() {
		firings++
		held, old := l.held, tm
		tm = l.Reschedule(tm, 300*time.Microsecond, tick)
		if held == nil || tm.s != held || old.Stop() {
			misses++
		}
	}
	tm = l.After(0, tick)
	arena := len(l.heap) + len(l.free)
	step := func() {
		for before := firings; firings == before; {
			l.Step()
		}
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("a firing allocates %v times, want 0", allocs)
	}
	for firings < 10000 {
		step()
	}
	if misses != 0 {
		t.Errorf("%d of %d re-arms missed the firing slot or left the old handle live", misses, firings)
	}
	if got := len(l.heap) + len(l.free); got != arena {
		t.Errorf("arena grew from %d to %d slots", arena, got)
	}
}

func TestRescheduleReusesSlotInPlace(t *testing.T) {
	l := New()
	var fired []string
	tm := l.After(10*time.Millisecond, func() { fired = append(fired, "old") })
	tm = l.Reschedule(tm, 30*time.Millisecond, func() { fired = append(fired, "new") })
	l.After(20*time.Millisecond, func() { fired = append(fired, "mid") })
	l.Run(time.Second)
	if len(fired) != 2 || fired[0] != "mid" || fired[1] != "new" {
		t.Errorf("fired = %v, want [mid new]", fired)
	}
	if tm.Stop() {
		t.Error("Stop after fire returned true")
	}
}

// TestStaleHandleAfterReuse: once a slot has been recycled for an
// unrelated event, a Stop through the old handle must be a no-op.
func TestStaleHandleAfterReuse(t *testing.T) {
	l := New()
	stale := l.After(time.Millisecond, func() {})
	l.Run(10 * time.Millisecond) // fires; slot returns to the free list
	fired := false
	l.After(time.Millisecond, func() { fired = true }) // reuses the slot
	if stale.Stop() {
		t.Error("stale handle Stop returned true")
	}
	l.Run(time.Second)
	if !fired {
		t.Error("stale handle cancelled an unrelated event")
	}
}

// TestRescheduleInvalidatesOldHandle: after an in-place re-arm, the
// pre-reschedule handle must no longer control the slot.
func TestRescheduleInvalidatesOldHandle(t *testing.T) {
	l := New()
	fired := false
	old := l.After(time.Millisecond, func() {})
	fresh := l.Reschedule(old, 2*time.Millisecond, func() { fired = true })
	if old.Stop() {
		t.Error("old handle Stop returned true after Reschedule")
	}
	l.Run(time.Second)
	if !fired {
		t.Error("old handle cancelled the rescheduled event")
	}
	if fresh.Stop() {
		t.Error("Stop after fire returned true")
	}
}

// TestReservedPriorityOrder: a reservation holds its place by class, not
// by when it was taken: behind the reservations for its instant taken
// before it, ahead of every ranked and At event of that instant, whether
// scheduled before or after it.
func TestReservedPriorityOrder(t *testing.T) {
	l := New()
	var res Reservation
	var early, earlier, ranked, late bool
	l.At(time.Millisecond, func() { early = l.Passed(res) })
	first := l.Reserve(time.Millisecond)
	res = l.Reserve(time.Millisecond)
	l.RescheduleAt(Timer{}, first, func() { earlier = l.Passed(res) })
	l.RescheduleAt(Timer{}, Ranked(time.Millisecond, l.NewRank()), func() { ranked = l.Passed(res) })
	l.At(time.Millisecond, func() { late = l.Passed(res) })
	if l.Passed(res) {
		t.Error("reservation passed before its instant")
	}
	l.Run(time.Second)
	if earlier || !ranked || !early || !late {
		t.Errorf("Passed = %v inside the earlier reservation's event, %v inside a ranked event, %v and %v inside At events scheduled before and after it; want false, true, true, true",
			earlier, ranked, early, late)
	}
	if !l.Passed(res) {
		t.Error("reservation not passed after Run went beyond it")
	}
}

func TestZeroTimerStop(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Error("zero Timer Stop returned true")
	}
}

// TestPendingIsExactAfterStops: cancellation removes events eagerly, so
// Pending never counts ghosts.
func TestPendingIsExactAfterStops(t *testing.T) {
	l := New()
	timers := make([]Timer, 100)
	for i := range timers {
		timers[i] = l.After(time.Duration(i)*time.Millisecond, func() {})
	}
	for i := 0; i < 50; i++ {
		timers[2*i].Stop()
	}
	if got := l.Pending(); got != 50 {
		t.Errorf("Pending = %d, want 50", got)
	}
	n := 0
	for l.Step() {
		n++
	}
	if n != 50 {
		t.Errorf("ran %d events, want 50", n)
	}
}

// BenchmarkLoopTimerReuse measures the Reschedule-based periodic pattern
// used by the sender tick, heartbeat and link opportunity schedule.
func BenchmarkLoopTimerReuse(b *testing.B) {
	l := New()
	var tm Timer
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			tm = l.Reschedule(tm, time.Microsecond, tick)
		}
	}
	tm = l.After(0, tick)
	b.ResetTimer()
	l.Run(time.Duration(b.N+1) * time.Microsecond)
}
