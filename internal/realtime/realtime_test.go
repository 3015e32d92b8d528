package realtime

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"sprout/internal/link"
	"sprout/internal/trace"
)

func TestClockNowAdvances(t *testing.T) {
	c := New(t.Context())
	var a, b time.Duration
	c.Do(func() { a = c.Now() })
	time.Sleep(5 * time.Millisecond)
	c.Do(func() { b = c.Now() })
	if b-a < 5*time.Millisecond {
		t.Errorf("Now advanced %v -> %v across a 5 ms sleep", a, b)
	}
}

// TestAfterFires measures the wall clock, not the loop's: inside the
// callback Now is the event's scheduled instant whenever the driver ran
// it, so only wall time shows a driver that ran the loop ahead.
func TestAfterFires(t *testing.T) {
	c := New(t.Context())
	done := make(chan time.Duration, 1)
	t0 := time.Now()
	c.Do(func() { c.After(10*time.Millisecond, func() { done <- time.Since(t0) }) })
	select {
	case at := <-done:
		if at < 9*time.Millisecond {
			t.Errorf("fired too early: %v of wall time after a 10 ms After", at)
		}
	case <-time.After(time.Second):
		t.Fatal("timer never fired")
	}
}

// TestDriverStopsWithContext: once the clock's context is done its driver
// returns, so a pending timer never fires, a Do returns without running
// its function, and no goroutine is left behind.
func TestDriverStopsWithContext(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(t.Context())
	c := New(ctx)
	fired := make(chan struct{}, 1)
	c.Do(func() { c.After(20*time.Millisecond, func() { fired <- struct{}{} }) })
	cancel()
	time.Sleep(60 * time.Millisecond)
	select {
	case <-fired:
		t.Error("a timer fired after the context was done")
	default:
	}
	ran := false
	t0 := time.Now()
	c.Do(func() { ran = true })
	if d := time.Since(t0); ran || d > 10*time.Millisecond {
		t.Errorf("a Do after the context was done ran its function (%v) or blocked %v", ran, d)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines a second after the context was done, %d before New", runtime.NumGoroutine(), base)
		}
	}
}

func TestAfterNegativeClamps(t *testing.T) {
	c := New(t.Context())
	done := make(chan struct{}, 1)
	c.Do(func() { c.After(-time.Second, func() { done <- struct{}{} }) })
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("negative-delay timer never fired")
	}
}

func TestTimerStop(t *testing.T) {
	c := New(t.Context())
	fired := make(chan struct{}, 1)
	c.Do(func() {
		tm := c.After(50*time.Millisecond, func() { fired <- struct{}{} })
		if !tm.Stop() {
			t.Error("Stop returned false on pending timer")
		}
		if tm.Stop() {
			t.Error("second Stop returned true")
		}
	})
	select {
	case <-fired:
		t.Error("stopped timer fired")
	case <-time.After(100 * time.Millisecond):
	}
}

func TestCallbacksSerialized(t *testing.T) {
	// Many concurrent timers and Do calls must never overlap: guard a
	// plain int with no atomics and let the race detector plus an
	// in-critical-section flag catch overlap.
	c := New(t.Context())
	var wg sync.WaitGroup
	inSection := false
	counter := 0
	body := func() {
		if inSection {
			t.Error("overlapping callbacks")
		}
		inSection = true
		counter++
		inSection = false
	}
	for i := 0; i < 50; i++ {
		wg.Add(2)
		d := time.Duration(i%5) * time.Millisecond
		c.Do(func() { c.After(d, func() { body(); wg.Done() }) })
		go func() { c.Do(body); wg.Done() }()
	}
	wg.Wait()
	if counter != 100 {
		t.Errorf("counter = %d, want 100", counter)
	}
}

// TestDoRunsAfterDueEvents: a Do received once events have fallen due runs
// after every one of them. The events fall due while the driver is busy
// with another Do, so when the counting Do is received the driver's wake
// for them is ready too, and which of the two it takes first is a coin
// flip; the count must not depend on it, so the test flips it 16 times.
func TestDoRunsAfterDueEvents(t *testing.T) {
	c := New(t.Context())
	for trial := range 16 {
		fired, seen := 0, -1
		counted := make(chan struct{})
		c.Do(func() {
			for i := 1; i <= 20; i++ {
				c.After(time.Duration(i)*time.Millisecond, func() { fired++ })
			}
			go func() {
				c.Do(func() { seen = fired })
				close(counted)
			}()
			time.Sleep(30 * time.Millisecond)
		})
		<-counted
		if seen != 20 {
			t.Fatalf("trial %d: a Do 30 ms after 20 events at 1–20 ms saw %d of them fired", trial, seen)
		}
	}
}

// TestIdleLinkWakesOncePerDelay: a dedicated link with nothing to carry on
// a live clock wakes the driver about once per propagation delay, not once
// per opportunity (DESIGN.md §3.3), and still counts every opportunity
// the wall clock has passed as wasted.
func TestIdleLinkWakesOncePerDelay(t *testing.T) {
	const prop = 20 * time.Millisecond
	grid := &trace.Trace{Name: "1 ms grid"}
	for at := time.Millisecond; at <= time.Second; at += time.Millisecond {
		grid.Opportunities = append(grid.Opportunities, at)
	}
	c := New(t.Context())
	var l *link.Link
	c.Do(func() { l = link.New(c, link.Config{Trace: grid, PropagationDelay: prop}, nil) })
	time.Sleep(300 * time.Millisecond)
	var fired uint64
	var wall time.Duration
	var wasted int64
	c.Do(func() { fired, wall, wasted = c.Fired(), c.Now(), l.WastedOpportunities() })
	if limit := uint64((wall+prop-1)/prop) + 1; fired > limit {
		t.Errorf("an idle link fired %d events in %v at %v delay, want at most %d", fired, wall, prop, limit)
	}
	if want := int64(wall / time.Millisecond); wasted != want {
		t.Errorf("%d wasted opportunities after %v of a 1 ms grid, want %d", wasted, wall, want)
	}
	t.Logf("%d events and %d wasted opportunities in %v", fired, wasted, wall)
}
