// Package realtime drives a sim.Loop from the wall clock, so the protocol
// endpoints and the Cellsim link emulation — written once against
// sim.Clock — also run live: over real UDP sockets (cmd/sproutcat) or as a
// real-time trace-driven relay (cmd/cellsim). There is one event queue,
// as in ns-3's real-time simulator; the live tools run the code the
// experiments run, admit rule and idle batching included.
//
// One driver goroutine owns the loop. It runs every event that has fallen
// due, then sleeps until the next one is due or a message arrives in its
// inbox. External events (socket reads, stdin, statistics) enter through
// Do, which hands a function to the driver and waits for it. So the
// endpoints stay single-threaded: Now, After, Stop and every other use of
// the clock, or of a component on it, is legal only inside Do or inside a
// callback the loop fires.
package realtime

import (
	"context"
	"time"

	"sprout/internal/sim"
)

// Clock is a sim.Loop paced by the wall clock: its time is the time since
// New. Create with New; only its driver runs the loop.
type Clock struct {
	sim.Loop
	ctx   context.Context
	start time.Time
	inbox chan func()
	done  chan struct{}
}

// New returns a Clock whose time counts from the moment of creation, and
// starts its driver, which returns once ctx is done.
func New(ctx context.Context) *Clock {
	c := &Clock{ctx: ctx, start: time.Now(), inbox: make(chan func()), done: make(chan struct{})}
	go c.drive()
	return c
}

// Do runs fn on the driver, after every event due by the wall instant it
// is received at, and returns once fn has. All interaction with endpoints
// on this clock (packet receipt, application writes) must go through Do;
// a callback must not call it. Once the clock's context is done, Do
// returns without running fn.
func (c *Clock) Do(fn func()) {
	select {
	case c.inbox <- fn:
		// The inbox is unbuffered and the driver takes the next message only
		// after signalling this one done, so the waiter woken is this caller.
		<-c.done
	case <-c.ctx.Done():
	}
}

// drive is the driver: the loop's one goroutine.
func (c *Clock) drive() {
	wake := time.NewTimer(time.Hour) // re-armed for the next event before each wait
	for {
		var due <-chan time.Time
		if at, ok := c.NextAt(); ok {
			wake.Reset(at - time.Since(c.start))
			due = wake.C
		}
		select {
		case <-due:
			c.Run(time.Since(c.start))
		case fn := <-c.inbox:
			c.Run(time.Since(c.start))
			fn()
			c.done <- struct{}{}
		case <-c.ctx.Done():
			return
		}
	}
}

var _ sim.Clock = (*Clock)(nil)
