package dispatch

import (
	"context"
	"time"
)

// clock is where the supervisor reads time and waits: the wall clock
// for Supervise, a virtual one in this package's tests. Every goroutine
// that waits on it is started through spawn, so a virtual clock knows
// when all of them are waiting and time may move.
type clock interface {
	now() time.Time
	// sleep waits for d. It returns early, reporting false, once ctx ends
	// or done is closed (a nil done never is).
	sleep(ctx context.Context, d time.Duration, done <-chan struct{}) bool
	// spawn runs f on a new goroutine.
	spawn(f func())
}

type wallClock struct{}

func (wallClock) now() time.Time { return time.Now() }

func (wallClock) sleep(ctx context.Context, d time.Duration, done <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
	case <-done:
	}
	return false
}

func (wallClock) spawn(f func()) { go f() }
