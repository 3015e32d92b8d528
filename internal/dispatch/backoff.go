package dispatch

import (
	"math/rand"
	"time"
)

// backoff produces a shard's retry delay schedule: exponential doubling
// from base to a cap of 16 × base, each delay jittered uniformly into
// [d/2, d] so a fleet of failed shards does not retry in lockstep. The jitter stream
// is seeded per shard (engine.DeriveSeed of the sweep seed), making
// every schedule reproducible — a chaos run's timing is as replayable as
// its faults.
type backoff struct {
	d, cap time.Duration
	rng    *rand.Rand
}

// newBackoff builds the schedule. A non-positive base defaults to
// 500 ms.
func newBackoff(base time.Duration, rng *rand.Rand) *backoff {
	if base <= 0 {
		base = 500 * time.Millisecond
	}
	return &backoff{d: base, cap: 16 * base, rng: rng}
}

// next returns the jittered delay for the coming retry and advances the
// schedule.
func (b *backoff) next() time.Duration {
	d := b.d
	b.d *= 2
	if b.d > b.cap {
		b.d = b.cap
	}
	half := d / 2
	return half + time.Duration(b.rng.Int63n(int64(half)+1))
}

// progress detects a live-but-wedged shard from its checkpoint stream:
// record arrival is the shard's heartbeat (every completed job appends
// one), so a stream that stops yielding new records past the deadline
// means the worker is stalled even though its process may be running.
// For a remote shard the same signal covers the network: a host that
// stops answering pulls also stops producing growth.
type progress struct {
	deadline time.Duration
	last     time.Time
}

// newProgress starts the deadline clock at now.
func newProgress(now time.Time, deadline time.Duration) *progress {
	return &progress{deadline: deadline, last: now}
}

// observe feeds one liveness sample; it reports whether the stall
// deadline has expired. Growth of any size resets the deadline — a slow
// shard making progress is never killed, only a silent one.
func (p *progress) observe(now time.Time, grew bool) bool {
	if grew {
		p.last = now
	}
	return now.Sub(p.last) > p.deadline
}
