package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"sprout/internal/engine"
	"sprout/internal/trace"
)

// NetworkNames lists the canonical networks a Spec.Link can name.
func NetworkNames() []string {
	var names []string
	for _, p := range trace.CanonicalNetworks() {
		names = append(names, p.Name)
	}
	return names
}

func unknownLinkError(name string) error {
	return fmt.Errorf("scenario: unknown link %q (canonical networks: %v)", name, NetworkNames())
}

// GenerateTracePair deterministically generates the data/feedback trace
// pair for one network and direction. direction is "down" (data on the
// downlink) or "up". The seed derivation is frozen: changing it changes
// every regenerated figure. It is shared with the streaming path
// (processSeeds), which is what makes a pure-model process spec
// byte-identical to the equivalent materialized down-direction spec.
func GenerateTracePair(pair trace.NetworkPair, direction string, d time.Duration, seed int64) (data, feedback *trace.Trace) {
	margin := d + 10*time.Second
	downSeed, upSeed := processSeeds(seed)
	downRng := rand.New(rand.NewSource(downSeed))
	upRng := rand.New(rand.NewSource(upSeed))
	down := pair.Down.Generate(margin, downRng)
	up := pair.Up.Generate(margin, upRng)
	if direction == "up" {
		return up, down
	}
	return down, up
}

// tracePair is a cached down/up trace pair. Traces are immutable packed
// opportunity schedules, so one instance is shared by reference across
// every job and both directions — a "down" and an "up" spec on the same
// link see the very same two traces, just swapped.
type tracePair struct {
	down, up *trace.Trace
}

// TraceMemory reports the materialized-trace footprint of a shared trace
// cache: how many down/up pairs it retains, their total opportunity count
// and the approximate bytes those opportunity arrays occupy. Streaming
// process specs never enter the cache — their O(1) state lives in the
// worker worlds — so this is exactly the memory streaming saves.
func TraceMemory(c *engine.Cache) (pairs, opportunities int, bytes int64) {
	if c == nil {
		return 0, 0, 0
	}
	c.Range(func(_ string, v any) {
		tp, ok := v.(tracePair)
		if !ok {
			return
		}
		pairs++
		n := tp.down.Count() + tp.up.Count()
		opportunities += n
		bytes += int64(n) * 8 // time.Duration per opportunity
	})
	return pairs, opportunities, bytes
}
