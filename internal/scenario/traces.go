package scenario

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"sprout/internal/engine"
	"sprout/internal/trace"
)

// canonicalNets caches the canonical network table (built fresh by every
// trace.CanonicalNetworks call) for the per-job lookup path; it is only
// ever read.
var canonicalNets = trace.CanonicalNetworks()

// LookupNetwork resolves a Spec.Link name to a canonical network pair.
// Matching is case-insensitive on the full name.
func LookupNetwork(name string) (trace.NetworkPair, bool) {
	for _, p := range canonicalNets {
		if strings.EqualFold(p.Name, name) {
			return p, true
		}
	}
	return trace.NetworkPair{}, false
}

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

// The trace cache is keyed per (network, duration, seed) — direction is
// only a view: GenerateTracePair derives both directions from the same
// per-link seeds, so the swap costs nothing and the §5.5 sweep, both loss
// table directions and multi-scheme grids all share one immutable pair
// per (link, seed), by reference, never copied per job.

// pairKey appends the shared cache key for one (network, duration, seed)
// pair to buf — the single definition both the shared cache and the
// worker-local memo key on.
func pairKey(buf []byte, pair trace.NetworkPair, d time.Duration, seed int64) []byte {
	buf = append(buf, pair.Name...)
	buf = append(buf, '/')
	buf = strconv.AppendInt(buf, int64(d), 10)
	buf = append(buf, '/')
	buf = strconv.AppendInt(buf, seed, 10)
	return buf
}

// sharedPair fetches (or generates, single-flight) the direction-free pair
// from the shared cache under an already-built pairKey.
func sharedPair(c *engine.Cache, key []byte, pair trace.NetworkPair, d time.Duration, seed int64) tracePair {
	return c.GetBytes(key, func() any {
		down, up := GenerateTracePair(pair, "down", d, seed)
		return tracePair{down, up}
	}).(tracePair)
}

// resolveTraces returns the spec's trace pair: the injected traces, or the
// canonical pair for (Link, Direction) via the cache (nil cache generates
// directly). The world supplies the reused key scratch.
func (s Spec) resolveTraces(c *engine.Cache, w *world) (data, feedback *trace.Trace, err error) {
	if s.DataTrace != nil && s.FeedbackTrace != nil {
		return s.DataTrace, s.FeedbackTrace, nil
	}
	pair, ok := LookupNetwork(s.Link)
	if !ok {
		return nil, nil, unknownLinkError(s.Link)
	}
	if c == nil {
		data, feedback = GenerateTracePair(pair, s.Direction, time.Duration(s.Duration), s.Seed)
		return data, feedback, nil
	}
	tp, key := w.cachedPair(c, pair, time.Duration(s.Duration), s.Seed)
	w.keyBuf = key
	if s.Direction == "up" {
		return tp.up, tp.down, nil
	}
	return tp.down, tp.up, nil
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

// worldTraceMemoLimit bounds the per-worker trace memo; past it the memo
// is dropped wholesale (the shared cache still serves, just with a
// generator closure per lookup).
const worldTraceMemoLimit = 64

// cachedPair resolves through the worker-local memo first — a warm worker
// re-running known links allocates nothing (the hit still bumps the
// shared cache's hit counter, one mutex tap, so Counts stays faithful)
// — falling back to the shared single-flight cache on a miss.
func (w *world) cachedPair(c *engine.Cache, pair trace.NetworkPair, d time.Duration, seed int64) (tracePair, []byte) {
	key := pairKey(w.keyBuf[:0], pair, d, seed)
	if tp, ok := w.traceMemo[string(key)]; ok {
		c.NoteHit() // keep Counts faithful
		return tp, key
	}
	tp := sharedPair(c, key, pair, d, seed)
	if len(w.traceMemo) >= worldTraceMemoLimit {
		clear(w.traceMemo)
	}
	w.traceMemo[string(key)] = tp
	return tp, key
}
