// Package memo is the one build-once mechanism of the module: a bounded,
// single-flight cache of immutable values shared by every caller that asks
// for the same key — the canonical trace pairs every scheme on a link runs
// on, and core's forecast and observation tables (§3.3's precomputed
// steps).
package memo

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Cache maps keys to values built on first request. Concurrent Gets of one
// key run its build exactly once (single flight) and all receive the same
// value, so values must be treated as read-only by every caller. Entries
// are never evicted: a bounded cache that is full still builds and returns
// a value for a new key but does not store it, so every later request for
// that key builds again.
type Cache[K comparable, V any] struct {
	mu                     sync.Mutex
	limit                  int
	entries                map[K]*entry[K, V]
	hits, misses, uncached int
}

type entry[K comparable, V any] struct {
	once sync.Once
	key  K // for diagnostics
	val  V
	ok   bool        // build returned normally; false means it panicked
	done atomic.Bool // set after build completes; gates Range visibility
}

// New returns an empty cache that stores at most limit entries; limit <= 0
// means unbounded.
func New[K comparable, V any](limit int) *Cache[K, V] {
	return &Cache[K, V]{limit: limit, entries: map[K]*entry[K, V]{}}
}

// Get returns the value for key, running build to produce it if this is
// the first request. build runs outside the cache lock, so slow builds for
// different keys proceed in parallel. A Get with a prebuilt key and build
// function allocates nothing once the key is stored.
func (c *Cache[K, V]) Get(key K, build func() V) V {
	c.mu.Lock()
	e, ok := c.entries[key]
	switch {
	case ok:
		c.hits++
	case c.limit <= 0 || len(c.entries) < c.limit:
		c.misses++
		e = &entry[K, V]{key: key}
		c.entries[key] = e
	default:
		c.uncached++
		c.mu.Unlock()
		return build()
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.val = build()
		e.ok = true
		e.done.Store(true)
	})
	if !e.ok {
		// build panicked (in the building goroutine the panic is already
		// propagating; this is for the callers that waited in once.Do):
		// fail loudly rather than silently hand out a zero value.
		panic(fmt.Sprintf("memo: build for key %#v panicked", e.key))
	}
	return e.val
}

// Range calls fn for every stored entry whose value has been built, in
// unspecified order, under the cache lock — fn must be quick and must not
// call back into the cache. Entries still building are skipped. Like
// Counts, Range is advisory: it reports what the cache retains, it does
// not synchronize.
func (c *Cache[K, V]) Range(fn func(key K, val V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		if e.done.Load() {
			fn(k, e.val)
		}
	}
}

// Counts reports cache traffic: hits are Gets served by a stored entry
// (waiting for its one build if it was still running), misses are Gets
// that stored a new entry — one per key, however many callers asked at
// once — and uncached are builds a full cache returned without storing.
// A Get still building is already counted, so read Counts after the work
// is done, for diagnostics, not for synchronization.
func (c *Cache[K, V]) Counts() (hits, misses, uncached int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.uncached
}
