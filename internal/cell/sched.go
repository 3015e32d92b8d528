// Package cell holds what a shared cellular tower adds to a link: the
// opportunity schedulers that apportion ONE delivery process (the §3.1
// stochastic link model, streamed on demand) across every attached flow,
// instead of the paper's one-private-link-per-flow layout, and the
// precomputed timeline of Poisson flow arrival/departure churn and
// handover of users between cells. The per-user queues are link.Link's
// slots. Everything here sits on a hot path: an O(1)/O(log N) scheduler
// pick over flat per-slot arrays, and full Reset integration so a pooled
// world re-runs cell experiments without allocating.
package cell

import "math/bits"

// SchedulerNames lists the built-in opportunity schedulers in
// presentation order.
func SchedulerNames() []string { return []string{"round-robin", "proportional-fair"} }

// NewScheduler builds a scheduler by registry name; proportional-fair runs
// at DefaultPFGain. Unknown names return nil.
func NewScheduler(name string) Scheduler {
	switch name {
	case "round-robin":
		return NewRoundRobin()
	case "proportional-fair":
		return NewPropFair(0)
	}
	return nil
}

// RoundRobin grants whole opportunities to backlogged slots in circular
// slot order. The backlog is a bitmap, so Pick is a few word scans from
// the cursor — effectively O(1) at any practical slot count — and the
// degenerate single-slot cell reduces exactly to the dedicated link's
// serve-the-queue behaviour.
type RoundRobin struct {
	words  []uint64 // backlog bitmap, bit i = slot i backlogged
	slots  int      // high-water slot count
	cursor int      // next slot index to consider
}

// NewRoundRobin builds an empty round-robin scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Scheduler.
func (r *RoundRobin) Name() string { return "round-robin" }

// Reset implements Scheduler.
func (r *RoundRobin) Reset() {
	for i := range r.words {
		r.words[i] = 0
	}
	r.slots, r.cursor = 0, 0
}

// Attach implements Scheduler.
func (r *RoundRobin) Attach(slot int) {
	if slot >= r.slots {
		r.slots = slot + 1
	}
	for len(r.words) < (r.slots+63)/64 {
		r.words = append(r.words, 0)
	}
}

// Detach implements Scheduler.
func (r *RoundRobin) Detach(slot int) { r.words[slot>>6] &^= 1 << (uint(slot) & 63) }

// Backlog implements Scheduler.
func (r *RoundRobin) Backlog(slot int, backlogged bool) {
	if backlogged {
		r.words[slot>>6] |= 1 << (uint(slot) & 63)
	} else {
		r.words[slot>>6] &^= 1 << (uint(slot) & 63)
	}
}

// Opportunity implements Scheduler (no per-opportunity state).
func (r *RoundRobin) Opportunity() {}

// Grant implements Scheduler (round-robin ignores byte accounting).
func (r *RoundRobin) Grant(int, int) {}

// Pick returns the first backlogged slot at or after the cursor,
// wrapping, and advances the cursor past it.
func (r *RoundRobin) Pick() int {
	if r.slots == 0 {
		return -1
	}
	if r.cursor >= r.slots {
		r.cursor = 0
	}
	if s := r.scan(r.cursor, r.slots); s >= 0 {
		r.cursor = s + 1
		return s
	}
	if s := r.scan(0, r.cursor); s >= 0 {
		r.cursor = s + 1
		return s
	}
	return -1
}

// scan returns the first set bit in [from, to), or -1.
func (r *RoundRobin) scan(from, to int) int {
	if from >= to {
		return -1
	}
	wi := from >> 6
	w := r.words[wi] >> (uint(from) & 63) << (uint(from) & 63) // mask bits below from
	for {
		if w != 0 {
			s := wi<<6 + bits.TrailingZeros64(w)
			if s >= to {
				return -1
			}
			return s
		}
		wi++
		if wi<<6 >= to {
			return -1
		}
		w = r.words[wi]
	}
}

// DefaultPFGain is the proportional-fair EWMA gain of every cell: 1/16
// per opportunity weights roughly the last hundred milliseconds of
// service on an LTE-class cell.
const DefaultPFGain = 1.0 / 16

// pfFloor triggers renormalization of the global decay scale before it
// denormalizes: keys are stored as R/g, so once g underflows every Grant
// would divide by ~0.
const pfFloor = 1e-120

// PropFair is proportional-fair opportunity scheduling over an EWMA of
// served throughput: each opportunity goes to the backlogged flow with the
// least service history, which equalizes long-run served throughput while
// still giving newly backlogged flows immediate service.
//
// The EWMA update R_i ← (1-α)R_i + α·served_i must touch every flow per
// opportunity; done literally that is O(N) per grant. Instead the uniform
// (1-α) decay is factored into one global scale g (g ← (1-α)·g per
// opportunity) and each slot stores the scaled key k_i = R_i/g: decay is
// then O(1) for the whole cell, a grant bumps only the served slot's key
// (k_i += α·bytes/g), and the occasional renormalization when g
// underflows is O(N) amortized over ~10^5 opportunities. Backlogged slots
// sit in an index min-heap over k (the sim package's slot-heap idiom), so
// Pick is the root read and each key bump is one sift: O(log N) per
// grant, no per-flow heap nodes.
type PropFair struct {
	gain float64
	g    float64 // global decay scale; true EWMA R_i = key[i] * g

	key      []float64 // scaled EWMA of served bytes per opportunity
	pos      []int32   // heap position of each slot, -1 when not backlogged
	attached []bool
	heap     []int32
}

// NewPropFair builds a proportional-fair scheduler with the given EWMA
// gain per opportunity (zero means DefaultPFGain). Gains outside (0, 1)
// panic: the spec layer validates user input, so this is programmer error.
func NewPropFair(gain float64) *PropFair {
	if gain == 0 {
		gain = DefaultPFGain
	}
	if gain <= 0 || gain >= 1 {
		panic("cell: proportional-fair gain outside (0, 1)")
	}
	return &PropFair{gain: gain, g: 1}
}

// Name implements Scheduler.
func (p *PropFair) Name() string { return "proportional-fair" }

// Reset implements Scheduler.
func (p *PropFair) Reset() {
	p.g = 1
	p.key = p.key[:0]
	p.pos = p.pos[:0]
	p.attached = p.attached[:0]
	p.heap = p.heap[:0]
}

// Attach implements Scheduler.
func (p *PropFair) Attach(slot int) {
	for slot >= len(p.key) {
		p.key = append(p.key, 0)
		p.pos = append(p.pos, -1)
		p.attached = append(p.attached, false)
	}
	p.key[slot] = 0
	p.pos[slot] = -1
	p.attached[slot] = true
}

// Detach implements Scheduler.
func (p *PropFair) Detach(slot int) {
	if p.pos[slot] >= 0 {
		p.remove(slot)
	}
	p.attached[slot] = false
}

// Backlog implements Scheduler.
func (p *PropFair) Backlog(slot int, backlogged bool) {
	if backlogged {
		if p.pos[slot] < 0 {
			p.push(slot)
		}
	} else if p.pos[slot] >= 0 {
		p.remove(slot)
	}
}

// Opportunity decays every flow's EWMA at once through the global scale.
func (p *PropFair) Opportunity() {
	p.g *= 1 - p.gain
	if p.g < pfFloor {
		// Re-base the scale at 1: k' = R/1 = k·g. Uniform positive
		// scaling preserves the heap order exactly.
		for i := range p.key {
			p.key[i] *= p.g
		}
		p.g = 1
	}
}

// Pick returns the backlogged slot with the least served-throughput EWMA
// (ties to the lowest slot index), or -1.
func (p *PropFair) Pick() int {
	if len(p.heap) == 0 {
		return -1
	}
	return int(p.heap[0])
}

// Grant implements Scheduler: the served slot's key absorbs its share of
// this opportunity's EWMA update.
func (p *PropFair) Grant(slot int, bytes int) {
	p.key[slot] += p.gain * float64(bytes) / p.g
	if p.pos[slot] >= 0 {
		p.siftDown(int(p.pos[slot]))
	}
}

// less orders the heap by key, ties broken by ascending slot index so
// equal-history flows are served in deterministic slot order.
func (p *PropFair) less(a, b int32) bool {
	ka, kb := p.key[a], p.key[b]
	return ka < kb || (ka == kb && a < b)
}

func (p *PropFair) push(slot int) {
	p.pos[slot] = int32(len(p.heap))
	p.heap = append(p.heap, int32(slot))
	p.siftUp(len(p.heap) - 1)
}

func (p *PropFair) remove(slot int) {
	i := int(p.pos[slot])
	last := len(p.heap) - 1
	p.pos[slot] = -1
	if i != last {
		moved := p.heap[last]
		p.heap[i] = moved
		p.pos[moved] = int32(i)
		p.heap = p.heap[:last]
		p.siftDown(i)
		p.siftUp(int(p.pos[moved]))
	} else {
		p.heap = p.heap[:last]
	}
}

func (p *PropFair) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !p.less(p.heap[i], p.heap[parent]) {
			break
		}
		p.swap(i, parent)
		i = parent
	}
}

func (p *PropFair) siftDown(i int) {
	n := len(p.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		min := left
		if right := left + 1; right < n && p.less(p.heap[right], p.heap[left]) {
			min = right
		}
		if !p.less(p.heap[min], p.heap[i]) {
			return
		}
		p.swap(i, min)
		i = min
	}
}

func (p *PropFair) swap(i, j int) {
	p.heap[i], p.heap[j] = p.heap[j], p.heap[i]
	p.pos[p.heap[i]] = int32(i)
	p.pos[p.heap[j]] = int32(j)
}
