package trace

import (
	"errors"
	"math"
	"math/rand"
	"time"
)

// Constructor validation errors, surfaced verbatim through the scenario
// layer's JSON process grammar.
var (
	errHandoverEmpty      = errors.New("trace: handover needs at least one stage")
	errHandoverNilProcess = errors.New("trace: handover stage has no process")
	errHandoverOrder      = errors.New("trace: handover stage boundaries must be positive and strictly increasing (only the final stage may leave \"until\" unset)")
	errOutageWindow       = errors.New("trace: outage window needs start < end")
	errOutageOrder        = errors.New("trace: outage windows must be sorted and non-overlapping")
	errScaleFactor        = errors.New("trace: scale factor must be positive")
)

// DeliveryProcess is a stream of delivery opportunities pulled one at a
// time, the streaming counterpart of a materialized Trace: the link asks
// for the next opportunity only when it needs to schedule it, so a run of
// any duration holds O(1) trace state instead of a full []time.Duration.
//
// The contract mirrors the reset/determinism contract of the simulation
// components (DESIGN.md §2, §3.2):
//
//   - Next returns the time of the next delivery opportunity, measured
//     from the start of the run, and true; or 0 and false when the process
//     is exhausted (a process may be infinite and never return false).
//     Returned times are nondecreasing. After returning false once, Next
//     keeps returning false until the next Reset.
//   - Reset rewinds the process to its seed-determined initial state:
//     after Reset(s), the sequence of Next values is a pure function of s,
//     so a reused process instance (per-worker world reuse) replays
//     exactly the stream a fresh instance would produce. Deterministic
//     processes (Replay) ignore the seed.
//
// Implementations are not safe for concurrent use; each link needs its own
// instance.
type DeliveryProcess interface {
	Next() (time.Duration, bool)
	Reset(seed int64)
}

// mixSeed derives an independent, well-mixed child seed from a parent seed
// and a child index (splitmix64 finalizer). Combinators hand each child
// its own stream so composition order, not scheduling, fixes every draw.
func mixSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	s := int64(z &^ (1 << 63)) // non-negative, as rand.NewSource prefers
	if s == 0 {
		s = 1
	}
	return s
}

// maxDrySteps bounds how many consecutive empty 10 ms model steps a
// ModelProcess will advance inside one Next call before declaring the
// process exhausted (~11 virtual hours of silence). Canonical models
// escape outages in seconds; the bound only stops a degenerate
// zero-rate model from spinning the caller forever.
const maxDrySteps = 1 << 22

// ModelProcess streams the §3.1 Poisson/Brownian/outage generator: the
// exact per-step computation of LinkModel.Generate, emitted one
// opportunity at a time. After Reset(s) it produces the identical
// opportunity sequence that Generate(d, rand.New(rand.NewSource(s)))
// materializes, for any horizon d (property-tested in
// TestModelProcessMatchesGenerate). Steady-state pulls are allocation-free
// once the per-step buffers have warmed.
type ModelProcess struct {
	m    stepper
	rng  *rand.Rand // nil until the first Reset
	st   modelState
	step int64 // next 10 ms grid step to advance

	start   time.Duration // the current step's start
	offsets []float64     // the current step's offsets, from the stepper
	pos     int           // next offset to emit
	done    bool
}

// Process returns a streaming form of the model. The process starts Reset
// with seed 1; callers normally Reset it with their own seed before use,
// so no generator is seeded until Reset, or until the first Next of a
// process that was never Reset.
func (m LinkModel) Process() *ModelProcess {
	return &ModelProcess{m: m.stepper()}
}

// Reset implements DeliveryProcess: the stream restarts as
// rand.New(rand.NewSource(seed)) would drive Generate. The generator is
// this package's copy of math/rand's (source), allocated on the first
// Reset and re-seeded in place after that.
func (p *ModelProcess) Reset(seed int64) {
	if p.rng == nil {
		p.rng = rand.New(new(source))
	}
	p.rng.Seed(seed)
	p.st = modelState{lambda: p.m.MeanRate}
	p.step = 0
	p.offsets = p.offsets[:0]
	p.pos = 0
	p.done = false
}

// Next implements DeliveryProcess. It emits the current step's offsets in
// place, each converted as Generate converts it.
func (p *ModelProcess) Next() (time.Duration, bool) {
	if p.done {
		return 0, false
	}
	for dry := 0; p.pos == len(p.offsets); dry++ {
		if dry > maxDrySteps {
			p.done = true
			return 0, false
		}
		if p.rng == nil {
			p.Reset(1) // never Reset: the documented default seed
		}
		p.start = time.Duration(p.step) * modelStep
		p.step++
		p.offsets = p.m.stepOnce(&p.st, p.rng, p.offsets)
		p.pos = 0
	}
	o := p.offsets[p.pos]
	p.pos++
	return p.start + time.Duration(o*float64(modelStep)), true
}

// Replay streams an existing materialized Trace, one opportunity per
// pull. It is finite: Next returns false past the last opportunity. The
// seed is ignored (a recording is already deterministic); Reset rewinds
// to the first opportunity. Wrap it in a Loop for mahimahi-style
// repetition.
type Replay struct {
	tr   *Trace
	next int
}

// NewReplay returns a replay of tr positioned at its first opportunity.
func NewReplay(tr *Trace) *Replay { return &Replay{tr: tr} }

// SetTrace swaps the trace being replayed and rewinds. Links reuse one
// Replay value across Reset calls this way instead of allocating.
func (p *Replay) SetTrace(tr *Trace) {
	p.tr = tr
	p.next = 0
}

// Next implements DeliveryProcess.
func (p *Replay) Next() (time.Duration, bool) {
	if p.tr == nil || p.next >= len(p.tr.Opportunities) {
		return 0, false
	}
	v := p.tr.Opportunities[p.next]
	p.next++
	return v, true
}

// Reset implements DeliveryProcess; the seed is ignored.
func (p *Replay) Reset(int64) { p.next = 0 }

// Loop repeats a finite inner process forever, re-basing each cycle at
// the last time the previous cycle emitted — exactly the mahimahi trace
// wrap the emulator has always used: a leading opportunity at the wrap
// instant itself is skipped so time advances, and a cycle that emits no
// later opportunity than its base (a zero-duration inner) ends the
// process instead of looping at one instant. Each cycle resets the inner
// process with a seed derived from (seed, cycle), so looping a stochastic
// process produces fresh, deterministic cycles; looping a Replay repeats
// the recording verbatim.
type Loop struct {
	inner DeliveryProcess
	seed  int64
	cycle int

	base     time.Duration // absolute start of the current cycle
	last     time.Duration // newest absolute time emitted
	skipZero bool          // drop one leading zero-offset op after a wrap
	done     bool
}

// NewLoop wraps inner. The loop starts at inner's current position; call
// Reset to restart both deterministically.
func NewLoop(inner DeliveryProcess) *Loop { return &Loop{inner: inner} }

// Reset implements DeliveryProcess.
func (p *Loop) Reset(seed int64) {
	p.seed = seed
	p.cycle = 0
	p.base, p.last = 0, 0
	p.skipZero = false
	p.done = false
	p.inner.Reset(seed)
}

// Next implements DeliveryProcess.
func (p *Loop) Next() (time.Duration, bool) {
	if p.done {
		return 0, false
	}
	for {
		v, ok := p.inner.Next()
		if ok {
			if p.skipZero && v == 0 {
				p.skipZero = false
				continue
			}
			p.skipZero = false
			p.last = p.base + v
			return p.last, true
		}
		// Wrap: the next cycle starts where this one ended. No progress
		// (nothing emitted past the base) would loop at one instant —
		// stop instead, matching the zero-duration trace guard.
		if p.last <= p.base {
			p.done = true
			return 0, false
		}
		p.base = p.last
		p.cycle++
		p.inner.Reset(mixSeed(p.seed, p.cycle))
		p.skipZero = true
	}
}

// HandoverStage is one leg of a Handover schedule: Process supplies
// opportunities from the stage's start (its times are relative to the
// instant the stage begins, modeling a fresh cell attachment), and Until
// is the absolute time the stage ends. Until on the final stage may be
// zero, meaning it runs forever.
type HandoverStage struct {
	Process DeliveryProcess
	Until   time.Duration
}

// Handover switches between delivery processes on a time schedule — the
// §3.1 models of different cells stitched into one link, as a moving
// device would see them. Opportunities a stage would emit at or past its
// Until are discarded: the device has already attached to the next cell.
type Handover struct {
	stages []HandoverStage
	cur    int
	start  time.Duration // absolute start of the current stage
	done   bool
}

// NewHandover builds a handover over the stages. Every stage but the last
// must have a positive Until, strictly increasing across stages.
func NewHandover(stages []HandoverStage) (*Handover, error) {
	if len(stages) == 0 {
		return nil, errHandoverEmpty
	}
	prev := time.Duration(0)
	for i, s := range stages {
		if s.Process == nil {
			return nil, errHandoverNilProcess
		}
		last := i == len(stages)-1
		if s.Until == 0 && last {
			continue
		}
		if s.Until <= prev {
			return nil, errHandoverOrder
		}
		prev = s.Until
	}
	return &Handover{stages: stages}, nil
}

// Reset implements DeliveryProcess: each stage gets its own derived seed.
func (p *Handover) Reset(seed int64) {
	p.cur = 0
	p.start = 0
	p.done = false
	for i := range p.stages {
		p.stages[i].Process.Reset(mixSeed(seed, i))
	}
}

// Next implements DeliveryProcess.
func (p *Handover) Next() (time.Duration, bool) {
	if p.done {
		return 0, false
	}
	for {
		st := &p.stages[p.cur]
		open := st.Until == 0 // final, unbounded stage
		v, ok := st.Process.Next()
		if ok {
			at := p.start + v
			if open || at < st.Until {
				return at, true
			}
		} else if open {
			p.done = true
			return 0, false
		}
		// Stage over (exhausted early, or emitted past its boundary):
		// hand over to the next cell at the scheduled instant.
		if p.cur == len(p.stages)-1 {
			p.done = true
			return 0, false
		}
		p.start = st.Until
		p.cur++
	}
}

// Window is one closed-open [Start, End) interval of forced outage.
type Window struct {
	Start, End time.Duration
}

// Outage drops every opportunity of the inner process that falls inside
// one of the windows — forced dead air (a tunnel, an airplane-mode
// toggle) layered over any link behavior. Windows must be sorted and
// non-overlapping.
type Outage struct {
	inner   DeliveryProcess
	windows []Window
	idx     int // first window that could still match (input is monotonic)
}

// NewOutage applies the windows to inner. Each window needs Start < End,
// and windows must be sorted by Start without overlap.
func NewOutage(inner DeliveryProcess, windows []Window) (*Outage, error) {
	prev := time.Duration(-1)
	for _, w := range windows {
		if w.End <= w.Start {
			return nil, errOutageWindow
		}
		if w.Start < prev {
			return nil, errOutageOrder
		}
		prev = w.End
	}
	return &Outage{inner: inner, windows: windows}, nil
}

// Reset implements DeliveryProcess.
func (p *Outage) Reset(seed int64) {
	p.idx = 0
	p.inner.Reset(seed)
}

// Next implements DeliveryProcess.
func (p *Outage) Next() (time.Duration, bool) {
	for {
		v, ok := p.inner.Next()
		if !ok {
			return 0, false
		}
		for p.idx < len(p.windows) && p.windows[p.idx].End <= v {
			p.idx++
		}
		if p.idx < len(p.windows) && p.windows[p.idx].Start <= v {
			continue // inside an outage window: swallowed
		}
		return v, true
	}
}

// Scale multiplies the inner process's delivery rate by a positive factor
// by compressing (factor > 1) or stretching (factor < 1) its timeline.
// A stretched stream whose times would overflow time.Duration ends
// instead of wrapping negative (which would violate the nondecreasing
// contract and rewind the simulation clock).
type Scale struct {
	inner  DeliveryProcess
	factor float64
	done   bool
}

// NewScale wraps inner with a rate multiplier. factor must be positive.
func NewScale(inner DeliveryProcess, factor float64) (*Scale, error) {
	if !(factor > 0) {
		return nil, errScaleFactor
	}
	return &Scale{inner: inner, factor: factor}, nil
}

// Reset implements DeliveryProcess.
func (p *Scale) Reset(seed int64) {
	p.done = false
	p.inner.Reset(seed)
}

// Next implements DeliveryProcess.
func (p *Scale) Next() (time.Duration, bool) {
	if p.done {
		return 0, false
	}
	v, ok := p.inner.Next()
	if !ok {
		return 0, false
	}
	q := float64(v) / p.factor
	if q >= float64(math.MaxInt64) {
		// Past the representable timeline (~292 virtual years at
		// factor 1): the float→Duration conversion would produce an
		// implementation-defined negative value.
		p.done = true
		return 0, false
	}
	return time.Duration(q), true
}
