package metrics

import (
	"time"

	"sprout/internal/link"
	"sprout/internal/stats"
	"sprout/internal/trace"
)

// flowStream accumulates one delivery stream's metrics online: the bit and
// byte totals over the window plus the d(t) sawtooth segments, built with
// exactly the arithmetic delaySegments applies to a retained log, so the
// finished metrics are bit-identical to the post-hoc slice path.
type flowStream struct {
	bits  int64
	bytes int64

	// Online sawtooth state (see delaySegments): maxSent is the newest
	// SentAt delivered so far (-1 until any delivery), cursor the time the
	// current segment started.
	maxSent time.Duration
	cursor  time.Duration
	segs    []stats.Segment

	// delay95 is the sealed stream's 95th-percentile delay, computed once
	// in finish for the aggregate result, Delay95 and Flow: one pass over
	// segs collects the segments near the answer, and a further pass runs
	// only for a level their bound leaves open. Valid from finish until
	// reset.
	delay95 time.Duration
}

func (f *flowStream) reset(from time.Duration) {
	f.bits, f.bytes = 0, 0
	f.maxSent = -1
	f.cursor = from
	f.segs = f.segs[:0]
	f.delay95 = 0
}

// observe folds one delivery into the stream. Deliveries must arrive in
// DeliveredAt order, the order links produce them.
func (f *flowStream) observe(d link.Delivery, from, to time.Duration) {
	if d.DeliveredAt < from {
		// Before the window: only establishes the newest-sent packet so
		// d(from) is well defined.
		if d.SentAt > f.maxSent {
			f.maxSent = d.SentAt
		}
		return
	}
	if d.DeliveredAt >= to {
		return
	}
	f.bits += int64(d.Size) * 8
	f.bytes += int64(d.Size)
	if f.maxSent < 0 {
		// Nothing delivered before this: the stream starts here, no
		// segment for the undefined region.
		f.cursor = d.DeliveredAt
	} else if d.DeliveredAt > f.cursor {
		f.segs = append(f.segs, stats.Segment{
			Start: (f.cursor - f.maxSent).Seconds(),
			Width: (d.DeliveredAt - f.cursor).Seconds(),
		})
	}
	if d.SentAt > f.maxSent {
		f.maxSent = d.SentAt
	}
	f.cursor = d.DeliveredAt
}

// finish appends the tail segment up to the window end and fixes the
// stream's 95th-percentile delay, reusing sc's buffers. Must be called
// exactly once, after the last observe.
func (f *flowStream) finish(to time.Duration, sc *stats.SegmentScratch) {
	if f.maxSent >= 0 && to > f.cursor {
		f.segs = append(f.segs, stats.Segment{
			Start: (f.cursor - f.maxSent).Seconds(),
			Width: (to - f.cursor).Seconds(),
		})
	}
	if len(f.segs) > 0 {
		f.delay95 = secondsToDuration(stats.SegmentPercentile(f.segs, 0.95, sc))
	}
}

func (f *flowStream) throughputBps(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	return float64(f.bits) / (to - from).Seconds()
}

func (f *flowStream) meanDelay() time.Duration {
	if len(f.segs) == 0 {
		return 0
	}
	return secondsToDuration(stats.SegmentMean(f.segs))
}

// Accumulator builds the §5.1 metrics incrementally as packets are
// delivered, in place of retaining an unbounded []link.Delivery and
// reducing it after the run. It produces bit-identical results to
// Evaluate/Throughput/EndToEndDelay on the equivalent log (Evaluate is now
// a thin adapter over it). What it holds still grows with the run: one
// 16-byte sawtooth segment per in-window delivery in each stream that sees
// it (the aggregate, and the delivery's own flow when flows are tracked),
// plus one per in-window opportunity when the omniscient bound is tracked
// online — the percentile needs every segment, so none can be folded away.
//
// All buffers are retained across Start calls, so a reused accumulator
// (engine worker-state reuse) runs whole experiments with zero steady-state
// allocation. Not safe for concurrent use.
type Accumulator struct {
	from, to time.Duration

	agg     flowStream // every delivery, the aggregate d(t)
	flowIDs []uint32   // tracked flows, in caller order
	flows   []flowStream
	index   map[uint32]int32
	perFlow bool

	// Per-flow measurement windows (cell churn: a flow that exists only
	// over part of the run is measured over its own lifetime). Engaged by
	// SetFlowWindow; otherwise every flow uses the run window and the
	// historical arithmetic is untouched.
	flowWindows      bool
	flowFrom, flowTo []time.Duration

	finished bool

	// Online omniscient/capacity stream: the link (or Evaluate, from a
	// trace) reports each opportunity instant through ObserveOpportunity,
	// and these replay exactly the cursor/base recurrence of
	// OmniscientDelay plus the CapacityBits window count.
	omniSegs    []stats.Segment
	trackOps    bool
	prop        time.Duration
	omniCursor  time.Duration
	omniBase    time.Duration
	omniHave    bool
	opsInWindow int64

	// pct is the percentile scratch every stream's finish shares, sized by
	// the largest.
	pct stats.SegmentScratch
}

// Start arms the accumulator for one run over [from, to), clearing per-run
// state while keeping capacity. flows lists the flow ids to track
// individually, in result order; with zero or one tracked flow the
// aggregate stream doubles as that flow's stream (the single-flow fast
// path, matching the historical behaviour of evaluating the whole log for
// a lone flow).
func (a *Accumulator) Start(from, to time.Duration, flows []uint32) {
	a.from, a.to = from, to
	a.agg.reset(from)
	a.finished = false
	a.trackOps = false // re-arm per run via TrackOpportunities
	a.flowIDs = append(a.flowIDs[:0], flows...)
	a.flowWindows = false
	a.perFlow = len(flows) > 1
	if !a.perFlow {
		a.flows = a.flows[:0]
		return
	}
	a.materializeFlows()
}

// materializeFlows builds the per-flow streams and index for the tracked
// ids.
func (a *Accumulator) materializeFlows() {
	flows := a.flowIDs
	if cap(a.flows) < len(flows) {
		a.flows = make([]flowStream, len(flows))
	}
	a.flows = a.flows[:len(flows)]
	if a.index == nil {
		a.index = make(map[uint32]int32, len(flows))
	}
	clear(a.index)
	for i, f := range flows {
		a.flows[i].reset(a.from)
		a.index[f] = int32(i)
	}
}

// SetFlowWindow measures tracked flow i over [from, to) ∩ the run window
// instead of the full run — the lifetime of a churned cell flow. Call
// after Start and before any Observe. The first call materializes
// dedicated per-flow streams (a lone windowed flow no longer shares the
// aggregate stream) and defaults every other flow to the run window.
func (a *Accumulator) SetFlowWindow(i int, from, to time.Duration) {
	if !a.flowWindows {
		a.flowWindows = true
		if !a.perFlow {
			a.perFlow = true
			a.materializeFlows()
		}
		n := len(a.flowIDs)
		if cap(a.flowFrom) < n {
			a.flowFrom = make([]time.Duration, n)
			a.flowTo = make([]time.Duration, n)
		}
		a.flowFrom = a.flowFrom[:n]
		a.flowTo = a.flowTo[:n]
		for j := range a.flowFrom {
			a.flowFrom[j], a.flowTo[j] = a.from, a.to
		}
	}
	if from < a.from {
		from = a.from
	}
	if to > a.to {
		to = a.to
	}
	if to < from {
		to = from
	}
	a.flowFrom[i], a.flowTo[i] = from, to
	a.flows[i].reset(from)
}

// Observe folds one delivery in. Deliveries must arrive in DeliveredAt
// order (the order links and the tunnel egress produce them). Zero
// allocations in steady state.
func (a *Accumulator) Observe(d link.Delivery) {
	a.agg.observe(d, a.from, a.to)
	if a.perFlow {
		if i, ok := a.index[d.Flow]; ok {
			from, to := a.from, a.to
			if a.flowWindows {
				from, to = a.flowFrom[i], a.flowTo[i]
			}
			a.flows[i].observe(d, from, to)
		}
	}
}

// TrackOpportunities arms the online omniscient-bound and capacity
// stream; call it after Start, before the run. prop
// is the link's propagation delay (the omniscient protocol's floor).
// Feed every opportunity instant the link services — including warmup
// opportunities before the window, which anchor d(from) exactly as the
// pre-window slice of a materialized trace does — via ObserveOpportunity.
func (a *Accumulator) TrackOpportunities(prop time.Duration) {
	a.trackOps = true
	a.prop = prop
	a.omniCursor = a.from
	a.omniBase = 0
	a.omniHave = false
	a.opsInWindow = 0
	a.omniSegs = a.omniSegs[:0]
}

// ObserveOpportunity folds one delivery-opportunity instant into the
// omniscient/capacity stream. Instants must arrive in nondecreasing
// order (the order the link services them). The recurrence is the same
// arithmetic the batch reference OmniscientDelay applies to a
// materialized opportunity slice, so the finished bound is bit-identical.
func (a *Accumulator) ObserveOpportunity(at time.Duration) {
	if at < a.from {
		// Before the window: only anchors the bound at d(from).
		a.omniBase = at
		a.omniHave = true
		return
	}
	if at >= a.to {
		return
	}
	a.opsInWindow++
	if at > a.omniCursor && a.omniHave {
		a.omniSegs = append(a.omniSegs, stats.Segment{
			Start: (a.omniCursor - a.omniBase + a.prop).Seconds(),
			Width: (at - a.omniCursor).Seconds(),
		})
	}
	a.omniBase = at
	a.omniCursor = at
	a.omniHave = true
}

// seal closes every stream's tail segment (idempotent).
func (a *Accumulator) seal() {
	if a.finished {
		return
	}
	a.finished = true
	a.agg.finish(a.to, &a.pct)
	for i := range a.flows {
		to := a.to
		if a.flowWindows {
			to = a.flowTo[i]
		}
		a.flows[i].finish(to, &a.pct)
	}
}

// Evaluate returns the full §5.1 metric set against the trace that drove
// the link: it feeds the trace's opportunities through ObserveOpportunity,
// so a trace and a served opportunity stream share one recurrence.
func (a *Accumulator) Evaluate(tr *trace.Trace, prop time.Duration) Result {
	a.TrackOpportunities(prop)
	for _, at := range tr.Opportunities {
		if at >= a.to {
			break
		}
		a.ObserveOpportunity(at)
	}
	return a.EvaluateStreaming()
}

// EvaluateStreaming returns the full §5.1 metric set with the omniscient
// bound and offered capacity taken from the opportunity stream fed through
// ObserveOpportunity. Fed the instants a link served, it also counts the
// loops of a trace shorter than the run.
func (a *Accumulator) EvaluateStreaming() Result {
	if !a.trackOps {
		panic("metrics: EvaluateStreaming without TrackOpportunities")
	}
	a.seal()
	if a.omniHave && a.to > a.omniCursor {
		// Close the bound's tail; moving the cursor to the window's end
		// makes a second call append nothing.
		a.omniSegs = append(a.omniSegs, stats.Segment{
			Start: (a.omniCursor - a.omniBase + a.prop).Seconds(),
			Width: (a.to - a.omniCursor).Seconds(),
		})
		a.omniCursor = a.to
	}
	r := Result{
		ThroughputBps: a.agg.throughputBps(a.from, a.to),
		Delay95:       a.agg.delay95,
		MeanDelay:     a.agg.meanDelay(),
	}
	if len(a.omniSegs) == 0 {
		r.Omniscient95 = a.prop
	} else {
		r.Omniscient95 = secondsToDuration(stats.SegmentPercentile(a.omniSegs, 0.95, &a.pct))
	}
	r.SelfInflicted95 = r.Delay95 - r.Omniscient95
	if r.SelfInflicted95 < 0 {
		r.SelfInflicted95 = 0
	}
	if capBits := a.opsInWindow * trace.MTU * 8; capBits > 0 {
		r.Utilization = r.ThroughputBps * (a.to - a.from).Seconds() / float64(capBits)
	}
	r.DeliveredBytes = a.agg.bytes
	return r
}

// Delay95 returns the aggregate 95% end-to-end delay over all deliveries.
func (a *Accumulator) Delay95() time.Duration {
	a.seal()
	return a.agg.delay95
}

// FlowCount returns how many flows Start was asked to track.
func (a *Accumulator) FlowCount() int { return len(a.flowIDs) }

// Flow returns the i'th tracked flow's id, delivered throughput and 95%
// end-to-end delay, in the order Start listed them. With a single tracked
// flow these are the aggregate stream's values (its log is the whole log).
func (a *Accumulator) Flow(i int) (flow uint32, throughputBps float64, delay95 time.Duration) {
	a.seal()
	s := &a.agg
	from, to := a.from, a.to
	if a.perFlow {
		s = &a.flows[i]
		if a.flowWindows {
			from, to = a.flowFrom[i], a.flowTo[i]
		}
	}
	return a.flowIDs[i], s.throughputBps(from, to), s.delay95
}
