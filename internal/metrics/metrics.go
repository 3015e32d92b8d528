// Package metrics implements the paper's evaluation metrics (§5.1):
// average throughput, the 95% end-to-end delay, the omniscient-protocol
// lower bound, and their difference — the self-inflicted delay — plus link
// utilization for Figure 8.
//
// The 95% end-to-end delay is defined over the *function of time* d(t):
// at any instant, find the most recently-sent packet to have arrived at the
// receiver; d(t) is the time since that packet was sent. At each arrival
// d(t) drops to that packet's (sequence-respecting) delay and then grows at
// 1 s/s until the next arrival. The 95th percentile of d(t), weighted by
// time, is the delay a playback buffer needs to reconstruct 95% of the
// input signal. Subtracting the same statistic for an omniscient protocol
// — one whose packets arrive exactly at the trace's delivery opportunities,
// experiencing only propagation delay — isolates the delay the protocol
// inflicted on itself.
package metrics

import (
	"sort"
	"time"

	"sprout/internal/link"
	"sprout/internal/stats"
	"sprout/internal/trace"
)

// Throughput returns the delivered rate in bits/s over [from, to), counting
// every delivered wire byte (measurement at Cellsim, as in the paper).
func Throughput(deliveries []link.Delivery, from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	var bits int64
	for _, d := range deliveries {
		if d.DeliveredAt >= from && d.DeliveredAt < to {
			bits += int64(d.Size) * 8
		}
	}
	return float64(bits) / (to - from).Seconds()
}

// delaySegments builds the piecewise-linear d(t) sawtooth over [from, to)
// from a delivery log (which must be sorted by DeliveredAt; links hand
// deliveries to their observer in that order).
func delaySegments(deliveries []link.Delivery, from, to time.Duration) *stats.Segments {
	segs := new(stats.Segments)
	if to <= from {
		return segs
	}
	// Establish the newest-sent packet delivered before the window, so
	// d(from) is well defined.
	maxSent := time.Duration(-1)
	i := 0
	for ; i < len(deliveries) && deliveries[i].DeliveredAt < from; i++ {
		if deliveries[i].SentAt > maxSent {
			maxSent = deliveries[i].SentAt
		}
	}
	cursor := from
	if maxSent < 0 {
		// Nothing delivered before the window: d(t) is undefined until
		// the first in-window arrival; treat the stream as starting at
		// the first delivery.
		if i >= len(deliveries) {
			return segs
		}
		cursor = deliveries[i].DeliveredAt
		if cursor >= to {
			return segs
		}
	}
	for ; i < len(deliveries) && deliveries[i].DeliveredAt < to; i++ {
		d := deliveries[i]
		if d.DeliveredAt > cursor && maxSent >= 0 {
			segs.Append(stats.Segment{
				Start: (cursor - maxSent).Seconds(),
				Width: (d.DeliveredAt - cursor).Seconds(),
			})
		}
		if d.SentAt > maxSent {
			maxSent = d.SentAt
		}
		cursor = d.DeliveredAt
	}
	if maxSent >= 0 && to > cursor {
		segs.Append(stats.Segment{
			Start: (cursor - maxSent).Seconds(),
			Width: (to - cursor).Seconds(),
		})
	}
	return segs
}

// EndToEndDelay returns the p-quantile (e.g. 0.95) of the end-to-end delay
// function over [from, to). It returns 0 if nothing was delivered.
func EndToEndDelay(deliveries []link.Delivery, from, to time.Duration, p float64) time.Duration {
	segs := delaySegments(deliveries, from, to)
	if segs.Len() == 0 {
		return 0
	}
	return secondsToDuration(stats.SegmentPercentile(segs, p, nil))
}

// MeanDelay returns the time-weighted mean of the delay function.
func MeanDelay(deliveries []link.Delivery, from, to time.Duration) time.Duration {
	segs := delaySegments(deliveries, from, to)
	if segs.Len() == 0 {
		return 0
	}
	return secondsToDuration(stats.SegmentMean(segs))
}

// OmniscientDelay returns the p-quantile of the end-to-end delay function
// of an omniscient protocol on the given trace: its packets arrive exactly
// at each delivery opportunity having experienced only the propagation
// delay, so d(t) resets to prop at each opportunity and grows at 1 s/s
// through delivery gaps (outages still cost delay; §5.1).
func OmniscientDelay(tr *trace.Trace, prop, from, to time.Duration, p float64) time.Duration {
	ops := tr.Opportunities
	lo := sort.Search(len(ops), func(i int) bool { return ops[i] >= from })
	cursor := from
	haveBase := lo > 0 // an opportunity before the window anchors d(from)
	base := time.Duration(0)
	if haveBase {
		base = ops[lo-1]
	}
	var segs stats.Segments
	for i := lo; i < len(ops) && ops[i] < to; i++ {
		if ops[i] > cursor && haveBase {
			segs.Append(stats.Segment{
				Start: (cursor - base + prop).Seconds(),
				Width: (ops[i] - cursor).Seconds(),
			})
		}
		base = ops[i]
		cursor = ops[i]
		haveBase = true
	}
	if haveBase && to > cursor {
		segs.Append(stats.Segment{
			Start: (cursor - base + prop).Seconds(),
			Width: (to - cursor).Seconds(),
		})
	}
	if segs.Len() == 0 {
		return prop
	}
	return secondsToDuration(stats.SegmentPercentile(&segs, p, nil))
}

// Result aggregates the paper's metrics for one experiment run.
type Result struct {
	// ThroughputBps is the average delivered rate over the window.
	ThroughputBps float64
	// Delay95 is the 95% end-to-end delay.
	Delay95 time.Duration
	// Omniscient95 is the omniscient protocol's 95% end-to-end delay on
	// the same trace window.
	Omniscient95 time.Duration
	// SelfInflicted95 = Delay95 - Omniscient95 (floored at zero).
	SelfInflicted95 time.Duration
	// MeanDelay is the time-weighted mean of the delay function.
	MeanDelay time.Duration
	// Utilization is throughput divided by the trace's offered capacity
	// over the window.
	Utilization float64
	// DeliveredBytes is the total wire bytes delivered in the window.
	DeliveredBytes int64
}

// Evaluate computes the full metric set for a delivery log over [from, to)
// against the trace that drove the link. The log must be in DeliveredAt
// order (links record it that way). It is a thin adapter over Accumulator,
// which experiments now feed online instead of retaining the log; the two
// paths are the same code and produce bit-identical results.
func Evaluate(deliveries []link.Delivery, tr *trace.Trace, prop, from, to time.Duration) Result {
	var a Accumulator
	a.Start(from, to, nil)
	for _, d := range deliveries {
		a.Observe(d)
	}
	return a.Evaluate(tr, prop)
}

// FilterFlow returns only the deliveries belonging to the given flow,
// preserving order (used by the tunnel-isolation experiment).
func FilterFlow(deliveries []link.Delivery, flow uint32) []link.Delivery {
	var out []link.Delivery
	for _, d := range deliveries {
		if d.Flow == flow {
			out = append(out, d)
		}
	}
	return out
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
