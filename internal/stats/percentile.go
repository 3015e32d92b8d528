package stats

import (
	"math"
	"sort"
)

// Percentile returns the p-quantile (p in [0,1]) of the given sample; see
// Quantiles.
func Percentile(sample []float64, p float64) float64 {
	return Quantiles(sample, p)[0]
}

// Quantiles returns the ps-quantiles (each in [0,1]) of the given sample
// using linear interpolation between order statistics. It copies and sorts
// the input once. An empty sample returns NaN for every p.
func Quantiles(sample []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(sample) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	for i, p := range ps {
		if p <= 0 {
			out[i] = s[0]
			continue
		}
		if p >= 1 {
			out[i] = s[len(s)-1]
			continue
		}
		pos := p * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		if lo == hi {
			out[i] = s[lo]
			continue
		}
		frac := pos - float64(lo)
		out[i] = s[lo]*(1-frac) + s[hi]*frac
	}
	return out
}

// Segment is one piece of a piecewise-linear function of time: over a span
// of duration Width (seconds), the function rises linearly from Start to
// Start+Width. Sprout's end-to-end delay metric is exactly this shape: at
// each packet arrival the delay resets to that packet's delay, then grows at
// 1 s/s until the next arrival (paper §5.1, footnote 7).
type Segment struct {
	Start float64 // function value at the beginning of the segment (seconds)
	Width float64 // duration of the segment (seconds); value ends at Start+Width
}

// SegmentPercentile returns the p-quantile (p in [0,1]) of the value of a
// piecewise-linear sawtooth function, weighted by time. Each segment
// contributes a uniform distribution on [Start, Start+Width] with weight
// Width. Zero-width segments are ignored. Returns NaN if total width is 0.
func SegmentPercentile(segs []Segment, p float64) float64 {
	var total float64
	var lo, hi float64
	first := true
	for _, s := range segs {
		if s.Width <= 0 {
			continue
		}
		total += s.Width
		if first || s.Start < lo {
			lo = s.Start
		}
		end := s.Start + s.Width
		if first || end > hi {
			hi = end
		}
		first = false
	}
	if total == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return lo
	}
	if p >= 1 {
		return hi
	}
	target := p * total
	// Bisection on x, at most 200 levels; the measure is continuous and
	// nondecreasing. One pass over the segments measures this level's mid
	// and both mids the next level can ask for, so two levels cost one pass;
	// each measure is the sum a pass probing that point alone makes, in the
	// same segment order.
	for pass := 0; pass < 100; pass++ {
		mid := (lo + hi) / 2
		low, high := (lo+mid)/2, (mid+hi)/2
		mLow, mMid, mHigh := measureBelow3(segs, low, mid, high)
		if mMid < target {
			lo, mid, mMid = mid, high, mHigh
		} else {
			hi, mid, mMid = mid, low, mLow
		}
		if hi-lo < 1e-9 {
			break
		}
		if mMid < target {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-9 {
			break
		}
	}
	return (lo + hi) / 2
}

// measureBelow3 returns, for each of three probes, the total time during
// which the sawtooth's value is <= the probe: per probe, the sum a pass
// probing it alone makes, in the same segment order. The sums are three
// independent scalars so that each stays in a register for the whole pass.
//
// Bisection's probes come ordered, low <= mid <= high, and most segments lie
// wholly under or wholly over all three, where the outer probe's comparison
// answers for the other two: once low is past a segment's start (so that no
// probe is at or under it) and at or past its end, all three measure its
// whole width; while high is at or under its start, none measures anything.
func measureBelow3(segs []Segment, low, mid, high float64) (mLow, mMid, mHigh float64) {
	bottom, top := low, high
	if !(low <= mid && mid <= high) {
		// A NaN among the probes: no comparison may answer for another's.
		bottom, top = math.NaN(), math.NaN()
	}
	for _, s := range segs {
		if s.Width <= 0 {
			continue
		}
		end := s.Start + s.Width
		if bottom > s.Start {
			if bottom >= end {
				mLow += s.Width
				mMid += s.Width
				mHigh += s.Width
				continue
			}
		} else if top <= s.Start {
			continue
		}
		mLow += s.below(end, low)
		mMid += s.below(end, mid)
		mHigh += s.below(end, high)
	}
	return mLow, mMid, mHigh
}

// below returns how long the segment, which ends at value end, spends at
// or under x.
func (s Segment) below(end, x float64) float64 {
	switch {
	case x <= s.Start:
		return 0
	case x >= end:
		return s.Width
	default:
		return x - s.Start
	}
}

// SegmentMean returns the time-weighted mean of a piecewise-linear sawtooth
// function. Each segment contributes mean value Start+Width/2 with weight
// Width. Returns NaN if total width is 0.
func SegmentMean(segs []Segment) float64 {
	var total, acc float64
	for _, s := range segs {
		if s.Width <= 0 {
			continue
		}
		total += s.Width
		acc += (s.Start + s.Width/2) * s.Width
	}
	if total == 0 {
		return math.NaN()
	}
	return acc / total
}
