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
//
// The result is, bit for bit, the bisection that measures each level's mid
// with one in-order pass over the segments (measureBelow3 takes two levels
// a pass). Most levels are decided instead from the segments near the
// answer, by a sum whose distance from that pass is bounded; see
// collection. sc holds the buffers reused from call to call; nil lends a
// fresh one.
func SegmentPercentile(segs []Segment, p float64, sc *SegmentScratch) float64 {
	first := 0
	for first < len(segs) && segs[first].Width <= 0 {
		first++
	}
	if first == len(segs) {
		return math.NaN()
	}
	if sc == nil {
		sc = new(SegmentScratch)
	}
	// The pass that takes the total and the bracket also collects the
	// segments near where a sample puts the answer.
	c := &sc.col
	from, to := sc.guess(segs, first, p)
	total, lo, hi := c.collect(segs, first, from, to)
	if p <= 0 {
		return lo
	}
	if p >= 1 {
		return hi
	}
	target := p * total
	// Bisection on x, at most 200 levels; the measure is continuous and
	// nondecreasing. Input with an infinite value, or one not far from
	// overflow, takes the exact pass at every level; a NaN start makes
	// every sum it enters NaN, which decides nothing.
	b := bisection{lo: lo, hi: hi}
	x := math.Max(math.Abs(lo), math.Abs(hi))
	if total <= 0x1p900 && x <= 0x1p900 && uint64(len(segs)) <= math.MaxUint32 {
		c.levels(segs, &b, target, total, x)
	}
	for !b.done {
		b.exact(segs, target)
	}
	return b.mid()
}

// bisection is SegmentPercentile's bracket: each level halves [lo, hi] on
// the decision "the measure at mid falls short of the target", until it is
// narrower than 1e-9 or 200 levels are taken.
type bisection struct {
	lo, hi float64
	levels int
	done   bool
}

func (b *bisection) mid() float64 { return float64((b.lo + b.hi) / 2) }

// decide takes one level.
func (b *bisection) decide(short bool) {
	mid := b.mid()
	if short {
		b.lo = mid
	} else {
		b.hi = mid
	}
	b.levels++
	b.done = b.hi-b.lo < 1e-9 || b.levels == 200
}

// exact decides the next level, and the one after it, from one in-order
// pass that measures this level's mid and both mids the next level can ask
// for.
func (b *bisection) exact(segs []Segment, target float64) {
	mid := b.mid()
	low, high := float64((b.lo+mid)/2), float64((mid+b.hi)/2)
	mLow, mMid, mHigh := measureBelow3(segs, low, mid, high)
	short := mMid < target
	b.decide(short)
	if b.done {
		return
	}
	if short {
		b.decide(mHigh < target)
	} else {
		b.decide(mLow < target)
	}
}

// SegmentScratch holds the buffers SegmentPercentile reuses from one call
// to the next, at most 4 bytes per segment of the largest call. The zero
// value is ready. Not safe for concurrent use.
type SegmentScratch struct {
	col  collection
	hist []bucket
}

// unitRoundoff is u, the largest relative error of one rounded float64
// operation.
const unitRoundoff = 0x1p-53

// The guess samples about sampleSize segments, counts every segment wider
// than heavyWidths times the sample's mean, and leaves guessMargin of the
// weight to spare on each side of the quantile.
const (
	sampleSize  = 1024
	heavyWidths = 8
	guessMargin = 0.025
)

// bucket holds, for the starts and ends in one histogram bucket, the
// count of starts less the count of ends and the sum of the starts less
// the sum of the ends, each weighted.
type bucket struct{ net, sum float64 }

// guess returns an interval that, going by an estimate of the measure,
// holds the p-quantile with guessMargin of the weight to spare on each
// side. The estimate is a histogram over the sample's range of every
// heavy segment and of every light one in the sample, scaled by its
// stride: a stream's few long gaps (an outage, an idle sender) can hold a
// sixth of its time. A wrong guess costs time, not bits.
func (sc *SegmentScratch) guess(segs []Segment, first int, p float64) (from, to float64) {
	n := len(segs)
	stride := max(n/sampleSize, 8)
	var sampled, count float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := first; i < n; i += stride {
		if s := segs[i]; s.Width > 0 {
			sampled += s.Width
			count++
			lo, hi = min(lo, s.Start), max(hi, s.Start+s.Width)
		}
	}
	nb := min(n/8, sampleSize) // 16 bytes a bucket: at most 2 bytes a segment
	if nb < 4 || !(lo < hi) || hi-lo > math.MaxFloat64 {
		return segs[first].Start, segs[first].Start
	}
	if cap(sc.hist) < nb {
		sc.hist = make([]bucket, nb)
	}
	bk := sc.hist[:nb]
	clear(bk)
	h, inv := (hi-lo)/float64(nb), float64(nb)/(hi-lo)
	index := func(v float64) int {
		switch k := (v - lo) * inv; {
		case !(k > 0):
			return 0
		case k < float64(nb-1):
			return int(k)
		}
		return nb - 1
	}
	var total float64
	add := func(s Segment, weight float64) {
		end := s.Start + s.Width
		total += float64(weight * s.Width)
		a, c := index(s.Start), index(end)
		bk[a].net += weight
		bk[a].sum += float64(weight * s.Start)
		bk[c].net -= weight
		bk[c].sum -= float64(weight * end)
	}
	heavy := heavyWidths * sampled / count
	for _, s := range segs[first:] {
		if s.Width > heavy {
			add(s, 1)
		}
	}
	for i := first; i < n; i += stride {
		if s := segs[i]; s.Width > 0 && s.Width <= heavy {
			add(s, float64(stride))
		}
	}
	// Walk the edges with the estimated measure under each,
	// Σ_{start<e} (e − start) − Σ_{end<e} (e − end); values outside the
	// sample's range sit in the end buckets, which is exact at every
	// inner edge.
	from, to = lo, hi
	low, high := (p-guessMargin)*total, (p+guessMargin)*total
	var net, sum float64
	for k := 1; k < nb; k++ {
		net += bk[k-1].net
		sum += bk[k-1].sum
		e := lo + float64(float64(k)*h)
		m := float64(e*net) - sum
		if m <= low {
			from = e
		}
		if m >= high {
			to = e
			break
		}
	}
	return from, to
}

// collection is what the certified levels work from: for a mid in
// [from, to], every segment that ends at or under from measures its whole
// width and every one that starts at or over to measures nothing. One
// that spans the interval (start <= from, end >= to) measures mid − start
// up to a rounding of u·(|mid − start| + |end|), so those are summed as
// count·(mid − from) + Σ (from − start). The rest, the partial ones, are
// kept by index, at most half the segments, and measured one by one
// exactly as the exact pass measures them.
//
// Let F(x) be the exact pass's in-order float sum of the terms
// below(end, x), and T(x) the same terms summed exactly. Each of F's
// additions rounds by at most u times its exact partial sum, and a term at
// index i is in at most n − i of those, so
// |F − T| ≤ u·(1 + γₙ)·Σ (n − i)·termᵢ, with γₙ = n·u/(1 − n·u); the
// collection sums that alongside, weighing a block of full widths by its
// first index, so from above. G, its own sum, adds the full
// widths in blocks of 256 and the rest in short sums, so each term passes
// through at most m = 256 + n/256 + spanning + 2·partial + 8 additions and
// |G − T| ≤ γₘ·G, plus the spanning ones' rounding, at most 3·u·X each (X
// bounds every |value|). When G lies further from the target than the sum
// of both bounds, the exact pass would decide the same.
//
// A mid outside [from, to] is bounded by the measure at the nearer end:
// a float term can fall as x grows, but by at most u·|end|, when x reaches
// end, so T(mid) ≤ T(from) + n·u·X for mid < from, and T(mid) ≥ T(to) −
// n·u·X for mid > to, where F is within u·n·total of T.
type collection struct {
	from, to       float64
	full, fullW    float64 // full widths, and each times n − i or more
	span, spanSum  float64 // spanning count, and Σ (from − start)
	spanW, spanSub float64 // the same, each times n − i or more
	m              float64
	keep           []uint32
	ok             bool // every segment straddling [from, to] is kept
	edges          [2]struct {
		g, e  float64
		valid bool
	}
}

// collect is one pass over segs that collects for [from, to] and returns,
// in the order the exact pass takes them, the total width and the
// least start and the greatest end, of the segments from index first (the
// first of positive width) on.
func (c *collection) collect(segs []Segment, first int, from, to float64) (total, lo, hi float64) {
	n := len(segs)
	limit := n / 2
	*c = collection{from: from, to: to, keep: c.keep[:0], ok: true}
	lo, hi = segs[first].Start, segs[first].Start+segs[first].Width
	for base := first; base < n; base += 256 {
		// Every index in the block weighs at most w.
		var blk float64
		w := float64(n - base)
		for i, s := range segs[base:min(base+256, n)] {
			if s.Width <= 0 {
				continue
			}
			total += s.Width
			end := s.Start + s.Width
			if s.Start < lo {
				lo = s.Start
			}
			if end > hi {
				hi = end
			}
			switch {
			case end <= from:
				blk += s.Width
			case s.Start >= to:
			case s.Start <= from && end >= to:
				d := from - s.Start
				c.span++
				c.spanSum += d
				c.spanW += w
				c.spanSub += float64(w * d)
			case len(c.keep) < limit:
				if len(c.keep) == cap(c.keep) { // double, up to limit
					c.keep = append(make([]uint32, 0, min(max(2*cap(c.keep), 1024), limit)), c.keep...)
				}
				c.keep = append(c.keep, uint32(base+i))
			default:
				c.ok = false
			}
		}
		c.full += blk
		c.fullW += float64(w * blk)
	}
	c.m = float64(256+n/256+2*len(c.keep)+8) + c.span
	return total, lo, hi
}

// measure returns G(x) and the bound on |F(x) − G(x)|, for x in
// [from, to] and in the bracket [lo, hi]. On the way it moves each partial
// segment that ends at or under lo to the full ones, drops each that
// starts at or over hi, and moves each that spans [from, hi] to the
// spanning ones, with lo and hi clipped to [from, to] and widened to x: no
// later mid, and neither end of [from, to] when a later mid can fall past
// it, can tell them apart.
func (c *collection) measure(segs []Segment, x, lo, hi, xmax float64) (g, e float64) {
	lo, hi = min(max(lo, c.from), x), max(min(hi, c.to), x)
	n := len(segs)
	var part, partW float64
	k := 0
	for _, i := range c.keep {
		s := segs[i]
		end := s.Start + s.Width
		w := float64(n - int(i))
		switch {
		case end <= lo:
			c.full += s.Width
			c.fullW += float64(w * s.Width)
			continue
		case s.Start >= hi:
			continue
		case s.Start <= c.from && end >= hi:
			d := c.from - s.Start
			c.span++
			c.spanSum += d
			c.spanW += w
			c.spanSub += float64(w * d)
			continue
		}
		c.keep[k] = i
		k++
		t := s.below(end, x)
		part += t
		partW += float64(w * t)
	}
	c.keep = c.keep[:k]
	dx := x - c.from
	g = c.full + part + (float64(c.span*dx) + c.spanSum)
	w := c.fullW + partW + float64(c.spanW*dx) + c.spanSub
	e = float64((w + float64(c.m*g) + float64(float64(3*xmax)*c.span)) * (1.01 * unitRoundoff))
	return g, e
}

// atEdge returns measure at from (k = 0) or to (k = 1), computed once.
func (c *collection) atEdge(segs []Segment, k int, b *bisection, xmax float64) (g, e float64) {
	if v := &c.edges[k]; !v.valid {
		x := c.from
		if k == 1 {
			x = c.to
		}
		v.g, v.e = c.measure(segs, x, b.lo, b.hi, xmax)
		v.valid = true
	}
	return c.edges[k].g, c.edges[k].e
}

// levels decides b's levels from the collection, collecting again for the
// bracket, or for its side of the interval the answer has been shown to
// lie beyond, when a mid falls outside it undecided; a level the bound
// leaves open, or a bracket too wide to collect, takes the exact pass.
func (c *collection) levels(segs []Segment, b *bisection, target, total, xmax float64) {
	n := float64(len(segs))
	drop := float64(float64(2*n*xmax) * unitRoundoff)
	for !b.done {
		if !c.ok {
			b.exact(segs, target)
			if !b.done {
				c.collect(segs, 0, b.lo, b.hi)
			}
			continue
		}
		mid := b.mid()
		switch {
		case mid < c.from:
			g, e := c.atEdge(segs, 0, b, xmax)
			if g+e+drop < target {
				b.decide(true)
				continue
			}
			hi := b.hi
			if g-e-drop >= target {
				hi = c.from
			}
			c.collect(segs, 0, b.lo, hi)
		case mid > c.to:
			g, e := c.atEdge(segs, 1, b, xmax)
			e += float64(float64(1.01*n*total) * unitRoundoff)
			if g-e-drop >= target {
				b.decide(false)
				continue
			}
			lo := b.lo
			if g+e+drop < target {
				lo = c.to
			}
			c.collect(segs, 0, lo, b.hi)
		default:
			g, e := c.measure(segs, mid, b.lo, b.hi, xmax)
			switch {
			case g-e >= target:
				b.decide(false)
			case g+e < target:
				b.decide(true)
			default:
				b.exact(segs, target)
			}
		}
	}
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
