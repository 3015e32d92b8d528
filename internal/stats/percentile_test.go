package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileBasics(t *testing.T) {
	s := []float64{4, 1, 3, 2, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4},
	}
	for _, c := range cases {
		if got := Percentile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	if got := Percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("Percentile(nil) = %v, want NaN", got)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	s := []float64{0, 10}
	if got := Percentile(s, 0.95); math.Abs(got-9.5) > 1e-12 {
		t.Errorf("Percentile = %v, want 9.5", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	s := []float64{3, 1, 2}
	Percentile(s, 0.5)
	if s[0] != 3 || s[1] != 1 || s[2] != 2 {
		t.Errorf("input mutated: %v", s)
	}
}

func TestSegmentPercentileUniform(t *testing.T) {
	// One segment from 0 to 10 over 10 s: value is uniform on [0,10].
	segs := []Segment{{Start: 0, Width: 10}}
	for _, p := range []float64{0.1, 0.5, 0.95} {
		want := 10 * p
		if got := SegmentPercentile(segs, p); math.Abs(got-want) > 1e-6 {
			t.Errorf("p=%v: got %v, want %v", p, got, want)
		}
	}
}

func TestSegmentPercentileSawtooth(t *testing.T) {
	// Two identical teeth: distribution same as one tooth.
	one := []Segment{{0, 5}}
	two := []Segment{{0, 5}, {0, 5}}
	for _, p := range []float64{0.25, 0.5, 0.9} {
		a := SegmentPercentile(one, p)
		b := SegmentPercentile(two, p)
		if math.Abs(a-b) > 1e-6 {
			t.Errorf("p=%v: one=%v two=%v", p, a, b)
		}
	}
}

func TestSegmentPercentileOffsetTeeth(t *testing.T) {
	// A constant-delay protocol: many tiny teeth starting at d with tiny
	// width; 95th percentile ~= d.
	var segs []Segment
	for i := 0; i < 100; i++ {
		segs = append(segs, Segment{Start: 0.2, Width: 0.01})
	}
	got := SegmentPercentile(segs, 0.95)
	if got < 0.2 || got > 0.21 {
		t.Errorf("got %v, want in [0.2, 0.21]", got)
	}
}

func TestSegmentPercentileOutageTail(t *testing.T) {
	// Mostly small delays, one 5-second outage tooth. The 95th percentile
	// must be pulled up by the outage.
	segs := []Segment{{Start: 0.02, Width: 0.5}}
	for i := 0; i < 90; i++ {
		segs = append(segs, Segment{Start: 0.02, Width: 0.05})
	}
	base := SegmentPercentile(segs, 0.95)
	segs = append(segs, Segment{Start: 0.02, Width: 5})
	withOutage := SegmentPercentile(segs, 0.95)
	if withOutage <= base {
		t.Errorf("outage did not raise p95: %v <= %v", withOutage, base)
	}
	if withOutage < 1.0 {
		t.Errorf("p95 with 5s outage = %v, want > 1s", withOutage)
	}
}

func TestSegmentPercentileEmpty(t *testing.T) {
	if got := SegmentPercentile(nil, 0.95); !math.IsNaN(got) {
		t.Errorf("got %v, want NaN", got)
	}
	if got := SegmentPercentile([]Segment{{1, 0}}, 0.5); !math.IsNaN(got) {
		t.Errorf("zero-width segments should be ignored; got %v", got)
	}
}

// measureBelowOracle is the measure SegmentPercentile bisects on, one probe
// per pass over the segments: the total time during which the value is <= x.
func measureBelowOracle(segs []Segment, x float64) float64 {
	var m float64
	for _, s := range segs {
		if s.Width <= 0 {
			continue
		}
		switch {
		case x <= s.Start:
		case x >= s.Start+s.Width:
			m += s.Width
		default:
			m += x - s.Start
		}
	}
	return m
}

// segmentPercentileOracle is SegmentPercentile as a plain bisection, one
// measureBelowOracle pass per level: the definition the three-probe pass
// must reproduce bit for bit.
func segmentPercentileOracle(segs []Segment, p float64) float64 {
	var total, lo, hi float64
	first := true
	for _, s := range segs {
		if s.Width <= 0 {
			continue
		}
		total += s.Width
		if first || s.Start < lo {
			lo = s.Start
		}
		if end := s.Start + s.Width; first || end > hi {
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
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if measureBelowOracle(segs, mid) < target {
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

// sameFloat reports whether a and b are the same bits, or both NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// sawtooth returns n random teeth, every seventh of zero width.
func sawtooth(rng *rand.Rand, n int) []Segment {
	segs := make([]Segment, n)
	for i := range segs {
		segs[i] = Segment{Start: 0.02 + 0.3*rng.Float64(), Width: 0.02 * rng.Float64()}
		if i%7 == 3 {
			segs[i].Width = 0
		}
	}
	return segs
}

// TestMeasureBelow3MatchesSingleProbe: each of the three sums is, bit for
// bit, the single-probe sum — where the ordered-probe shortcuts decide,
// where they must not (a probe sitting exactly on a segment whose width
// vanishes next to its start, so that start == end; probes out of order or
// NaN; NaN and infinite segments) and everywhere between.
func TestMeasureBelow3MatchesSingleProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	segs := sawtooth(rng, 500)
	var vanishing []Segment
	for i := 0; i < 100; i++ {
		vanishing = append(vanishing, Segment{Start: 0.25, Width: 1e-18}) // 0.25 + 1e-18 == 0.25
	}
	vanishing = append(vanishing, Segment{Start: 0.2, Width: 0.001})
	odd := append(segs[:len(segs):len(segs)],
		Segment{Start: math.NaN(), Width: 1}, Segment{Start: 0.1, Width: math.Inf(1)},
		Segment{Start: math.Inf(-1), Width: math.Inf(1)}, Segment{Start: 0.2, Width: math.NaN()})
	probes := [][3]float64{
		{0.25, 0.25, 0.25}, {0.25, 0.26, 0.27}, {0.1, 0.2, 0.25}, {0.24, 0.25, 0.26},
		{0, 0.01, 0.02}, {1, 2, 3}, {0.3, 0.2, 0.1}, {0.2, 0.1, 0.3},
		{math.NaN(), 0.2, 0.3}, {0.1, math.NaN(), 0.3}, {0.1, 0.2, math.NaN()},
		{math.Inf(-1), 0.2, math.Inf(1)},
	}
	for i := 0; i < 200; i++ {
		x := [3]float64{0.4 * rng.Float64(), 0.4 * rng.Float64(), 0.4 * rng.Float64()}
		sort.Float64s(x[:])
		probes = append(probes, x)
	}
	for _, list := range [][]Segment{segs, vanishing, odd, nil} {
		for _, x := range probes {
			got0, got1, got2 := measureBelow3(list, x[0], x[1], x[2])
			for k, got := range [3]float64{got0, got1, got2} {
				if want := measureBelowOracle(list, x[k]); !sameFloat(got, want) {
					t.Errorf("%d segments, probes %v: sum %d = %v, a single-probe pass gives %v",
						len(list), x, k, got, want)
				}
			}
		}
	}
}

// TestSegmentPercentileMatchesOracle: measuring three probes per pass
// changes no bit of any result — random sawtooths with zero-width segments
// and an outage tail, a single segment, a range already narrower than the
// tolerance (lo == hi up to 1e-9), and the NaN cases.
func TestSegmentPercentileMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := map[string][]Segment{
		"empty":       nil,
		"zero widths": {{1, 0}, {2, 0}},
		"one segment": {{0.02, 3.5}},
		"lo == hi":    {{0.25, 1e-10}, {0.25, 1e-10}},
	}
	for n := 2; n <= 4096; n *= 4 {
		segs := sawtooth(rng, n)
		cases[fmt.Sprintf("sawtooth n=%d", n)] = segs
		cases[fmt.Sprintf("outage tail n=%d", n)] = append(segs[:n:n], Segment{Start: 0.02, Width: 5})
	}
	for name, segs := range cases {
		for _, p := range []float64{0, 0.05, 0.5, 0.95, 0.999, 1} {
			got, want := SegmentPercentile(segs, p), segmentPercentileOracle(segs, p)
			if !sameFloat(got, want) {
				t.Errorf("%s, p=%v: got %v, the single-probe bisection gives %v (Δ %g)",
					name, p, got, want, got-want)
			}
		}
	}
}

func TestSegmentMean(t *testing.T) {
	segs := []Segment{{Start: 0, Width: 10}}
	if got := SegmentMean(segs); math.Abs(got-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", got)
	}
	segs = []Segment{{Start: 1, Width: 2}, {Start: 3, Width: 2}}
	// Means: 2 and 4, equal weights -> 3.
	if got := SegmentMean(segs); math.Abs(got-3) > 1e-12 {
		t.Errorf("mean = %v, want 3", got)
	}
}

func TestSegmentPercentileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var segs []Segment
		for i := 0; i < 20; i++ {
			segs = append(segs, Segment{Start: r.Float64(), Width: r.Float64()})
		}
		prev := math.Inf(-1)
		for p := 0.05; p < 1; p += 0.1 {
			v := SegmentPercentile(segs, p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuantiles(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	qs := Quantiles(s, 0, 0.5, 1)
	if qs[0] != 1 || qs[1] != 3 || qs[2] != 5 {
		t.Errorf("Quantiles = %v", qs)
	}
	qs = Quantiles(nil, 0.5)
	if !math.IsNaN(qs[0]) {
		t.Errorf("Quantiles(nil) = %v, want NaN", qs)
	}
}
