package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
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
		if got := SegmentPercentile(chunked(segs), p, nil); math.Abs(got-want) > 1e-6 {
			t.Errorf("p=%v: got %v, want %v", p, got, want)
		}
	}
}

func TestSegmentPercentileSawtooth(t *testing.T) {
	// Two identical teeth: distribution same as one tooth.
	one := []Segment{{0, 5}}
	two := []Segment{{0, 5}, {0, 5}}
	for _, p := range []float64{0.25, 0.5, 0.9} {
		a := SegmentPercentile(chunked(one), p, nil)
		b := SegmentPercentile(chunked(two), p, nil)
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
	got := SegmentPercentile(chunked(segs), 0.95, nil)
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
	base := SegmentPercentile(chunked(segs), 0.95, nil)
	segs = append(segs, Segment{Start: 0.02, Width: 5})
	withOutage := SegmentPercentile(chunked(segs), 0.95, nil)
	if withOutage <= base {
		t.Errorf("outage did not raise p95: %v <= %v", withOutage, base)
	}
	if withOutage < 1.0 {
		t.Errorf("p95 with 5s outage = %v, want > 1s", withOutage)
	}
}

func TestSegmentPercentileEmpty(t *testing.T) {
	if got := SegmentPercentile(chunked(nil), 0.95, nil); !math.IsNaN(got) {
		t.Errorf("got %v, want NaN", got)
	}
	if got := SegmentPercentile(chunked([]Segment{{1, 0}}), 0.5, nil); !math.IsNaN(got) {
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

// chunked returns segs appended to a fresh Segments.
func chunked(segs []Segment) *Segments {
	var out Segments
	for _, s := range segs {
		out.Append(s)
	}
	return &out
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
			got0, got1, got2 := measureBelow3(chunked(list), x[0], x[1], x[2])
			for k, got := range [3]float64{got0, got1, got2} {
				if want := measureBelowOracle(list, x[k]); !sameFloat(got, want) {
					t.Errorf("%d segments, probes %v: sum %d = %v, a single-probe pass gives %v",
						len(list), x, k, got, want)
				}
			}
		}
	}
}

// TestSegmentPercentileMatchesOracle: certifying levels from the segments
// near the answer changes no bit of any result — random sawtooths with
// zero-width segments and an outage tail, delivery and omniscient streams
// (with an outage long enough to move the quantile), quantized starts and
// widths (probes land on segment ends), one start or width NaN or
// infinite in a long stream, a single segment, a range already narrower
// than the tolerance (lo == hi up to 1e-9), and the empty cases —
// with a fresh scratch and one reused across calls of every size.
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
	for _, n := range []int{300, 5000, 40000} {
		cases[fmt.Sprintf("delivery n=%d", n)] = deliverySawtooth(rng, n)
		cases[fmt.Sprintf("omniscient n=%d", n)] = omniscientStream(rng, n)
		heavy := omniscientStream(rng, n)
		heavy[n/3].Width = float64(n) / 1000 // as long as every other gap together
		cases[fmt.Sprintf("omniscient, long outage n=%d", n)] = heavy
		quantized := make([]Segment, n)
		for i := range quantized {
			quantized[i] = Segment{Start: float64(rng.Intn(64)) / 1024, Width: float64(rng.Intn(4)) / 1024}
		}
		cases[fmt.Sprintf("quantized n=%d", n)] = quantized
	}
	for name, v := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		start, width := deliverySawtooth(rng, 5000), deliverySawtooth(rng, 5000)
		start[2500].Start, width[2500].Width = v, v
		cases[name+" start n=5000"], cases[name+" width n=5000"] = start, width
	}
	var sc SegmentScratch
	for name, segs := range cases {
		for _, p := range []float64{0, 0.05, 0.5, 0.95, 0.999, 1} {
			want := segmentPercentileOracle(segs, p)
			for _, scratch := range []*SegmentScratch{nil, &sc} {
				if got := SegmentPercentile(chunked(segs), p, scratch); !sameFloat(got, want) {
					t.Errorf("%s, p=%v: got %v, the single-probe bisection gives %v (Δ %g)",
						name, p, got, want, got-want)
				}
			}
		}
	}
}

// TestSegmentPercentileAcrossChunks: at the chunk boundaries of Segments
// (one short of a chunk, a chunk, one past, three chunks and a few), with
// leading zero-width segments so that the collection's blocks of 256 start
// off the chunks' alignment and some straddle a boundary, every percentile
// is the single-probe bisection's bits, on a fresh sequence and on one
// reset and refilled. The mean is the in-order sum's too.
func TestSegmentPercentileAcrossChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var reused Segments
	var sc SegmentScratch
	for _, n := range []int{chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 7} {
		for _, shape := range []struct {
			name string
			make func(*rand.Rand, int) []Segment
		}{{"delivery", deliverySawtooth}, {"omniscient", omniscientStream}, {"sawtooth", sawtooth}} {
			segs := shape.make(rng, n)
			for i := range 37 {
				segs[i].Width = 0
			}
			reused.Reset()
			for _, s := range segs {
				reused.Append(s)
			}
			fresh := chunked(segs)
			if fresh.Len() != n || reused.Len() != n {
				t.Fatalf("%s n=%d: Len %d fresh, %d reused", shape.name, n, fresh.Len(), reused.Len())
			}
			for i := range segs {
				if fresh.at(i) != segs[i] || reused.at(i) != segs[i] {
					t.Fatalf("%s n=%d: segment %d is %v fresh, %v reused, want %v", shape.name, n, i, fresh.at(i), reused.at(i), segs[i])
				}
			}
			var probes []float64
			for _, p := range []float64{0.05, 0.5, 0.95, 0.999} {
				want := segmentPercentileOracle(segs, p)
				probes = append(probes, want)
				for _, in := range []*Segments{fresh, &reused} {
					if got := SegmentPercentile(in, p, &sc); !sameFloat(got, want) {
						t.Errorf("%s n=%d, p=%v: got %v, the single-probe bisection gives %v", shape.name, n, p, got, want)
					}
				}
			}
			// The exact pass, which the certified levels may never need
			// here, walks the chunks too.
			for k := 0; k+2 < len(probes); k++ {
				sums := [3]float64{}
				sums[0], sums[1], sums[2] = measureBelow3(fresh, probes[k], probes[k+1], probes[k+2])
				for j, got := range sums {
					if want := measureBelowOracle(segs, probes[k+j]); !sameFloat(got, want) {
						t.Errorf("%s n=%d: the exact pass measures %v below %v, a single-probe pass %v", shape.name, n, got, probes[k+j], want)
					}
				}
			}
			var total, acc float64
			for _, s := range segs {
				if s.Width > 0 {
					total += s.Width
					acc += (s.Start + s.Width/2) * s.Width
				}
			}
			if got := SegmentMean(fresh); !sameFloat(got, acc/total) {
				t.Errorf("%s n=%d: mean %v, the in-order sum gives %v", shape.name, n, got, acc/total)
			}
		}
	}
}

// decodeSegments reads a fuzz input: a mode byte, a repeat count, and a
// pattern of segments that repeats. Mode 0 reads raw float64 pairs, so
// NaN, infinities and any magnitude; mode 1 dyadic starts and widths, so
// probes land exactly on segment ends; mode 2 milliseconds as a run
// records them; mode 3 an omniscient stream, every start the propagation
// delay, byte 255 a 3 s outage. Repeats stop past 2^14 segments.
func decodeSegments(data []byte) []Segment {
	if len(data) < 2 {
		return nil
	}
	mode, repeat, body := data[0]%4, int(data[1])+1, data[2:]
	var pattern []Segment
	switch mode {
	case 0:
		for ; len(body) >= 16; body = body[16:] {
			pattern = append(pattern, Segment{
				Start: math.Float64frombits(binary.LittleEndian.Uint64(body)),
				Width: math.Float64frombits(binary.LittleEndian.Uint64(body[8:])),
			})
		}
	case 1, 2:
		q := 1.0 / 1024
		if mode == 2 {
			q = time.Millisecond.Seconds()
		}
		for ; len(body) >= 2; body = body[2:] {
			pattern = append(pattern, Segment{Start: float64(body[0]) * q, Width: float64(body[1]%16) * q})
		}
	case 3:
		for _, b := range body {
			w := float64(b) * 0.0001
			if b == 255 {
				w = 3
			}
			pattern = append(pattern, Segment{Start: 0.02, Width: w})
		}
	}
	if len(pattern) > 0 {
		repeat = min(repeat, 1<<14/len(pattern)+1)
	}
	segs := make([]Segment, 0, repeat*len(pattern))
	for range repeat {
		segs = append(segs, pattern...)
	}
	return segs
}

// FuzzSegmentPercentile: on any segments and any p, the certified
// bisection returns the single-probe bisection's bits.
func FuzzSegmentPercentile(f *testing.F) {
	raw := func(segs ...Segment) []byte {
		b := []byte{0, 0}
		for _, s := range segs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Start))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Width))
		}
		return b
	}
	rng := rand.New(rand.NewSource(41))
	omni := []byte{3, 7}
	for i := 0; i < 300; i++ {
		omni = append(omni, byte(rng.Intn(40)))
	}
	omni[150] = 255
	f.Add(omni, 0.95)
	quantized := []byte{1, 3}
	for i := 0; i < 400; i++ {
		quantized = append(quantized, byte(rng.Intn(64)), byte(rng.Intn(4)))
	}
	f.Add(quantized, 0.95)
	f.Add(quantized, 0.5)
	ms := []byte{2, 1}
	for i := 0; i < 400; i++ {
		ms = append(ms, byte(100+rng.Intn(50)), byte(rng.Intn(16)))
	}
	f.Add(ms, 0.95)
	f.Add(raw(Segment{0.25, 1e-18}, Segment{0.25, 1e-18}, Segment{0.2, 0.001}), 0.95)
	f.Add(raw(Segment{math.NaN(), 1}, Segment{0.1, math.Inf(1)}, Segment{0.2, 0.3}), 0.95)
	f.Add(raw(Segment{math.Inf(-1), math.Inf(1)}, Segment{0.2, math.NaN()}), 0.5)
	f.Add(raw(Segment{0.02, 3.5}), math.NaN())
	var sc SegmentScratch
	var in Segments // reset and refilled: later inputs land in retained chunks
	f.Fuzz(func(t *testing.T, data []byte, p float64) {
		segs := decodeSegments(data)
		in.Reset()
		for _, s := range segs {
			in.Append(s)
		}
		got, want := SegmentPercentile(&in, p, &sc), segmentPercentileOracle(segs, p)
		if !sameFloat(got, want) {
			t.Fatalf("%d segments, p=%v: got %v, the single-probe bisection gives %v", len(segs), p, got, want)
		}
	})
}

func TestSegmentMean(t *testing.T) {
	segs := []Segment{{Start: 0, Width: 10}}
	if got := SegmentMean(chunked(segs)); math.Abs(got-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", got)
	}
	segs = []Segment{{Start: 1, Width: 2}, {Start: 3, Width: 2}}
	// Means: 2 and 4, equal weights -> 3.
	if got := SegmentMean(chunked(segs)); math.Abs(got-3) > 1e-12 {
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
			v := SegmentPercentile(chunked(segs), p, nil)
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

// deliverySawtooth returns a delivery stream's d(t): each tooth starts at a
// queueing delay that wanders over tens of milliseconds and lasts an
// exponential inter-arrival gap of 1 ms on average.
func deliverySawtooth(rng *rand.Rand, n int) []Segment {
	segs := make([]Segment, n)
	q := 0.05
	for i := range segs {
		q = math.Abs(q + 0.002*rng.NormFloat64())
		segs[i] = Segment{Start: 0.02 + q, Width: 0.001 * rng.ExpFloat64()}
	}
	return segs
}

// omniscientStream returns the omniscient protocol's d(t): every tooth
// starts at the propagation delay and lasts an exponential gap between
// opportunities, with one 3 s outage in the middle.
func omniscientStream(rng *rand.Rand, n int) []Segment {
	segs := make([]Segment, n)
	for i := range segs {
		segs[i] = Segment{Start: 0.02, Width: 0.001 * rng.ExpFloat64()}
	}
	segs[n/2].Width = 3
	return segs
}

// BenchmarkSegmentPercentile times the 95th percentile of the two shapes
// every run computes, on a warm scratch, at a short and a long run's size.
func BenchmarkSegmentPercentile(b *testing.B) {
	for _, shape := range []struct {
		name string
		make func(*rand.Rand, int) []Segment
	}{{"delivery", deliverySawtooth}, {"omniscient", omniscientStream}} {
		for _, n := range []int{4_000, 400_000} {
			segs := chunked(shape.make(rand.New(rand.NewSource(1)), n))
			b.Run(fmt.Sprintf("%s/n=%d", shape.name, n), func(b *testing.B) {
				var sc SegmentScratch
				SegmentPercentile(segs, 0.95, &sc)
				b.ReportAllocs()
				for b.Loop() {
					SegmentPercentile(segs, 0.95, &sc)
				}
			})
		}
	}
}
