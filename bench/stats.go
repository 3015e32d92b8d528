package main

import (
	"math"
	"sort"

	"sprout/internal/stats"
)

// median interpolates between the middle pair of an even sample; NaN for
// an empty one.
func median(values []float64) float64 { return stats.Percentile(values, 0.5) }

func minMax(values []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range values {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

// quartileSpread is the driver's noise measure: the distance between the
// first and third quartile as a share of the median, with the quartiles
// Python's statistics.quantiles(values, n=4) returns (the "exclusive"
// method: positions (n+1)·k/4 on the sorted sample, clamped).
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return (q(3) - q(1)) / math.Abs(median(s))
}

// worseBy reports by what share of base the value got worse: positive is
// worse, negative better, in the metric's own direction.
func worseBy(m metricDef, base, value float64) float64 {
	d := (value - base) / math.Abs(base)
	if m.better == "higher" {
		return -d
	}
	return d
}

// withinBound reports whether value is no worse than base by more than
// the metric's paired bound plus its absolute slack.
func withinBound(m metricDef, base, value float64) bool {
	return worseBy(m, base, value)*math.Abs(base) <= m.paired*math.Abs(base)+m.slack
}

// verdict compares the medians of two sets of runs that alternated. When
// the runs scatter wider than the bound the medians cannot tell a
// regression of that size from noise, so the pair is unresolved rather than
// in agreement; the comparison runs both ways because neither set is the
// baseline.
func verdict(m metricDef, a, b, spread float64) string {
	mid := math.Abs(a+b) / 2
	switch {
	case spread*mid > m.paired*mid+m.slack:
		return "unresolved"
	case !withinBound(m, a, b) || !withinBound(m, b, a):
		return "disagree"
	}
	return "agree"
}

// geoMean is the geometric mean of the positive values; zeros (a job
// whose measured window saw no delivery) are skipped and counted.
func geoMean(values []float64) (mean float64, skipped int) {
	var sum float64
	n := 0
	for _, v := range values {
		if v <= 0 {
			skipped++
			continue
		}
		sum += math.Log(v)
		n++
	}
	if n == 0 {
		return 0, skipped
	}
	return math.Exp(sum / float64(n)), skipped
}
