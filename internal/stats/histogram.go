package stats

import "math"

// LogHistogram is a histogram with logarithmically spaced bins, used to
// reproduce the interarrival-time distribution in Figure 2 of the paper
// (which is plotted on log-log axes and fit with a power-law tail).
type LogHistogram struct {
	lo, hi    float64 // value range covered by the log bins
	bins      []int64
	logLo     float64
	logWidth  float64
	underflow int64
	overflow  int64
	count     int64
}

// NewLogHistogram creates a histogram over [lo, hi) with n log-spaced bins.
func NewLogHistogram(lo, hi float64, n int) *LogHistogram {
	if lo <= 0 || hi <= lo || n <= 0 {
		panic("stats: invalid LogHistogram parameters")
	}
	return &LogHistogram{
		lo: lo, hi: hi,
		bins:     make([]int64, n),
		logLo:    math.Log(lo),
		logWidth: (math.Log(hi) - math.Log(lo)) / float64(n),
	}
}

// Observe records one value.
func (h *LogHistogram) Observe(v float64) {
	h.count++
	if v < h.lo {
		h.underflow++
		return
	}
	if v >= h.hi {
		h.overflow++
		return
	}
	i := int((math.Log(v) - h.logLo) / h.logWidth)
	if i >= len(h.bins) {
		i = len(h.bins) - 1
	}
	h.bins[i]++
}

// Count returns the total number of observations.
func (h *LogHistogram) Count() int64 { return h.count }

// Bin returns the lower edge, upper edge and count of bin i.
func (h *LogHistogram) Bin(i int) (lo, hi float64, n int64) {
	lo = math.Exp(h.logLo + float64(i)*h.logWidth)
	hi = math.Exp(h.logLo + float64(i+1)*h.logWidth)
	return lo, hi, h.bins[i]
}

// NumBins returns the number of log-spaced bins.
func (h *LogHistogram) NumBins() int { return len(h.bins) }

// PowerLawTailFit fits log(density) = a + slope*log(x) over the bins whose
// lower edge is >= from, using least squares on the nonempty bins' midpoint
// densities. It returns the fitted slope (the paper reports t^-3.27 for the
// Verizon LTE downlink tail) and the number of bins used. If fewer than two
// nonempty bins qualify it returns NaN, 0.
func (h *LogHistogram) PowerLawTailFit(from float64) (slope float64, used int) {
	var xs, ys []float64
	for i := 0; i < len(h.bins); i++ {
		lo, hi, n := h.Bin(i)
		if lo < from || n == 0 {
			continue
		}
		mid := math.Sqrt(lo * hi)
		density := float64(n) / (hi - lo) / float64(h.count)
		xs = append(xs, math.Log(mid))
		ys = append(ys, math.Log(density))
	}
	if len(xs) < 2 {
		return math.NaN(), 0
	}
	slope, _ = linearFit(xs, ys)
	return slope, len(xs)
}

// linearFit returns the least-squares slope and intercept of y on x.
func linearFit(x, y []float64) (slope, intercept float64) {
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN(), math.NaN()
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept
}
