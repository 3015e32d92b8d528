package trace

import (
	"math"
	"time"

	"sprout/internal/stats"
)

// Stats summarizes a trace the way Figure 2 of the paper analyzes its
// measurement data: rate, interarrival quantiles, short-gap mass, heavy
// tail and outages. It is the one interarrival analysis: `tracegen -info`
// prints it for a trace file and `sproutbench -run fig2` for a generated
// trace.
type Stats struct {
	// Opportunities is the delivery-opportunity count.
	Opportunities int
	// Duration is the trace length.
	Duration time.Duration
	// MeanRateBps is the average offered rate in bits/s.
	MeanRateBps float64
	// InterarrivalP50 and InterarrivalP99 are interarrival quantiles,
	// to the nanosecond.
	InterarrivalP50, InterarrivalP99 time.Duration
	// FracWithin20ms is the fraction of interarrivals under 20 ms (the
	// paper reports 99.99% on its saturated LTE capture).
	FracWithin20ms float64
	// TailExponent is the fitted power-law slope of the >20 ms tail
	// (the paper fits t^-3.27); NaN if too few tail samples.
	TailExponent float64
	// TailBins is the number of histogram bins the tail fit used.
	TailBins int
	// MaxGap is the longest delivery gap (the worst outage).
	MaxGap time.Duration
	// PerSecondP10 and PerSecondP90 are the 10th/90th percentile of the
	// per-second delivered opportunity counts, quantifying rate swing.
	PerSecondP10, PerSecondP90 float64
}

// ComputeStats analyzes a trace. Traces with fewer than two opportunities
// return a zero Stats with only the counts filled.
func (t *Trace) ComputeStats() Stats {
	s := Stats{
		Opportunities: t.Count(),
		Duration:      t.Duration(),
		MeanRateBps:   t.MeanRateBps(),
	}
	gaps := t.Interarrivals()
	if len(gaps) == 0 {
		return s
	}
	us := make([]float64, len(gaps))
	within := 0
	h := stats.NewLogHistogram(0.05, 10_000, 120) // 0.05 ms .. 10 s, log bins (ms)
	for i, g := range gaps {
		us[i] = float64(g) / float64(time.Microsecond)
		if g < 20*time.Millisecond {
			within++
		}
		if g > s.MaxGap {
			s.MaxGap = g
		}
		h.Observe(float64(g) / float64(time.Millisecond))
	}
	qs := stats.Quantiles(us, 0.5, 0.99)
	s.InterarrivalP50 = time.Duration(math.Round(qs[0] * float64(time.Microsecond)))
	s.InterarrivalP99 = time.Duration(math.Round(qs[1] * float64(time.Microsecond)))
	s.FracWithin20ms = float64(within) / float64(len(gaps))
	s.TailExponent, s.TailBins = h.PowerLawTailFit(20) // fit the >20 ms tail as the paper does

	secs := int(t.Duration()/time.Second) + 1
	perSec := make([]float64, secs)
	for _, op := range t.Opportunities {
		perSec[int(op/time.Second)]++
	}
	ps := stats.Quantiles(perSec, 0.1, 0.9)
	s.PerSecondP10, s.PerSecondP90 = ps[0], ps[1]
	return s
}
