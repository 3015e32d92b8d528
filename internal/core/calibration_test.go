package core_test

import (
	"math/rand"
	"testing"
	"time"

	"sprout/internal/core"
	"sprout/internal/trace"
)

// calibrationConfidences are Fig. 9's five forecast confidences, highest
// first.
var calibrationConfidences = [...]float64{0.95, 0.75, 0.5, 0.25, 0.05}

const calibrationSlots = core.DefaultForecastTicks

// calibration scores one link and seed: over every forecast made after
// the warm-up, how often the deliveries of the next i ticks (slot i)
// fell under the forecast (under) and at or under it (atMost), per
// confidence, and how often they fell under Sprout-EWMA's.
type calibration struct {
	forecasts     int
	under, atMost [len(calibrationConfidences)][calibrationSlots]int
	ewmaUnder     [calibrationSlots]int
}

// rate returns a count as a fraction of the forecasts scored.
func (c *calibration) rate(k int) float64 { return float64(k) / float64(c.forecasts) }

// calibrate generates a 120 s trace of the link, bins its opportunities
// into the filter's 20 ms ticks and feeds each tick to the forecaster as
// an exact observation: a sender that keeps the queue full, so every
// opportunity is seen. Every forecast after 1 s of warm-up is scored
// against the opportunities that follow it.
func calibrate(link trace.LinkModel, seed int64) calibration {
	const duration, tick = 120 * time.Second, core.DefaultTick
	tr := link.Generate(duration, rand.New(rand.NewSource(seed)))
	counts := make([]float64, duration/tick)
	for _, at := range tr.Opportunities {
		if i := int(at / tick); i < len(counts) {
			counts[i]++
		}
	}
	f := core.NewDeliveryForecaster(core.NewModel(core.DefaultParams()))
	ewma := core.NewEWMAForecaster()
	warm := int(time.Second / tick)
	var c calibration
	var bound, line []float64
	for t, n := range counts {
		f.Tick(n, core.ObsExact)
		ewma.Tick(n, core.ObsExact)
		if t < warm || t+calibrationSlots >= len(counts) {
			continue
		}
		bound = f.ForecastAll(bound[:0], calibrationConfidences[:])
		line = ewma.Forecast(line[:0])
		c.forecasts++
		actual := 0.0
		for i := range calibrationSlots {
			actual += counts[t+1+i]
			for ci := range calibrationConfidences {
				q := bound[ci*calibrationSlots+i]
				if actual < q {
					c.under[ci][i]++
				}
				if actual <= q {
					c.atMost[ci][i]++
				}
			}
			if actual < line[i] {
				c.ewmaUnder[i]++
			}
		}
	}
	return c
}

// calibrationBands pins, per link, where the band [P(actual < forecast),
// P(actual ≤ forecast)] of the 95 % forecast lies at slot 1 and at slot 8:
// {{lowest P(<), highest P(≤)} at slot 1, the same at slot 8}. The band is
// wide where counts are small — Verizon 3G delivers under one packet a
// tick, so slot 1's bound is often 0 and P(<) stays near 0 while P(≤)
// passes a third.
var calibrationBands = map[string][2][2]float64{
	"Verizon-LTE-down": {{0.020, 0.15}, {0.012, 0.07}},
	"Verizon-LTE-up":   {{0.015, 0.22}, {0.006, 0.11}},
	"Verizon-3G-down":  {{0, 0.68}, {0, 0.20}},
	"Verizon-3G-up":    {{0, 0.64}, {0, 0.17}},
	"ATT-LTE-down":     {{0.017, 0.22}, {0.007, 0.10}},
	"ATT-LTE-up":       {{0.001, 0.52}, {0, 0.11}},
	"TMobile-3G-down":  {{0.005, 0.33}, {0, 0.11}},
	"TMobile-3G-up":    {{0.001, 0.47}, {0, 0.23}},
}

// TestForecastCalibration scores Sprout's forecast against the link it
// models (§3.3), eight canonical links by seeds 1–10 (seed 1 under
// -short). On every link, seed and slot:
//   - at 95 % confidence, the deliveries fall under the forecast at most
//     5 % of the time: the bound never over-promises;
//   - across Fig. 9's confidences that rate rises strictly as the
//     confidence falls;
//   - Sprout-EWMA's point estimate is undercut more than 40 % of the time
//     at slot 1, the stochastic model's case in one number.
//
// On at least 9 of 10 seeds, each link's band at slots 1 and 8 lies
// within calibrationBands and slot 1's band holds 5 %.
func TestForecastCalibration(t *testing.T) {
	seeds := int64(10)
	if testing.Short() {
		seeds = 1
	}
	for _, link := range trace.CanonicalLinks() {
		pins, ok := calibrationBands[link.Name]
		if !ok {
			t.Fatalf("%s: no pinned band", link.Name)
		}
		held := 0
		for seed := int64(1); seed <= seeds; seed++ {
			c := calibrate(link, seed)
			for i := range calibrationSlots {
				if r := c.rate(c.under[0][i]); r > 0.05 {
					t.Errorf("%s seed %d slot %d: deliveries fell under the 95%% forecast %.2f%% of the time",
						link.Name, seed, i+1, 100*r)
				}
				for ci := 1; ci < len(calibrationConfidences); ci++ {
					if c.under[ci][i] <= c.under[ci-1][i] {
						t.Errorf("%s seed %d slot %d: P(actual < forecast) is %.4f at %v%% confidence, not above %.4f at %v%%",
							link.Name, seed, i+1, c.rate(c.under[ci][i]), 100*calibrationConfidences[ci],
							c.rate(c.under[ci-1][i]), 100*calibrationConfidences[ci-1])
					}
				}
			}
			if r := c.rate(c.ewmaUnder[0]); r <= 0.40 {
				t.Errorf("%s seed %d: deliveries fell under Sprout-EWMA's slot-1 forecast only %.1f%% of the time",
					link.Name, seed, 100*r)
			}
			ok := true
			for k, slot := range [2]int{0, calibrationSlots - 1} {
				under, atMost := c.rate(c.under[0][slot]), c.rate(c.atMost[0][slot])
				ok = ok && under >= pins[k][0] && atMost <= pins[k][1]
				if slot == 0 {
					ok = ok && under <= 0.05 && 0.05 <= atMost
				}
			}
			if ok {
				held++
			}
			t.Logf("%s seed %d: slot 1 [%.4f, %.4f], slot 8 [%.4f, %.4f], EWMA slot 1 %.3f",
				link.Name, seed, c.rate(c.under[0][0]), c.rate(c.atMost[0][0]),
				c.rate(c.under[0][calibrationSlots-1]), c.rate(c.atMost[0][calibrationSlots-1]), c.rate(c.ewmaUnder[0]))
		}
		t.Logf("%s: pinned band held on %d of %d seeds", link.Name, held, seeds)
		if 10*held < 9*int(seeds) {
			t.Errorf("%s: pinned band held on only %d of %d seeds", link.Name, held, seeds)
		}
	}
}
