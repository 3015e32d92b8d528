package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"sprout/internal/scenario"
	"sprout/internal/trace"
)

// checkResult verifies, from outside, the invariants every Result must
// hold whatever the scheme; it returns the first one broken.
func checkResult(r scenario.Result) error {
	var sum float64
	for _, f := range r.Flows {
		if math.IsNaN(f.ThroughputBps) || math.IsInf(f.ThroughputBps, 0) || f.ThroughputBps < 0 {
			return fmt.Errorf("flow %d throughput %v is not finite and non-negative", f.Flow, f.ThroughputBps)
		}
		sum += f.ThroughputBps
	}
	if len(r.Flows) == 0 {
		return fmt.Errorf("no flow results")
	}
	prop := time.Duration(r.Spec.PropDelay)
	if sum > 0 && r.Delay95 < prop {
		return fmt.Errorf("delay95 %v below the propagation delay %v", r.Delay95, prop)
	}
	if r.Spec.Tunnel {
		return nil // Metrics is unset: the link carried Sprout frames
	}
	u := r.Metrics.Utilization
	if r.Metrics.ThroughputBps == 0 && u == 0 {
		// An outage covered the whole window of a short job: nothing
		// was delivered, which breaks no invariant.
		return nil
	}
	window := (time.Duration(r.Spec.Duration) - time.Duration(r.Spec.Skip)).Seconds()
	capacity := r.Metrics.ThroughputBps / u
	// A materialized trace ends at its last opportunity. When an outage
	// closes it the run outlasts it, the link loops it from there, and
	// Metrics counts the first cycle only: add the looped part back.
	if tr := r.Spec.DataTrace; tr != nil {
		if over := time.Duration(r.Spec.Duration) - tr.Duration(); over > 0 {
			capacity += float64(tr.CapacityBits(0, over)) / window
		}
	}
	// A packet that straddles the window's start counts whole, so a
	// saturated link may read up to one MTU per flow above its capacity.
	limit := capacity + float64(len(r.Flows)+1)*trace.MTU*8/window
	if !(u > 0 && r.Metrics.ThroughputBps <= limit) {
		return fmt.Errorf("utilization %v outside (0, 1]: %.0f bps over a capacity of %.0f bps", u, r.Metrics.ThroughputBps, capacity)
	}
	// Churned cell flows are rated over their own lifetimes, so only a
	// fixed roster's rates add up to the link's.
	churn := r.Spec.Cell != nil && r.Spec.Cell.Churn != nil
	if !churn && sum > limit {
		return fmt.Errorf("flows deliver %.0f bps over a capacity of %.0f bps", sum, capacity)
	}
	return nil
}

// failure names one job that broke an invariant or returned an error.
type failure struct {
	Label  string `json:"label"`
	Reason string `json:"reason"`
}

func checkResults(results []scenario.Result) []failure {
	var out []failure
	for _, r := range results {
		if err := checkResult(r); err != nil {
			out = append(out, failure{Label: r.Spec.Label(), Reason: err.Error()})
		}
	}
	return out
}

// digest is the SHA-256 of the merged JSONL record stream, the same bytes
// the CI smoke diffs across shard counts.
func digest(results []scenario.Result) (string, error) {
	h := sha256.New()
	if err := scenario.WriteMergedRecords(h, results); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// simMetrics reduces one pass's results to the paper's two axes in
// simulated time: the geometric mean over jobs of aggregate delivered
// throughput and of the 95th-percentile delay.
func simMetrics(results []scenario.Result) (tputKbps, delay95Ms float64, skipped int) {
	tputs := make([]float64, len(results))
	delays := make([]float64, len(results))
	for i, r := range results {
		for _, f := range r.Flows {
			tputs[i] += f.ThroughputBps / 1000
		}
		delays[i] = float64(r.Delay95) / float64(time.Millisecond)
	}
	tputKbps, skipped = geoMean(tputs)
	delay95Ms, _ = geoMean(delays)
	return tputKbps, delay95Ms, skipped
}
