package harness

import (
	"testing"
	"time"
)

func TestMultiSproutSharing(t *testing.T) {
	results, _ := runSpecs(t, multiSpecs(Options{Duration: 60 * time.Second, Skip: 15 * time.Second}.withDefaults()), 0)
	solo, shared := results[0], results[1]
	soloBps := solo.Flows[0].ThroughputBps
	aggBps := shared.Flows[0].ThroughputBps + shared.Flows[1].ThroughputBps
	t.Logf("solo: %.0f kbps / %v", soloBps/1000, solo.Delay95)
	t.Logf("2 flows: %+v (agg %.0f kbps, jain %.3f) / %v", shared.Flows, aggBps/1000, shared.JainIndex, shared.Delay95)
	// Extension finding to lock in: flows share fairly...
	if shared.JainIndex < 0.85 {
		t.Errorf("Jain index = %.3f, want >= 0.85", shared.JainIndex)
	}
	// ...aggregate is in the solo neighbourhood or better...
	if aggBps < soloBps*0.8 {
		t.Errorf("aggregate %.0f collapsed vs solo %.0f", aggBps, soloBps)
	}
	// ...and delay inflates (each flow's cautious window tolerates its own
	// 100 ms of queue, and the queues add) but stays interactive-ish.
	if shared.Delay95 > 2*time.Second {
		t.Errorf("shared delay = %v, way beyond expectation", shared.Delay95)
	}
}
