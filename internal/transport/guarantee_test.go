package transport

import (
	"testing"
	"time"
)

// TestDelayGuaranteeSteadyLink verifies Sprout's headline contract on a
// steady link: each transmitted packet should clear the bottleneck queue
// within 100 ms with ~95% probability (§3.5). Measured per-packet queueing
// delay (total minus the 20 ms propagation) must satisfy the bound for at
// least 90% of packets (the 95% target applies under the model's own
// dynamics; a margin absorbs model mismatch).
func TestDelayGuaranteeSteadyLink(t *testing.T) {
	dur := 90 * time.Second
	sess := newSession(steadyTrace(300, dur+5*time.Second, 21), steadyTrace(100, dur+5*time.Second, 22), nil)
	sess.loop.Run(dur)

	within := 0
	total := 0
	var worst time.Duration
	for _, d := range *sess.log {
		if d.DeliveredAt < 15*time.Second {
			continue
		}
		queueing := d.DeliveredAt - d.SentAt - 20*time.Millisecond
		total++
		if queueing <= 100*time.Millisecond {
			within++
		}
		if queueing > worst {
			worst = queueing
		}
	}
	if total < 1000 {
		t.Fatalf("only %d packets measured", total)
	}
	frac := float64(within) / float64(total)
	t.Logf("queueing delay <= 100ms for %.2f%% of %d packets (worst %v)", frac*100, total, worst)
	if frac < 0.90 {
		t.Errorf("delay guarantee held for only %.1f%% of packets, want >= 90%%", frac*100)
	}
}

// TestDelayGuaranteeVariableLink repeats the check on the full cellular
// model, where the paper accepts transient violations ("it also makes
// mistakes ... but then repairs them"): the bound must still hold for the
// large majority of packets.
func TestDelayGuaranteeVariableLink(t *testing.T) {
	dur := 120 * time.Second
	sess := newSession(lteTrace(dur+5*time.Second, 23), steadyTrace(150, dur+5*time.Second, 24), nil)
	sess.loop.Run(dur)

	within := 0
	total := 0
	for _, d := range *sess.log {
		if d.DeliveredAt < 20*time.Second {
			continue
		}
		total++
		if d.DeliveredAt-d.SentAt-20*time.Millisecond <= 100*time.Millisecond {
			within++
		}
	}
	if total < 1000 {
		t.Fatalf("only %d packets measured", total)
	}
	frac := float64(within) / float64(total)
	t.Logf("variable link: within 100ms for %.2f%% of %d packets", frac*100, total)
	if frac < 0.80 {
		t.Errorf("bound held for only %.1f%%, want >= 80%% on the variable link", frac*100)
	}
}
