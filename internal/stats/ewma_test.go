package stats

import "testing"

// EWMA is an exponentially weighted moving average with a fixed gain. No
// product code uses it since the σ-adaptive forecaster went; it lives here,
// beside its tests. The zero value is unusable; construct with NewEWMA.
type EWMA struct {
	gain   float64
	value  float64
	primed bool
}

// NewEWMA returns an EWMA with the given gain in (0, 1]. The first
// observation seeds the average directly.
func NewEWMA(gain float64) *EWMA {
	if gain <= 0 || gain > 1 {
		panic("stats: EWMA gain must be in (0, 1]")
	}
	return &EWMA{gain: gain}
}

// Observe folds a new sample into the average and returns the new value.
func (e *EWMA) Observe(x float64) float64 {
	if !e.primed {
		e.value = x
		e.primed = true
		return x
	}
	e.value += e.gain * (x - e.value)
	return e.value
}

// Value returns the current average, or 0 if no sample has been observed.
func (e *EWMA) Value() float64 { return e.value }

// Primed reports whether at least one sample has been observed.
func (e *EWMA) Primed() bool { return e.primed }

// Reset clears the average back to its unprimed state.
func (e *EWMA) Reset() { e.value, e.primed = 0, false }

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Primed() {
		t.Error("new EWMA should not be primed")
	}
	e.Observe(10)
	if e.Value() != 10 {
		t.Errorf("first observation should seed: %v", e.Value())
	}
	e.Observe(20)
	if e.Value() != 15 {
		t.Errorf("Value = %v, want 15", e.Value())
	}
	e.Reset()
	if e.Primed() || e.Value() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestEWMAConvergence(t *testing.T) {
	e := NewEWMA(0.125)
	for i := 0; i < 200; i++ {
		e.Observe(42)
	}
	if got := e.Value(); got != 42 {
		t.Errorf("converged value = %v, want 42", got)
	}
}

func TestEWMABadGainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for gain 0")
		}
	}()
	NewEWMA(0)
}
