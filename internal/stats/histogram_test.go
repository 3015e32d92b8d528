package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestLogHistogramBinning(t *testing.T) {
	h := NewLogHistogram(1, 1000, 3) // bins [1,10), [10,100), [100,1000)
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	h.Observe(0.5)  // underflow
	h.Observe(2000) // overflow
	if h.count != 5 {
		t.Errorf("count = %d, want 5", h.count)
	}
	for i := 0; i < 3; i++ {
		_, _, n := h.Bin(i)
		if n != 1 {
			t.Errorf("bin %d count = %d, want 1", i, n)
		}
	}
}

func TestLogHistogramBinEdges(t *testing.T) {
	h := NewLogHistogram(1, 100, 2)
	lo, hi, _ := h.Bin(0)
	if math.Abs(lo-1) > 1e-9 || math.Abs(hi-10) > 1e-9 {
		t.Errorf("bin 0 = [%v,%v), want [1,10)", lo, hi)
	}
	lo, hi, _ = h.Bin(1)
	if math.Abs(lo-10) > 1e-9 || math.Abs(hi-100) > 1e-9 {
		t.Errorf("bin 1 = [%v,%v), want [10,100)", lo, hi)
	}
}

func TestPowerLawTailFitRecoversExponent(t *testing.T) {
	// Sample from a Pareto distribution with exponent alpha: the density
	// is proportional to x^-(alpha+1).
	rng := rand.New(rand.NewSource(3))
	alpha := 2.27
	h := NewLogHistogram(1, 1e5, 80)
	for i := 0; i < 500000; i++ {
		u := rng.Float64()
		x := math.Pow(1-u, -1/alpha) // Pareto(xm=1, alpha)
		h.Observe(x)
	}
	slope, used := h.PowerLawTailFit(2)
	if used < 5 {
		t.Fatalf("only %d bins used in fit", used)
	}
	want := -(alpha + 1)
	if math.Abs(slope-want) > 0.25 {
		t.Errorf("fitted slope = %v, want ~%v", slope, want)
	}
}

func TestLinearFit(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 2x+1
	slope, intercept := linearFit(x, y)
	if math.Abs(slope-2) > 1e-9 || math.Abs(intercept-1) > 1e-9 {
		t.Errorf("fit = (%v,%v), want (2,1)", slope, intercept)
	}
}

func TestPowerLawTailFitInsufficientData(t *testing.T) {
	h := NewLogHistogram(1, 100, 10)
	h.Observe(2)
	slope, used := h.PowerLawTailFit(1)
	if used >= 2 || !math.IsNaN(slope) {
		t.Errorf("expected NaN fit with 1 bin, got %v (%d bins)", slope, used)
	}
}
