package stats

import (
	"math"
	"testing"
)

// poissonPMF is P(K = k) for K ~ Poisson(mean) from the closed form
// exp(k·log mean − mean − lgamma(k+1)): the oracle PoissonCDF's running
// product is summed against, itself held to known values below.
func poissonPMF(mean, k float64) float64 {
	if k < 0 {
		return 0
	}
	if mean <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	lg, _ := math.Lgamma(k + 1)
	return math.Exp(k*math.Log(mean) - mean - lg)
}

func TestPoissonPMFSumsToOne(t *testing.T) {
	for _, mean := range []float64{0.1, 1, 5, 20, 100} {
		sum := 0.0
		for k := 0; k < 1000; k++ {
			sum += poissonPMF(mean, float64(k))
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("mean=%v: pmf sums to %v, want 1", mean, sum)
		}
	}
}

func TestPoissonPMFKnownValues(t *testing.T) {
	// P(K=0) = e^-mean.
	for _, mean := range []float64{0.5, 1, 3} {
		got := poissonPMF(mean, 0)
		want := math.Exp(-mean)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("P(K=0|%v) = %v, want %v", mean, got, want)
		}
	}
	// P(K=2 | mean=2) = 2 e^-2.
	got := poissonPMF(2, 2)
	want := 2 * math.Exp(-2)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("P(K=2|2) = %v, want %v", got, want)
	}
}

func TestPoissonPMFZeroMean(t *testing.T) {
	if got := poissonPMF(0, 0); got != 1 {
		t.Errorf("P(K=0|0) = %v, want 1", got)
	}
	if got := poissonPMF(0, 3); got != 0 {
		t.Errorf("P(K=3|0) = %v, want 0", got)
	}
}

func TestPoissonPMFNegativeK(t *testing.T) {
	if got := poissonPMF(2, -1); got != 0 {
		t.Errorf("P(K=-1|2) = %v, want 0", got)
	}
}

func TestPoissonCDFMatchesSum(t *testing.T) {
	for _, mean := range []float64{0.3, 2, 17} {
		sum := 0.0
		for k := 0; k <= 40; k++ {
			sum += poissonPMF(mean, float64(k))
			got := PoissonCDF(mean, k)
			if math.Abs(got-sum) > 1e-9 {
				t.Errorf("CDF(%v, %d) = %v, want %v", mean, k, got, sum)
			}
		}
	}
}

func TestPoissonCDFLargeMean(t *testing.T) {
	// For very large mean the implementation switches to a normal
	// approximation; the median should be close to the mean.
	mean := 800.0
	if got := PoissonCDF(mean, int(mean)); math.Abs(got-0.5) > 0.05 {
		t.Errorf("CDF(%v, %v) = %v, want ~0.5", mean, mean, got)
	}
	if got := PoissonCDF(mean, 0); got > 1e-6 {
		t.Errorf("CDF(%v, 0) = %v, want ~0", mean, got)
	}
}

func TestPoissonCDFTableMatchesCDF(t *testing.T) {
	for _, mean := range []float64{0, 0.5, 4, 50} {
		table := PoissonCDFTable(mean, 100)
		for k := 0; k <= 100; k += 7 {
			want := PoissonCDF(mean, k)
			if math.Abs(table[k]-want) > 1e-9 {
				t.Errorf("table[%d] for mean %v = %v, want %v", k, mean, table[k], want)
			}
		}
	}
}

func TestGaussianKernelSumsToOne(t *testing.T) {
	for _, std := range []float64{0, 0.5, 3, 30} {
		k := GaussianKernel(std, 1.0, 20)
		sum := 0.0
		for _, v := range k {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("std=%v: kernel sums to %v", std, sum)
		}
	}
}

func TestGaussianKernelSymmetric(t *testing.T) {
	k := GaussianKernel(2.5, 1.0, 10)
	for d := 0; d <= 10; d++ {
		if math.Abs(k[10-d]-k[10+d]) > 1e-12 {
			t.Errorf("kernel asymmetric at ±%d: %v vs %v", d, k[10-d], k[10+d])
		}
	}
}

func TestGaussianKernelZeroStd(t *testing.T) {
	k := GaussianKernel(0, 1.0, 5)
	for d, v := range k {
		want := 0.0
		if d == 5 {
			want = 1
		}
		if v != want {
			t.Errorf("kernel[%d] = %v, want %v", d, v, want)
		}
	}
}

func TestGaussianKernelMassConcentration(t *testing.T) {
	// ~68% of mass within one standard deviation.
	std := 4.0
	k := GaussianKernel(std, 1.0, 40)
	within := 0.0
	for d := -4; d <= 4; d++ {
		within += k[40+d]
	}
	if within < 0.62 || within > 0.76 {
		t.Errorf("mass within 1 std = %v, want ~0.68", within)
	}
}

func BenchmarkPoissonCDFTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		PoissonCDFTable(50, 400)
	}
}
