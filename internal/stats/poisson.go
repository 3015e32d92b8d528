// Package stats provides the numerical substrate for Sprout's stochastic
// model: Poisson distribution functions, Gaussian transition kernels,
// time-weighted percentiles, exponentially weighted moving averages and a
// byte-interval set used for received-or-lost accounting.
//
// Everything here is pure computation on float64s with no dependencies
// beyond the standard library, so it is directly testable against closed
// forms.
package stats

import "math"

// PoissonCDF returns P(K <= k) for K ~ Poisson(mean) and integral k >= 0.
// It sums the pmf directly, which is exact to within float64 rounding for
// the means used by Sprout (<= a few hundred).
func PoissonCDF(mean float64, k int) float64 {
	if k < 0 {
		return 0
	}
	if mean <= 0 {
		return 1
	}
	// Sum in log space pivoting on the largest term for stability.
	sum := 0.0
	term := math.Exp(-mean) // P(K=0)
	if term == 0 {
		// mean is large enough that exp(-mean) underflows; fall back to
		// the complementary normal approximation with continuity
		// correction, accurate in the regime we use it (mean > 700).
		return normalCDF((float64(k) + 0.5 - mean) / math.Sqrt(mean))
	}
	for i := 0; ; i++ {
		sum += term
		if i == k {
			break
		}
		term *= mean / float64(i+1)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// PoissonCDFTable returns the CDF values P(K <= k) for k in [0, maxK].
// Index i holds P(K <= i). It is used to precompute Sprout's forecast
// quantile tables.
func PoissonCDFTable(mean float64, maxK int) []float64 {
	out := make([]float64, maxK+1)
	if mean <= 0 {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	term := math.Exp(-mean)
	if term == 0 {
		for i := range out {
			out[i] = normalCDF((float64(i) + 0.5 - mean) / math.Sqrt(mean))
		}
		return out
	}
	sum := 0.0
	for i := 0; i <= maxK; i++ {
		sum += term
		if sum > 1 {
			sum = 1
		}
		out[i] = sum
		term *= mean / float64(i+1)
	}
	return out
}

// normalCDF is the standard normal cumulative distribution function.
func normalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// GaussianKernel returns the probability mass a Gaussian with the given
// standard deviation assigns to each integer offset in [-radius, radius],
// where offsets are measured in units of binWidth. Mass beyond the radius is
// folded into the outermost entries so the kernel sums to 1.
//
// kernel[radius+d] is the probability of moving d bins.
func GaussianKernel(stddev, binWidth float64, radius int) []float64 {
	if radius < 0 {
		panic("stats: GaussianKernel radius must be >= 0")
	}
	kernel := make([]float64, 2*radius+1)
	if stddev <= 0 {
		kernel[radius] = 1
		return kernel
	}
	for d := -radius; d <= radius; d++ {
		lo := (float64(d) - 0.5) * binWidth
		hi := (float64(d) + 0.5) * binWidth
		kernel[radius+d] = normalCDF(hi/stddev) - normalCDF(lo/stddev)
	}
	// Fold tails into the extreme entries.
	loTail := normalCDF((float64(-radius) - 0.5) * binWidth / stddev)
	hiTail := 1 - normalCDF((float64(radius)+0.5)*binWidth/stddev)
	kernel[0] += loTail
	kernel[2*radius] += hiTail
	return kernel
}
