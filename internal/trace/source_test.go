package trace

import (
	"math"
	"math/rand"
	"testing"
)

// TestSourceMatchesMathRand: source, seeded like rand.NewSource, draws
// what math/rand's generator draws, word for word, across the seeds that
// exercise Seed's reduction mod 2³¹−1 (zero, negatives, the modulus and
// its neighbours, the int64 extremes) and after a re-seed of a used one.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 10_000
	check := func(t *testing.T, got *source, want rand.Source64) {
		t.Helper()
		for i := 0; i < draws; i++ {
			if i%2 == 0 {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("Int63 draw %d: %#x, math/rand %#x", i, g, w)
				}
			} else if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("Uint64 draw %d: %#x, math/rand %#x", i, g, w)
			}
		}
	}
	seeds := []int64{0, 1, -1, 89482311, 1<<31 - 2, 1<<31 - 1, 1 << 31, 1 << 62, math.MinInt64, math.MaxInt64}
	for _, seed := range seeds {
		var s source
		s.Seed(seed)
		check(t, &s, rand.NewSource(seed).(rand.Source64))
	}
	var used source
	used.Seed(5)
	for i := 0; i < 1234; i++ {
		used.Uint64()
	}
	used.Seed(-7)
	check(t, &used, rand.NewSource(-7).(rand.Source64))

	// Wrapped in a rand.Rand, as ModelProcess holds it: the derived draws
	// the model takes agree too.
	got, want := rand.New(new(source)), rand.New(rand.NewSource(0))
	got.Seed(42)
	want.Seed(42)
	for i := 0; i < draws; i++ {
		if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
			t.Fatalf("NormFloat64 draw %d: %v, math/rand %v", i, g, w)
		}
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("Float64 draw %d: %v, math/rand %v", i, g, w)
		}
	}
}

// BenchmarkSourceSeed times a re-seed of a kept source against math/rand's
// (every ModelProcess.Reset pays one).
func BenchmarkSourceSeed(b *testing.B) {
	b.Run("source", func(b *testing.B) {
		var s source
		for seed := int64(1); b.Loop(); seed++ {
			s.Seed(seed)
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		s := rand.NewSource(1)
		for seed := int64(1); b.Loop(); seed++ {
			s.Seed(seed)
		}
	})
}
