package memo

import "testing"

// TestBoundedCacheBuildsPastLimit: a full cache still answers every key,
// stores nothing more, and counts each unstored build; stored keys keep
// hitting.
func TestBoundedCacheBuildsPastLimit(t *testing.T) {
	c := New[int, int](2)
	builds := 0
	square := func(k int) func() int { return func() int { builds++; return k * k } }
	for _, k := range []int{1, 2, 3, 3, 1} {
		if got := c.Get(k, square(k)); got != k*k {
			t.Fatalf("Get(%d) = %d", k, got)
		}
	}
	if builds != 4 {
		t.Errorf("%d builds, want 4 (1, 2, and 3 twice)", builds)
	}
	if hits, misses, uncached := c.Counts(); hits != 1 || misses != 2 || uncached != 2 {
		t.Errorf("counts = %d hits, %d misses, %d uncached; want 1/2/2", hits, misses, uncached)
	}
	stored := map[int]int{}
	c.Range(func(k, v int) { stored[k] = v })
	if len(stored) != 2 || stored[1] != 1 || stored[2] != 4 {
		t.Errorf("Range = %v, want {1:1 2:4}", stored)
	}
}

// TestGetHitAllocatesNothing: a lookup whose key and build were made once
// allocates nothing once the key is stored.
func TestGetHitAllocatesNothing(t *testing.T) {
	c := New[string, any](0)
	key, build := "Verizon LTE/150000000000/1", func() any { return [2]int{1, 2} }
	c.Get(key, build)
	if avg := testing.AllocsPerRun(100, func() { c.Get(key, build) }); avg != 0 {
		t.Errorf("warm Get allocates %.1f times, want 0", avg)
	}
}
