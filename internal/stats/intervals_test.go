package stats

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestIntervalSetBasic(t *testing.T) {
	var s IntervalSet
	s.Add(0, 100)
	if got := s.Total(); got != 100 {
		t.Errorf("Total = %d, want 100", got)
	}
	if got := s.Contiguous(); got != 100 {
		t.Errorf("Contiguous = %d, want 100", got)
	}
}

func TestIntervalSetGap(t *testing.T) {
	var s IntervalSet
	s.Add(0, 100)
	s.Add(200, 300)
	if got := s.Total(); got != 200 {
		t.Errorf("Total = %d, want 200", got)
	}
	if got := s.Contiguous(); got != 100 {
		t.Errorf("Contiguous = %d, want 100", got)
	}
	s.Add(100, 200) // fill the gap
	if got := s.Contiguous(); got != 300 {
		t.Errorf("Contiguous = %d, want 300", got)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1 after merge", s.Len())
	}
}

func TestIntervalSetOverlapMerge(t *testing.T) {
	var s IntervalSet
	s.Add(10, 20)
	s.Add(15, 30)
	s.Add(5, 12)
	if got := s.Total(); got != 25 {
		t.Errorf("Total = %d, want 25", got)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestIntervalSetFloor(t *testing.T) {
	var s IntervalSet
	s.Add(100, 200)
	s.AdvanceFloor(150)
	// Floor covers [0,150); interval contributes [150,200).
	if got := s.Total(); got != 200 {
		t.Errorf("Total = %d, want 200", got)
	}
	if got := s.Contiguous(); got != 200 {
		t.Errorf("Contiguous = %d, want 200", got)
	}
	// Floor never goes backward.
	s.AdvanceFloor(50)
	if got := s.Floor(); got != 150 {
		t.Errorf("Floor = %d, want 150", got)
	}
}

func TestIntervalSetFloorWritesOffGap(t *testing.T) {
	// Receiver got [1000,2000) but nothing before; throwaway says
	// everything below 1000 is received-or-lost.
	var s IntervalSet
	s.Add(1000, 2000)
	if got := s.Total(); got != 1000 {
		t.Errorf("Total = %d, want 1000", got)
	}
	s.AdvanceFloor(1000)
	if got := s.Total(); got != 2000 {
		t.Errorf("Total = %d, want 2000", got)
	}
}

// Covered reports whether byte b is in the set (test-only).
func (s *IntervalSet) Covered(b int64) bool {
	if b < s.floor {
		return true
	}
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].end > b })
	return i < len(s.ivs) && s.ivs[i].start <= b
}

func TestIntervalSetCovered(t *testing.T) {
	var s IntervalSet
	s.Add(10, 20)
	s.AdvanceFloor(5)
	cases := []struct {
		b    int64
		want bool
	}{{0, true}, {4, true}, {5, false}, {9, false}, {10, true}, {19, true}, {20, false}}
	for _, c := range cases {
		if got := s.Covered(c.b); got != c.want {
			t.Errorf("Covered(%d) = %v, want %v", c.b, got, c.want)
		}
	}
}

func TestIntervalSetEmptyAdd(t *testing.T) {
	var s IntervalSet
	s.Add(10, 10)
	s.Add(20, 5)
	if got := s.Total(); got != 0 {
		t.Errorf("Total = %d, want 0", got)
	}
}

func TestIntervalSetAddBelowFloor(t *testing.T) {
	var s IntervalSet
	s.AdvanceFloor(100)
	s.Add(0, 50)
	if got := s.Total(); got != 100 {
		t.Errorf("Total = %d, want 100", got)
	}
	s.Add(50, 150)
	if got := s.Total(); got != 150 {
		t.Errorf("Total = %d, want 150", got)
	}
}

// TestIntervalSetQuick compares against a brute-force bitmap model.
func TestIntervalSetQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(42))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var s IntervalSet
		const size = 200
		var model [size]bool
		floor := 0
		for op := 0; op < 50; op++ {
			if r.Intn(4) == 0 {
				f := r.Intn(size)
				s.AdvanceFloor(int64(f))
				if f > floor {
					floor = f
				}
				for i := 0; i < floor; i++ {
					model[i] = true
				}
			} else {
				a := r.Intn(size)
				b := a + r.Intn(size-a)
				s.Add(int64(a), int64(b))
				for i := a; i < b; i++ {
					model[i] = true
				}
			}
			// Compare totals and contiguous prefix.
			var total int64
			for _, v := range model {
				if v {
					total++
				}
			}
			if s.Total() != total {
				return false
			}
			var contig int64
			for contig < size && model[contig] {
				contig++
			}
			if s.Contiguous() != contig {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
