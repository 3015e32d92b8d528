package stats

import "sort"

// IntervalSet tracks a set of disjoint half-open byte ranges [start, end).
// The Sprout receiver uses one to account for bytes "received or written off
// as lost" (paper §3.4): received packets insert their byte ranges, and the
// throwaway number advances a floor below which everything counts as
// received-or-lost regardless of actual receipt.
type IntervalSet struct {
	// ivs is sorted by start and contains pairwise-disjoint,
	// non-adjacent intervals.
	ivs   []interval
	floor int64 // everything below floor is covered by definition
}

type interval struct{ start, end int64 }

// Add inserts the range [start, end) into the set, merging as needed.
func (s *IntervalSet) Add(start, end int64) {
	if end <= start {
		return
	}
	if start < s.floor {
		start = s.floor
	}
	if end <= start {
		return
	}
	// Find insertion window: all intervals overlapping or adjacent to
	// [start,end) get merged.
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].end >= start })
	j := i
	for j < len(s.ivs) && s.ivs[j].start <= end {
		if s.ivs[j].start < start {
			start = s.ivs[j].start
		}
		if s.ivs[j].end > end {
			end = s.ivs[j].end
		}
		j++
	}
	merged := interval{start, end}
	s.ivs = append(s.ivs[:i], append([]interval{merged}, s.ivs[j:]...)...)
}

// AdvanceFloor raises the received-or-lost floor to at least f: every byte
// below f is treated as covered. Intervals below the floor are pruned.
func (s *IntervalSet) AdvanceFloor(f int64) {
	if f <= s.floor {
		return
	}
	s.floor = f
	out := s.ivs[:0]
	for _, iv := range s.ivs {
		if iv.end <= f {
			continue
		}
		if iv.start < f {
			iv.start = f
		}
		out = append(out, iv)
	}
	s.ivs = out
}

// Reset empties the set and returns the floor to zero, keeping the
// interval storage for reuse.
func (s *IntervalSet) Reset() {
	s.ivs = s.ivs[:0]
	s.floor = 0
}

// Total returns floor + total length of intervals above the floor: the
// number of bytes received or written off as lost.
func (s *IntervalSet) Total() int64 {
	t := s.floor
	for _, iv := range s.ivs {
		t += iv.end - iv.start
	}
	return t
}

// Contiguous returns the end of the contiguous covered prefix: the largest c
// such that every byte in [0, c) is covered.
func (s *IntervalSet) Contiguous() int64 {
	c := s.floor
	for _, iv := range s.ivs {
		if iv.start > c {
			break
		}
		if iv.end > c {
			c = iv.end
		}
	}
	return c
}
