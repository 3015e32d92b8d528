package stats

// Segments is an append-only sequence of Segments stored in chunks, so
// that it grows without copying what it holds: the first chunk starts at
// firstChunk segments and doubles, by copying, up to chunkLen; every later
// chunk is a fresh chunkLen segments (64 KiB). A stream of n segments so
// allocates about 16·n bytes, where a slice grown by append allocates
// several times that and leaves the garbage collector the copies. Reset
// keeps every chunk, so a reused sequence allocates nothing.
//
// Segment i lives at chunks[i/chunkLen][i%chunkLen]: only the first chunk
// is ever shorter than chunkLen, and only while it is the only one. The
// zero value is empty and ready. Not safe for concurrent use.
type Segments struct {
	chunks [][]Segment // every chunk, each at its full capacity
	full   int         // chunks[:full] are filled
	tail   []Segment   // chunks[full] as far as it is filled: Append writes here
}

const (
	firstChunk = 64
	chunkShift = 12
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// Append adds s at the end.
func (segs *Segments) Append(s Segment) {
	if len(segs.tail) == cap(segs.tail) {
		segs.grow()
	}
	segs.tail = append(segs.tail, s)
}

// grow makes room in the tail for one more segment: it opens the first
// chunk, doubles it while it is shorter than chunkLen, or moves on to the
// next chunk, a retained one if Reset left one.
func (segs *Segments) grow() {
	switch {
	case len(segs.chunks) == 0:
		segs.chunks = append(segs.chunks, make([]Segment, firstChunk))
		segs.tail = segs.chunks[0][:0]
	case cap(segs.tail) < chunkLen:
		c := make([]Segment, 2*cap(segs.tail))
		segs.tail = c[:copy(c, segs.tail)]
		segs.chunks[0] = c
	default:
		segs.full++
		if segs.full == len(segs.chunks) {
			segs.chunks = append(segs.chunks, make([]Segment, chunkLen))
		}
		segs.tail = segs.chunks[segs.full][:0]
	}
}

// Len returns how many segments the sequence holds.
func (segs *Segments) Len() int { return segs.full<<chunkShift + len(segs.tail) }

// Reset empties the sequence, keeping every chunk for the segments that
// follow.
func (segs *Segments) Reset() {
	segs.full = 0
	if len(segs.chunks) > 0 {
		segs.tail = segs.chunks[0][:0]
	}
}

// chunk returns the segments of chunk k, for k up to full: a walk over
// every segment takes chunk(0) to chunk(full) in turn.
func (segs *Segments) chunk(k int) []Segment {
	if k < segs.full {
		return segs.chunks[k]
	}
	return segs.tail
}

// at returns segment i.
func (segs *Segments) at(i int) Segment {
	return segs.chunks[i>>chunkShift][i&chunkMask]
}

// run returns the segments from index i up to end or to the end of i's
// chunk, whichever comes first: a walk over [i, end) takes one run, then
// the next from i + its length, until it reaches end.
func (segs *Segments) run(i, end int) []Segment {
	c := segs.chunk(i >> chunkShift)[i&chunkMask:]
	return c[:min(len(c), end-i)]
}
