package tcp

// seqRing is a table keyed by segment number over a sliding window
// [base, base+len(buf)): entry seq lives at buf[seq&mask]. The owner keeps
// base (the sender's sndUna, the receiver's rcvNxt) and clears the entries
// base passes over, so every slot outside the live window holds the zero
// value and a wrapped index never reads a stale entry. It does a
// map[segnum]T's job on the per-segment path without hashing or growth
// garbage, and reset keeps the storage.
type seqRing[T any] struct {
	buf []T // len(buf) is zero or a power of two
}

// get returns the entry for seq, or the zero value when seq lies outside
// the window (below base: already cleared; beyond the ring: never set).
func (r *seqRing[T]) get(base, seq segnum) T {
	if uint64(seq-base) >= uint64(len(r.buf)) {
		var zero T
		return zero
	}
	return r.buf[seq&segnum(len(r.buf)-1)]
}

// at returns the slot for seq, growing the ring until the window covers
// it, or nil when seq is below base: such an entry could never be read or
// cleared, so there is nothing to record.
func (r *seqRing[T]) at(base, seq segnum) *T {
	if seq < base {
		return nil
	}
	if uint64(seq-base) >= uint64(len(r.buf)) {
		r.grow(base, seq)
	}
	return &r.buf[seq&segnum(len(r.buf)-1)]
}

// clearRange zeroes the entries of [base, end), all of which leave the window
// when the owner advances base to end.
func (r *seqRing[T]) clearRange(base, end segnum) {
	if uint64(end-base) >= uint64(len(r.buf)) {
		clear(r.buf)
		return
	}
	var zero T
	for seq := base; seq < end; seq++ {
		r.buf[seq&segnum(len(r.buf)-1)] = zero
	}
}

// reset empties the table, keeping its storage.
func (r *seqRing[T]) reset() { clear(r.buf) }

// grow doubles the ring until [base, seq] fits, re-seating live entries.
func (r *seqRing[T]) grow(base, seq segnum) {
	n := max(len(r.buf), 64)
	for uint64(seq-base) >= uint64(n) {
		n *= 2
	}
	buf := make([]T, n)
	for i := range r.buf {
		s := base + segnum(i)
		buf[s&segnum(n-1)] = r.buf[s&segnum(len(r.buf)-1)]
	}
	r.buf = buf
}
