package trace

import "math/rand"

// source is math/rand's Go 1 generator (its unexported rngSource:
// Mitchell and Reeds' additive lagged Fibonacci generator, x[n] =
// x[n−607] + x[n−273] mod 2⁶⁴), re-implemented so that re-seeding costs
// only its arithmetic. Every Int63 and Uint64 after Seed(s) equals
// rand.NewSource(s)'s (TestSourceMatchesMathRand); ModelProcess wraps one
// in a rand.Rand, so the streams built on it are math/rand's too.
type source struct {
	tap, feed int
	vec       [sourceLen]int64
}

const (
	sourceLen = 607
	sourceTap = 273

	// The seeding chain is x ← 48271·x mod 2³¹−1 (Park and Miller's
	// minimal standard). A word takes three consecutive chain values, so
	// the chain of each word's first, second and third value steps by
	// 48271³ mod 2³¹−1.
	chainMod  = 1<<31 - 1
	chainMul  = 48271
	chainMul3 = chainMul * chainMul % chainMod * chainMul % chainMod
)

// seedTable is math/rand's rngCooked: the words Seed xors with the chain.
// It is not copied in: init recovers it from rand.NewSource(1)'s output.
var seedTable [sourceLen]int64

func init() {
	// Draw k (from 1) of a source seeded with 1 adds vec[607−k] into
	// vec[334−k], indices mod 607, and returns the sum y[k]. From draw
	// 274 on the added word is the sum draw k−273 stored, so those draws
	// give the seeded vec at indices 0…60 and 334…606; draws 1…273 add a
	// word still as seeded, which the first pass recovered.
	ref := rand.NewSource(1).(rand.Source64)
	var y [sourceLen + 1]int64
	for k := 1; k <= sourceLen; k++ {
		y[k] = int64(ref.Uint64())
	}
	var vec [sourceLen]int64
	for k := sourceTap + 1; k <= sourceLen; k++ {
		vec[(sourceLen-sourceTap-k+sourceLen)%sourceLen] = y[k] - y[k-sourceTap]
	}
	for k := 1; k <= sourceTap; k++ {
		vec[sourceLen-sourceTap-k] = y[k] - vec[sourceLen-k]
	}
	// seedTable is still zero here, so this Seed leaves the chain's words
	// alone in s.vec; what the seeded vec holds beyond them is the table.
	var s source
	s.Seed(1)
	for i := range seedTable {
		seedTable[i] = vec[i] ^ s.vec[i]
	}
}

// chainStep returns m·x mod 2³¹−1 for x, m < 2³¹. The product is below
// 2⁶², and 2³¹ ≡ 1 folds its high bits onto its low ones; one
// conditional subtraction finishes, since x·m is never a multiple of the
// prime for x ≠ 0.
func chainStep(x, m uint64) uint64 {
	p := x * m
	r := p&chainMod + p>>31
	if r >= chainMod {
		r -= chainMod
	}
	return r
}

// Seed implements rand.Source: math/rand's rngSource.Seed, computed on
// three independent chains at once.
func (s *source) Seed(seed int64) {
	s.tap, s.feed = 0, sourceLen-sourceTap
	seed %= chainMod
	if seed < 0 {
		seed += chainMod
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := 0; i < 20; i++ { // math/rand discards the chain's first 20 values
		x = chainStep(x, chainMul)
	}
	a := chainStep(x, chainMul)
	b := chainStep(a, chainMul)
	c := chainStep(b, chainMul)
	for i := range s.vec {
		s.vec[i] = int64(a<<40^b<<20^c) ^ seedTable[i]
		a, b, c = chainStep(a, chainMul3), chainStep(b, chainMul3), chainStep(c, chainMul3)
	}
}

// Uint64 implements rand.Source64.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += sourceLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += sourceLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}
