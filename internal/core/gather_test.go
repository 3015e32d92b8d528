package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"
)

// eachGather runs body once as the package ships on this machine and once
// with the SIMD kernel off, and requires the two digests — whatever floats
// body chose to hash — to be equal: the kernel may not move a bit of
// anything downstream of it. On a machine without AVX2 both runs are the
// portable loop.
func eachGather(t *testing.T, body func(t *testing.T, digest hash.Hash)) {
	var sums [2]string
	for i, name := range []string{"shipped", "portable"} {
		t.Run(name, func(t *testing.T) {
			if name == "portable" {
				PortableGather(t)
			}
			h := sha256.New()
			body(t, h)
			sums[i] = hex.EncodeToString(h.Sum(nil))
		})
	}
	if sums[0] != sums[1] {
		t.Errorf("results differ with the SIMD kernel on (%s) and off (%s)", sums[0], sums[1])
	}
}

// hashFloats adds the exact bits of xs to h.
func hashFloats(h hash.Hash, xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

// gatherModels is TestEvolveGatherMatchesScatter's model set plus grids
// around the width of one SIMD group: interiors (NumBins−2 bins on a full
// window) narrower than a group, exactly one, one plus an overlapped last
// group, exactly two; and kernels clamped at radius n−1, where every group's
// source window is the whole support.
func gatherModels() []*Model {
	return []*Model{
		NewModel(Params{}),
		NewModel(Params{NumBins: 64, MaxRate: 250}),
		NewModel(Params{NumBins: 33, MaxRate: 100, Sigma: 700}), // radius > n/2
		NewModel(Params{NumBins: 128, Sigma: 23}),
		NewModel(Params{NumBins: 8}),
		NewModel(Params{NumBins: 16}),
		NewModel(Params{NumBins: 17}),
		NewModel(Params{NumBins: 18}),
		NewModel(Params{NumBins: 31}),
		NewModel(Params{NumBins: 34}),
		NewModel(Params{NumBins: 17, Sigma: 1e5}), // radius clamped at n-1
		NewModel(Params{NumBins: 31, Sigma: 1e5}),
		NewModel(Params{NumBins: 40, Sigma: 1e5}),
	}
}

// evolveSource fills the window [lo, hi) of a fresh n-bin posterior with
// random mass, each bin kept with probability (keep+1)/256 — interior
// zeros exercise the scatter's skip guard — and normalized.
func evolveSource(n, lo, hi int, seed int64, keep uint8) []float64 {
	rng := rand.New(rand.NewSource(seed))
	src := make([]float64, n)
	var sum float64
	for j := lo; j < hi; j++ {
		if rng.Intn(256) <= int(keep) {
			src[j] = rng.Float64()
			sum += src[j]
		}
	}
	if sum > 0 {
		for j := lo; j < hi; j++ {
			src[j] /= sum
		}
	}
	return src
}

// checkGather runs one evolution three ways — the SIMD kernel (where this
// machine has it), the portable gather, the scatter reference — and
// requires every bin and the returned window to be equal, ==, with guard
// words either side of each destination untouched.
func checkGather(t *testing.T, m *Model, src []float64, lo, hi int) {
	t.Helper()
	n := m.NumBins()
	const guard = 24
	sentinel := math.Float64frombits(0x7ff8_dead_beef_0001)
	run := func(simd bool) ([]float64, int, int) {
		if !simd {
			defer portableGather()()
		}
		buf := make([]float64, n+2*guard)
		for i := range buf {
			buf[i] = sentinel
		}
		dst := buf[guard : guard+n : guard+n]
		wLo, wHi := evolveWindow(dst, src, m.kernel, m.kernelPad, m.radius, m.outageStay, lo, hi)
		for i, v := range buf {
			if (i < guard || i >= guard+n) && math.Float64bits(v) != math.Float64bits(sentinel) {
				t.Fatalf("simd=%v wrote outside dst at offset %d (n=%d radius=%d lo=%d hi=%d)", simd, i-guard, n, m.radius, lo, hi)
			}
		}
		return dst, wLo, wHi
	}
	got, gLo, gHi := run(true)
	port, pLo, pHi := run(false)
	want := make([]float64, n)
	wLo, wHi := scatterEvolveReference(want, src, m.kernel, m.radius, m.outageStay, lo, hi)
	if gLo != wLo || gHi != wHi || pLo != wLo || pHi != wHi {
		t.Fatalf("window: simd [%d,%d) portable [%d,%d) scatter [%d,%d) (n=%d radius=%d lo=%d hi=%d)",
			gLo, gHi, pLo, pHi, wLo, wHi, n, m.radius, lo, hi)
	}
	for i := range want {
		if got[i] != want[i] || port[i] != want[i] {
			t.Fatalf("bin %d: simd %x portable %x scatter %x (n=%d radius=%d lo=%d hi=%d)",
				i, got[i], port[i], want[i], n, m.radius, lo, hi)
		}
	}
}

// TestGatherSIMDMatchesPortable is the kernel's differential: the SIMD
// path on and off, bit for bit, over every model of gatherModels and
// windows that are random, touch both edges, are single bins and are the
// whole grid, dense and sparse.
func TestGatherSIMDMatchesPortable(t *testing.T) {
	if !gatherSIMD {
		t.Log("no AVX2 on this machine: both sides are the portable loop")
	}
	rng := rand.New(rand.NewSource(16))
	for _, m := range gatherModels() {
		n := m.NumBins()
		windows := [][2]int{{0, n}, {0, 1}, {n - 1, n}, {0, n / 2}, {n / 2, n}, {1, n - 1}}
		for i := 0; i < 60; i++ {
			lo := rng.Intn(n)
			windows = append(windows, [2]int{lo, lo + 1 + rng.Intn(n-lo)})
		}
		for _, w := range windows {
			for _, keep := range []uint8{255, 170, 20} {
				checkGather(t, m, evolveSource(n, w[0], w[1], rng.Int63(), keep), w[0], w[1])
			}
		}
	}
}

// FuzzEvolveWindow holds the same three-way equality on whatever model,
// window and source the fuzzer reaches.
func FuzzEvolveWindow(f *testing.F) {
	models := gatherModels()
	for mi, m := range models {
		n := uint16(m.NumBins())
		f.Add(uint8(mi), uint16(0), n-1, int64(mi), uint8(255))
		f.Add(uint8(mi), uint16(0), uint16(0), int64(mi), uint8(255))
		f.Add(uint8(mi), n-1, uint16(0), int64(mi), uint8(255))
		f.Add(uint8(mi), n/3, n/2, int64(-mi), uint8(60))
	}
	f.Fuzz(func(t *testing.T, model uint8, lo, width uint16, seed int64, keep uint8) {
		m := models[int(model)%len(models)]
		n := m.NumBins()
		l := int(lo) % n
		h := l + 1 + int(width)%(n-l)
		checkGather(t, m, evolveSource(n, l, h, seed, keep), l, h)
	})
}
