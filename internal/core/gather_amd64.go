package core

// gatherSIMD reports whether evolveWindow's interior and the forecast's
// mixture passes run the AVX2 kernels. It is decided once, by the CPU and
// the OS alone; only tests flip it, to hold the kernels against the
// portable loops.
var gatherSIMD = osAVX2()

// gather16 is the AVX2 kernel (gather_amd64.s). It trusts its lengths —
// len(dst) == 16, len(kpad) == len(src)+15 — so gatherGroup, which makes
// them so by slicing, is its only caller.
//
//go:noescape
func gather16(dst, src, kpad []float64)

// mixture8 is the forecast's AVX2 kernel (gather_amd64.s). It trusts that
// len(w) is a positive multiple of four and that every row holds len(w)
// entries, so mixturePass, which slices each row to len(w), is its only
// caller.
//
//go:noescape
func mixture8(sums *[probeLanes]float64, w []float64, rows *[probeLanes]*float64)

// osAVX2 reports whether the CPU has AVX2 and the OS saves the YMM state.
func osAVX2() bool
