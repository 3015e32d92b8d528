package core

// gatherSIMD reports whether evolveWindow's interior runs the AVX2 kernel.
// It is decided once, by the CPU and the OS alone; only tests flip it, to
// hold the kernel against the portable loop.
var gatherSIMD = osAVX2()

// gather16 is the AVX2 kernel (gather_amd64.s). It trusts its lengths —
// len(dst) == 16, len(kpad) == len(src)+15 — so gatherGroup, which makes
// them so by slicing, is its only caller.
//
//go:noescape
func gather16(dst, src, kpad []float64)

// osAVX2 reports whether the CPU has AVX2 and the OS saves the YMM state.
func osAVX2() bool
