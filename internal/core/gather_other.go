//go:build !amd64

package core

// No SIMD kernels on this platform: evolveWindow's and mixturePass's
// portable loops are the only paths.
var gatherSIMD = false

func gather16(dst, src, kpad []float64) { panic("core: gather16 has no kernel on this platform") }

func mixture8(sums *[probeLanes]float64, w []float64, rows *[probeLanes]*float64) {
	panic("core: mixture8 has no kernel on this platform")
}
