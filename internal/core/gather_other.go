//go:build !amd64

package core

// No SIMD kernels on this platform: evolveWindow's, mixturePass's and
// evolveAdjoint.apply's portable loops are the only paths.
var gatherSIMD = false

func gather16(dst, src, kpad []float64) { panic("core: gather16 has no kernel on this platform") }

func mixture8(sums *[probeLanes]float64, w []float64, rows *[probeLanes]*float64) {
	panic("core: mixture8 has no kernel on this platform")
}

func fold8(dst, c, kernel []float64) { panic("core: fold8 has no kernel on this platform") }

func fold1(col, c []float64) float64 { panic("core: fold1 has no kernel on this platform") }
