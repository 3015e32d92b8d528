//go:build !amd64

package core

// No SIMD gather on this platform: evolveWindow's portable loop is the only
// interior path.
var gatherSIMD = false

func gather16(dst, src, kpad []float64) { panic("core: gather16 has no kernel on this platform") }
