package core

import "testing"

// portableGather switches evolveWindow's interior, mixturePass and
// evolveAdjoint.apply to the portable loops — what a machine without AVX2
// runs — and returns the call that switches back. Tests that use it must not run in parallel with
// others.
func portableGather() (restore func()) {
	saved := gatherSIMD
	gatherSIMD = false
	return func() { gatherSIMD = saved }
}

// PortableGather is portableGather until the test and its subtests end.
func PortableGather(t testing.TB) { t.Cleanup(portableGather()) }
