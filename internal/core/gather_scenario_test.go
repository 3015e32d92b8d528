package core_test

import (
	"bytes"
	"strings"
	"testing"

	"sprout/internal/core"
	"sprout/internal/scenario"
)

// TestScenarioBytesWithoutSIMD: a short Sprout run — every tick an
// evolution and a forecast, each a SIMD kernel's work where the machine
// has AVX2 — encodes to the same record bytes with both kernels and with
// the portable loops (one switch turns both off).
func TestScenarioBytesWithoutSIMD(t *testing.T) {
	specs, err := scenario.Parse(strings.NewReader(`{
	  "defaults": {"link": "Verizon LTE", "duration": "3s", "skip": "500ms", "seed": 7},
	  "scenarios": [{"name": "sprout down", "scheme": "sprout"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	encode := func() []byte {
		r, err := scenario.Run(specs[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := scenario.EncodeResult(0, r)
		if err != nil {
			t.Fatal(err)
		}
		return rec.Data
	}
	shipped := encode()
	core.PortableGather(t)
	if portable := encode(); !bytes.Equal(shipped, portable) {
		t.Errorf("SIMD kernel on: %s\nportable loop:  %s", shipped, portable)
	}
}
