package scenario

import (
	"testing"
	"time"
)

// TestRegistryComplete pins the registry enumeration to the paper's scheme
// list and order (the figures depend on it).
func TestRegistryComplete(t *testing.T) {
	wantPaper := []string{
		"sprout", "sprout-ewma",
		"skype", "hangout", "facetime",
		"cubic", "cubic-codel",
		"vegas", "compound", "ledbat",
	}
	got := PaperSchemes()
	if len(got) != len(wantPaper) {
		t.Fatalf("PaperSchemes() = %v, want %v", got, wantPaper)
	}
	for i := range wantPaper {
		if got[i] != wantPaper[i] {
			t.Errorf("PaperSchemes()[%d] = %q, want %q", i, got[i], wantPaper[i])
		}
	}
	if _, ok := Lookup("reno"); !ok {
		t.Error(`extra scheme "reno" not registered`)
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup found an unregistered scheme")
	}
}

// TestEverySchemeRuns is the registration/constructor drift catcher: every
// registered scheme — paper and extra — runs through one short Spec and
// must finish without error and with non-zero delivered throughput.
func TestEverySchemeRuns(t *testing.T) {
	for _, name := range AllSchemes() {
		name := name
		t.Run(name, func(t *testing.T) {
			res, err := Run(Spec{
				Scheme:   name,
				Link:     "Verizon LTE",
				Duration: Duration(30 * time.Second),
				Skip:     Duration(8 * time.Second),
			}, nil)
			if err != nil {
				t.Fatalf("Run(%s): %v", name, err)
			}
			if res.Metrics.ThroughputBps <= 0 {
				t.Errorf("%s: throughput = %v, want > 0", name, res.Metrics.ThroughputBps)
			}
			if len(res.Flows) != 1 || res.Flows[0].Scheme != name {
				t.Errorf("%s: flow results = %+v, want one flow of the scheme", name, res.Flows)
			}
			scheme, _ := Lookup(name)
			if res.Flows[0].Flow != scheme.BaseFlow {
				t.Errorf("%s: lone flow id = %d, want the scheme's base %d",
					name, res.Flows[0].Flow, scheme.BaseFlow)
			}
		})
	}
}

// TestRegisterPanics pins the registration error handling.
func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, s Scheme) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(s)
	}
	nop := func(AttachConfig) (Endpoint, error) { return Endpoint{}, nil }
	mustPanic("empty name", Scheme{New: nop})
	mustPanic("nil constructor", Scheme{Name: "x-nil-ctor"})
	mustPanic("duplicate", Scheme{Name: "sprout", New: nop})
}
