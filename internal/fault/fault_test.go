package fault

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestFaultStringParseRoundTrip pins the env-var codec: every fault kind
// survives String → Parse unchanged.
func TestFaultStringParseRoundTrip(t *testing.T) {
	faults := []Fault{
		{Kind: Crash, After: 2, Code: 1},
		{Kind: Stall, After: 1, For: 30 * time.Second, Code: 1},
		{Kind: Torn, After: 0, Bytes: 9, Code: 1},
		{Kind: Corrupt, After: 3, Code: 1},
		{Kind: Exit, After: 1, Code: 7},
		{Kind: Slow, For: 300 * time.Millisecond, Code: 1},
	}
	for _, want := range faults {
		got, err := Parse(want.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", want.String(), err)
		}
		if got != want {
			t.Errorf("round trip %q: got %+v, want %+v", want.String(), got, want)
		}
	}
	if f, err := Parse(""); err != nil || !f.IsZero() {
		t.Errorf("Parse(\"\") = %+v, %v; want zero fault", f, err)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, s := range []string{
		"meteor:after=1",           // unknown kind
		"crash:after",              // missing value
		"crash:volume=11",          // unknown parameter
		"crash:after=x",            // non-numeric
		"crash:after=-1",           // negative
		"stall:after=1",            // stall without duration
		"slow:",                    // slow without duration
		"exit:after=1,code=0",      // exit with zero status
		"torn:after=1,for=x",       // bad duration
		"slowstream:after=1,for=x", // bad duration
		"exit:after=1,code=256",    // a process would exit 0
		"exit:after=1,code=258",    // a process would exit 2 (usage)
		"exit:after=1,code=-1",     // negative status
		"crash:code=5",             // a parameter crash never reads
		"slow:after=3,for=1s",      // a parameter slow never reads
		"hostdown:after=1,bytes=9", // a parameter hostdown never reads
		"conndrop:after=1,for=1s",  // a parameter conndrop never reads
	} {
		if f, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) = %+v, want error", s, f)
		}
	}
}

// fakeInjector returns an injector whose exit/sleep are recorded instead
// of executed, so a single test process can observe every fault kind.
func fakeInjector(f Fault) (*Injector, *int, *[]time.Duration) {
	code := -1
	var slept []time.Duration
	in := New(f, func(d time.Duration) { slept = append(slept, d) }, func(c int) { code = c })
	return in, &code, &slept
}

func writeLines(t *testing.T, w *bytes.Buffer, in *Injector, lines ...string) {
	t.Helper()
	fw := in.Writer(w)
	for _, l := range lines {
		fw.Write([]byte(l + "\n"))
	}
}

func TestInjectorCrash(t *testing.T) {
	var buf bytes.Buffer
	in, code, _ := fakeInjector(Fault{Kind: Crash, After: 2})
	writeLines(t, &buf, in, `{"i":0}`, `{"i":2}`, `{"i":4}`)
	if *code != ExitCrash {
		t.Fatalf("exit code = %d, want %d", *code, ExitCrash)
	}
	// Two full records landed; the third triggered the crash (the fake
	// exit falls through, so later writes still happen — only the first
	// two lines are the contract here).
	if got := strings.Count(buf.String(), "\n"); got < 2 {
		t.Fatalf("wrote %d lines before crash, want 2", got)
	}
}

func TestInjectorTorn(t *testing.T) {
	var buf bytes.Buffer
	in, code, _ := fakeInjector(Fault{Kind: Torn, After: 1, Bytes: 4})
	writeLines(t, &buf, in, `{"i":0,"data":"x"}`, `{"i":2,"data":"y"}`)
	if *code != ExitTorn {
		t.Fatalf("exit code = %d, want %d", *code, ExitTorn)
	}
	want := `{"i":0,"data":"x"}` + "\n" + `{"i`
	if !strings.HasPrefix(buf.String(), want) {
		t.Fatalf("log = %q, want prefix %q (one record plus a 4-byte tear)", buf.String(), want)
	}
}

func TestInjectorTornClampsToPartialLine(t *testing.T) {
	var buf bytes.Buffer
	in, code, _ := fakeInjector(Fault{Kind: Torn, After: 0, Bytes: 1 << 20})
	writeLines(t, &buf, in, `{"i":0}`)
	if *code != ExitTorn {
		t.Fatalf("exit code = %d, want %d", *code, ExitTorn)
	}
	if got := buf.Len(); got != len(`{"i":0}`) { // line minus its newline
		t.Fatalf("tore %d bytes, want %d (never the full line)", got, len(`{"i":0}`))
	}
}

func TestInjectorCorrupt(t *testing.T) {
	var buf bytes.Buffer
	in, code, _ := fakeInjector(Fault{Kind: Corrupt, After: 1})
	writeLines(t, &buf, in, `{"i":0}`, `{"i":2}`)
	if *code != ExitCorrupt {
		t.Fatalf("exit code = %d, want %d", *code, ExitCorrupt)
	}
	if !strings.Contains(buf.String(), "corrupt!}\n") {
		t.Fatalf("log = %q, want a terminated garbage line", buf.String())
	}
}

func TestInjectorExitCompletesRecord(t *testing.T) {
	var buf bytes.Buffer
	in, code, _ := fakeInjector(Fault{Kind: Exit, After: 1, Code: 7})
	writeLines(t, &buf, in, `{"i":0}`, `{"i":2}`)
	if *code != 7 {
		t.Fatalf("exit code = %d, want 7", *code)
	}
	if !strings.HasPrefix(buf.String(), `{"i":0}`+"\n"+`{"i":2}`+"\n") {
		t.Fatalf("log = %q, want both records complete before exit", buf.String())
	}
}

func TestInjectorStallFiresOnce(t *testing.T) {
	var buf bytes.Buffer
	in, _, slept := fakeInjector(Fault{Kind: Stall, After: 1, For: time.Minute})
	writeLines(t, &buf, in, `{"i":0}`, `{"i":2}`, `{"i":4}`)
	if !reflect.DeepEqual(*slept, []time.Duration{time.Minute}) {
		t.Fatalf("slept %v, want exactly one 1m stall", *slept)
	}
	if got := strings.Count(buf.String(), "\n"); got != 3 {
		t.Fatalf("wrote %d records, want all 3 (stall resumes)", got)
	}
}

func TestInjectorSlowStart(t *testing.T) {
	in, _, slept := fakeInjector(Fault{Kind: Slow, For: 300 * time.Millisecond})
	in.Start()
	if !reflect.DeepEqual(*slept, []time.Duration{300 * time.Millisecond}) {
		t.Fatalf("slept %v, want the slow-start delay", *slept)
	}
}

// TestNilInjectorSafe: the no-fault path must be wiring-transparent.
func TestNilInjectorSafe(t *testing.T) {
	var in *Injector
	in.Start()
	var buf bytes.Buffer
	if w := in.Writer(&buf); w != &buf {
		t.Fatal("nil injector must return the writer unchanged")
	}
}

// TestNewPlanDeterministic: plans are pure functions of the seed.
func TestNewPlanDeterministic(t *testing.T) {
	a := NewPlan(42, 4, nil, 3, 10*time.Second)
	b := NewPlan(42, 4, nil, 3, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different plans:\n%v\n%v", a, b)
	}
	seen := map[string]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		seen[NewPlan(seed, 4, nil, 3, 10*time.Second).String()] = true
	}
	if len(seen) < 2 {
		t.Fatal("eight seeds produced one plan; generation is not seed-driven")
	}
}

// TestNewPlanRecoverable: under a supervisor with R retries and rescue,
// every generated schedule must terminate — transient sequences leave a
// clean attempt, and killer sequences are exactly the two dead-shard
// shapes (corruption, or R crashes).
func TestNewPlanRecoverable(t *testing.T) {
	const retries = 3
	for seed := int64(1); seed <= 200; seed++ {
		plan := NewPlan(seed, 3, nil, retries, 10*time.Second)
		for shard, fs := range plan.Shards {
			stalls := 0
			for _, f := range fs {
				if f.Kind == Stall {
					stalls++
				}
				if f.Kind == Exit && (f.Code == 2 || f.Code == 3) {
					t.Fatalf("seed %d shard %d: transient exit uses a permanent code: %v", seed, shard, f)
				}
			}
			if stalls > 1 {
				t.Fatalf("seed %d shard %d: %d stalls, want <= 1", seed, shard, stalls)
			}
			switch {
			case len(fs) < retries && fs[len(fs)-1].Kind != Corrupt:
				// transient: a clean attempt remains
			case len(fs) == 1 && fs[0].Kind == Corrupt:
				// permanent: dead on next resume
			case len(fs) == retries:
				for _, f := range fs {
					if f.Kind != Crash {
						t.Fatalf("seed %d shard %d: exhaustion sequence holds %v, want all crashes", seed, shard, f)
					}
				}
			default:
				t.Fatalf("seed %d shard %d: unexpected schedule %v", seed, shard, fs)
			}
		}
	}
}

// TestPlanFor covers attempt addressing and the nil plan.
func TestPlanFor(t *testing.T) {
	p := Plan{Shards: map[int][]Fault{1: {{Kind: Crash, After: 1}, {Kind: Slow, For: time.Second}}}}
	if f, ok := p.For(1, 1); !ok || f.Kind != Crash {
		t.Fatalf("For(1,1) = %+v, %v", f, ok)
	}
	if f, ok := p.For(1, 2); !ok || f.Kind != Slow {
		t.Fatalf("For(1,2) = %+v, %v", f, ok)
	}
	for _, c := range []struct{ shard, attempt int }{{1, 3}, {1, 0}, {0, 1}, {2, 1}} {
		if _, ok := p.For(c.shard, c.attempt); ok {
			t.Errorf("For(%d,%d) = fault, want none", c.shard, c.attempt)
		}
	}
	var nilPlan Plan
	if _, ok := nilPlan.For(0, 1); ok {
		t.Fatal("nil plan injected a fault")
	}
	if s := nilPlan.String(); !strings.Contains(s, "clean") {
		t.Fatalf("nil plan String = %q", s)
	}
}

// FuzzParse drives the SPROUT_FAULT codec with arbitrary strings: Parse
// never panics, and a fault it accepts renders to a string that parses
// back to the same fault — so a parameter String would drop, or an exit
// code a process cannot exit with, is refused rather than changed in
// transit.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"", "crash", "crash:after=2", "stall:after=1,for=30s", "torn:after=0,bytes=9", "corrupt:after=3",
		"exit:after=1,code=7", "exit:code=256", "slow:for=300ms", "conndrop:after=3", "slowstream:after=1,for=250ms",
		"partialpull:after=2,bytes=7", "duprecords:after=0", "hostdown:after=4", "crash:code=5", "slow:after=3,for=1s",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		flt, err := Parse(s)
		if err != nil {
			return
		}
		again, err := Parse(flt.String())
		if err != nil || again != flt {
			t.Fatalf("Parse(%q) = %+v, but Parse(%q) = %+v, %v", s, flt, flt.String(), again, err)
		}
	})
}
