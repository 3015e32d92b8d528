package trace

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParse(t *testing.T) {
	in := "0\n5\n5\n# comment\n\n20\n"
	tr, err := Parse(strings.NewReader(in), "test")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 4 {
		t.Fatalf("Count = %d, want 4", tr.Count())
	}
	want := []time.Duration{0, 5 * time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond}
	for i, op := range tr.Opportunities {
		if op != want[i] {
			t.Errorf("op[%d] = %v, want %v", i, op, want[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("abc\n"), "bad"); err == nil {
		t.Error("expected error for non-numeric line")
	}
	if _, err := Parse(strings.NewReader("-5\n"), "neg"); err == nil {
		t.Error("expected error for negative timestamp")
	}
	if _, err := Parse(strings.NewReader("10\n5\n"), "order"); err == nil {
		t.Error("expected error for decreasing timestamps")
	}
}

// TestParseLineEndings hardens Parse against files that passed through
// Windows tooling or sloppy editors: CRLF line endings, trailing blank
// lines, a UTF-8 BOM, padding — and rejects what must stay rejected.
func TestParseLineEndings(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	cases := []struct {
		name    string
		in      string
		want    []time.Duration
		wantErr bool
	}{
		{"crlf", "0\r\n5\r\n20\r\n", ms(0, 5, 20), false},
		{"crlf no final newline", "0\r\n5", ms(0, 5), false},
		{"trailing blank lines", "3\n7\n\n\n", ms(3, 7), false},
		{"trailing crlf blanks", "3\r\n7\r\n\r\n\r\n", ms(3, 7), false},
		{"interior blank and comment", "1\r\n# note\r\n\r\n2\r\n", ms(1, 2), false},
		{"utf8 bom", "\ufeff4\n9\n", ms(4, 9), false},
		{"bom then crlf", "\ufeff4\r\n9\r\n", ms(4, 9), false},
		{"padded", "  11\t\n\t12  \n", ms(11, 12), false},
		{"doubled cr line", "1\r\r\n2\n", ms(1, 2), false}, // stray CRs are whitespace
		{"crlf decreasing", "9\r\n4\r\n", nil, true},
		{"overflow ms", "9223372036854775807\n", nil, true},
		{"empty file", "", ms(), false},
		{"only comments and blanks", "# a\r\n\r\n# b\n\n", ms(), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := Parse(strings.NewReader(tc.in), tc.name)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("Parse(%q) accepted, want error", tc.in)
				}
				return
			}
			if err != nil {
				t.Fatalf("Parse(%q): %v", tc.in, err)
			}
			if tr.Count() != len(tc.want) {
				t.Fatalf("Count = %d, want %d (%v)", tr.Count(), len(tc.want), tr.Opportunities)
			}
			for i, op := range tr.Opportunities {
				if op != tc.want[i] {
					t.Errorf("op[%d] = %v, want %v", i, op, tc.want[i])
				}
			}
		})
	}
}

func TestWriteRoundTrip(t *testing.T) {
	tr := &Trace{Name: "rt", Opportunities: []time.Duration{
		0, 3 * time.Millisecond, 3 * time.Millisecond, 1500 * time.Millisecond,
	}}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf, "rt")
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != tr.Count() {
		t.Fatalf("round trip count = %d, want %d", got.Count(), tr.Count())
	}
	for i := range got.Opportunities {
		if got.Opportunities[i] != tr.Opportunities[i] {
			t.Errorf("op[%d] = %v, want %v", i, got.Opportunities[i], tr.Opportunities[i])
		}
	}
}

func TestCapacityBits(t *testing.T) {
	tr := &Trace{Opportunities: []time.Duration{
		0, time.Second, 2 * time.Second, 3 * time.Second,
	}}
	// Window [1s, 3s) contains opportunities at 1s and 2s.
	got := tr.CapacityBits(time.Second, 3*time.Second)
	want := int64(2 * MTU * 8)
	if got != want {
		t.Errorf("CapacityBits = %d, want %d", got, want)
	}
}

func TestMeanRateBps(t *testing.T) {
	// 100 opportunities over 1 second = 100*1500*8 bps... duration is
	// time of last opportunity.
	ops := make([]time.Duration, 101)
	for i := range ops {
		ops[i] = time.Duration(i) * 10 * time.Millisecond // last at 1s
	}
	tr := &Trace{Opportunities: ops}
	got := tr.MeanRateBps()
	want := 101.0 * MTU * 8 / 1.0
	if math.Abs(got-want) > 1 {
		t.Errorf("MeanRateBps = %v, want %v", got, want)
	}
}

func TestSlice(t *testing.T) {
	tr := &Trace{Opportunities: []time.Duration{
		0, time.Second, 2 * time.Second, 3 * time.Second,
	}}
	s := tr.Slice(time.Second, 3*time.Second)
	if s.Count() != 2 {
		t.Fatalf("Count = %d, want 2", s.Count())
	}
	if s.Opportunities[0] != 0 || s.Opportunities[1] != time.Second {
		t.Errorf("rebased opportunities = %v", s.Opportunities)
	}
}

func TestInterarrivals(t *testing.T) {
	tr := &Trace{Opportunities: []time.Duration{0, 5 * time.Millisecond, 25 * time.Millisecond}}
	got := tr.Interarrivals()
	if len(got) != 2 || got[0] != 5*time.Millisecond || got[1] != 20*time.Millisecond {
		t.Errorf("Interarrivals = %v", got)
	}
	if (&Trace{}).Interarrivals() != nil {
		t.Error("empty trace should return nil interarrivals")
	}
}

func TestGenerateMeanRate(t *testing.T) {
	m := LinkModel{Name: "t", MeanRate: 100, Sigma: 30, Reversion: 0.5, MaxRate: 300}
	rng := rand.New(rand.NewSource(1))
	tr := m.Generate(60*time.Second, rng)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	rate := float64(tr.Count()) / 60.0
	if rate < 70 || rate > 130 {
		t.Errorf("generated rate %v pkt/s, want ~100", rate)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	m, ok := CanonicalLink("Verizon-LTE-down")
	if !ok {
		t.Fatal("canonical link missing")
	}
	a := m.Generate(10*time.Second, rand.New(rand.NewSource(7)))
	b := m.Generate(10*time.Second, rand.New(rand.NewSource(7)))
	if a.Count() != b.Count() {
		t.Fatalf("counts differ: %d vs %d", a.Count(), b.Count())
	}
	for i := range a.Opportunities {
		if a.Opportunities[i] != b.Opportunities[i] {
			t.Fatalf("op[%d] differs", i)
		}
	}
}

// raceEnabled is set in race-detector builds (race_test.go).
var raceEnabled bool

// TestGenerateAllocatesWhatItKeeps: warm Generate calls step into the
// pooled scratch and allocate little beyond the exact-length lists they
// return, 8 bytes per opportunity kept.
//
// The heap rounds each kept list up to its size class (up to 12.5 % for the
// 15–30 KB lists of the 3G links), a cost no way of building the list
// avoids, so the bound applies to 8 bytes per opportunity plus what
// Generate allocates beyond the heap's cost of the kept lists themselves,
// measured by allocating lists of the same lengths.
func TestGenerateAllocatesWhatItKeeps(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a random quarter of what it is given")
	}
	const calls, horizon = 20, 40 * time.Second
	// sync.Pool keeps an item per P, and a goroutine moved to another P
	// may meet an empty pool: measure the steady state on one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, m := range CanonicalLinks() {
		rngs := make([]*rand.Rand, calls)
		for i := range rngs {
			// A first run of the same calls grows the pooled scratch to
			// the longest of them.
			m.Generate(horizon, rand.New(rand.NewSource(int64(i+1))))
			rngs[i] = rand.New(rand.NewSource(int64(i + 1)))
		}
		traces := make([]*Trace, calls)
		generated := allocated(func() {
			for i, rng := range rngs {
				traces[i] = m.Generate(horizon, rng)
			}
		})
		lists := make([][]time.Duration, calls)
		listCost := allocated(func() {
			for i, tr := range traces {
				lists[i] = make([]time.Duration, tr.Count())
			}
		})
		kept := 0
		for _, tr := range traces {
			kept += tr.Count()
		}
		gross := float64(generated) / float64(kept)
		net := 8 + (float64(generated)-float64(listCost))/float64(kept)
		t.Logf("%s: %.2f bytes allocated per kept opportunity, %.2f net of the heap's rounding (%d kept)", m.Name, gross, net, kept)
		if net > 8.5 {
			t.Errorf("%s: %.2f bytes allocated per kept opportunity net of the heap's rounding, want ≤ 8.5", m.Name, net)
		}
		for _, tr := range traces {
			if cap(tr.Opportunities) != len(tr.Opportunities) {
				t.Fatalf("%s: a trace of %d opportunities holds room for %d", m.Name, tr.Count(), cap(tr.Opportunities))
			}
		}
	}
}

// TestGenerateConcurrent: Generate and Parse share the scratch pool, and
// traces built on several goroutines at once equal the serial ones — no
// call sees another's scratch, and no trace aliases it.
func TestGenerateConcurrent(t *testing.T) {
	const horizon = 20 * time.Second
	links := CanonicalLinks()
	generate := func(i int) *Trace {
		return links[i].Generate(horizon, rand.New(rand.NewSource(int64(i))))
	}
	files := make([][]byte, len(links))
	parse := func(i int) *Trace {
		tr, err := Parse(bytes.NewReader(files[i]), links[i].Name)
		if err != nil {
			t.Error(err)
			return &Trace{}
		}
		return tr
	}
	want := make([][2]*Trace, len(links))
	for i := range links {
		var buf bytes.Buffer
		want[i][0] = generate(i)
		if err := want[i][0].Write(&buf); err != nil {
			t.Fatal(err)
		}
		files[i] = buf.Bytes()
		want[i][1] = parse(i)
	}
	const workers = 4
	got := make([][][2]*Trace, workers)
	var wg sync.WaitGroup
	for w := range workers {
		got[w] = make([][2]*Trace, len(links))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range links {
				i := (k + w) % len(links) // the workers meet different links at once
				got[w][i] = [2]*Trace{generate(i), parse(i)}
			}
		}()
	}
	wg.Wait()
	for w := range workers {
		for i, m := range links {
			for j, how := range []string{"Generate", "Parse"} {
				if !slices.Equal(got[w][i][j].Opportunities, want[i][j].Opportunities) {
					t.Errorf("worker %d, %s: concurrent %s differs from the serial trace", w, m.Name, how)
				}
			}
		}
	}
}

func TestGenerateOutages(t *testing.T) {
	m := LinkModel{
		Name: "outagey", MeanRate: 200, Sigma: 50, Reversion: 0.5,
		MaxRate: 500, OutageRate: 0.2, OutageEscape: 0.5,
	}
	rng := rand.New(rand.NewSource(3))
	tr := m.Generate(120*time.Second, rng)
	// With outages entered every ~5 s lasting ~2 s, there must be some
	// interarrival gaps well over a second.
	var maxGap time.Duration
	for _, g := range tr.Interarrivals() {
		if g > maxGap {
			maxGap = g
		}
	}
	if maxGap < time.Second {
		t.Errorf("max interarrival gap = %v, want > 1s (outages)", maxGap)
	}
}

func TestGenerateRateVariability(t *testing.T) {
	// An LTE-like link must show large swings: the per-second delivered
	// count should vary by at least 3x between its 10th and 90th
	// percentile seconds.
	m, _ := CanonicalLink("Verizon-LTE-down")
	tr := m.Generate(120*time.Second, rand.New(rand.NewSource(11)))
	perSec := make([]float64, 120)
	for _, op := range tr.Opportunities {
		s := int(op / time.Second)
		if s < len(perSec) {
			perSec[s]++
		}
	}
	lo, hi := percentilePair(perSec, 0.1, 0.9)
	if lo <= 0 {
		lo = 1
	}
	if hi/lo < 3 {
		t.Errorf("p90/p10 per-second rate ratio = %.1f, want >= 3 (got lo=%v hi=%v)", hi/lo, lo, hi)
	}
}

func percentilePair(s []float64, p1, p2 float64) (float64, float64) {
	c := append([]float64(nil), s...)
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j] < c[j-1]; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
	return c[int(p1*float64(len(c)-1))], c[int(p2*float64(len(c)-1))]
}

func TestCanonicalLinks(t *testing.T) {
	links := CanonicalLinks()
	if len(links) != 8 {
		t.Fatalf("got %d canonical links, want 8", len(links))
	}
	seen := map[string]bool{}
	for _, m := range links {
		if m.MeanRate <= 0 || m.MaxRate <= 0 || m.Sigma <= 0 {
			t.Errorf("link %q has non-positive parameters", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("duplicate link name %q", m.Name)
		}
		seen[m.Name] = true
	}
	if _, ok := CanonicalLink("nope"); ok {
		t.Error("CanonicalLink should not find nonexistent name")
	}
}

func TestCanonicalNetworks(t *testing.T) {
	nets := CanonicalNetworks()
	if len(nets) != 4 {
		t.Fatalf("got %d networks, want 4", len(nets))
	}
	for _, n := range nets {
		if n.Down.Name == "" || n.Up.Name == "" {
			t.Errorf("network %q missing link models", n.Name)
		}
	}
}

func TestPoissonDrawMean(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, mean := range []float64{0.5, 5, 100} {
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			sum += float64(poissonDraw(rng, mean))
		}
		got := sum / n
		if math.Abs(got-mean) > mean*0.05+0.05 {
			t.Errorf("poissonDraw mean = %v, want %v", got, mean)
		}
	}
	if poissonDraw(rng, 0) != 0 {
		t.Error("poissonDraw(0) != 0")
	}
}
