package trace

import (
	"math/rand"
	"testing"
	"time"
)

// pull collects n opportunities from a process (failing if it ends early).
func pull(t *testing.T, p DeliveryProcess, n int) []time.Duration {
	t.Helper()
	out := make([]time.Duration, 0, n)
	for len(out) < n {
		v, ok := p.Next()
		if !ok {
			t.Fatalf("process ended after %d opportunities, want %d", len(out), n)
		}
		out = append(out, v)
	}
	return out
}

// drain collects every opportunity of a finite process.
func drain(p DeliveryProcess, max int) []time.Duration {
	var out []time.Duration
	for len(out) < max {
		v, ok := p.Next()
		if !ok {
			break
		}
		out = append(out, v)
	}
	return out
}

// TestModelProcessMatchesGenerate is the acceptance property test:
// for every canonical link and several seeds, the streaming process
// emits the identical opportunity sequence that Generate materializes.
func TestModelProcessMatchesGenerate(t *testing.T) {
	const horizon = 30 * time.Second
	for _, m := range CanonicalLinks() {
		for seed := int64(1); seed <= 3; seed++ {
			want := m.Generate(horizon, rand.New(rand.NewSource(seed)))
			p := m.Process()
			p.Reset(seed)
			got := pull(t, p, len(want.Opportunities))
			for i := range got {
				if got[i] != want.Opportunities[i] {
					t.Fatalf("%s seed %d: opportunity %d = %v, Generate says %v",
						m.Name, seed, i, got[i], want.Opportunities[i])
				}
			}
			// The stream keeps going past the materialized horizon.
			if _, ok := p.Next(); !ok {
				t.Fatalf("%s seed %d: process ended at the Generate horizon", m.Name, seed)
			}
		}
	}
}

// TestModelProcessDefaultsToSeedOne: Process seeds nothing, and a process
// pulled without ever being Reset streams what Reset(1) would.
func TestModelProcessDefaultsToSeedOne(t *testing.T) {
	m, _ := CanonicalLink("Verizon-LTE-down")
	fresh := m.Process()
	if fresh.rng != nil {
		t.Error("Process seeded a generator its caller is about to re-seed")
	}
	seeded := m.Process()
	seeded.Reset(1)
	got, want := pull(t, fresh, 2000), pull(t, seeded, 2000)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("opportunity %d: never-reset process %v, Reset(1) %v", i, got[i], want[i])
		}
	}
}

// TestReplayOfGenerateMatchesProcess pins the satellite equivalence:
// Replay(Generate(m)) and m.Process() are the same stream.
func TestReplayOfGenerateMatchesProcess(t *testing.T) {
	m, _ := CanonicalLink("Verizon-LTE-down")
	tr := m.Generate(10*time.Second, rand.New(rand.NewSource(5)))
	rp := NewReplay(tr)
	rp.Reset(999) // seed must be ignored
	fromReplay := drain(rp, len(tr.Opportunities)+1)

	p := m.Process()
	p.Reset(5)
	fromModel := pull(t, p, len(tr.Opportunities))
	if len(fromReplay) != len(tr.Opportunities) {
		t.Fatalf("replay emitted %d opportunities, trace has %d", len(fromReplay), len(tr.Opportunities))
	}
	for i := range fromModel {
		if fromReplay[i] != fromModel[i] {
			t.Fatalf("opportunity %d: replay %v != model %v", i, fromReplay[i], fromModel[i])
		}
	}
	if _, ok := rp.Next(); ok {
		t.Fatal("exhausted replay kept emitting")
	}
}

// composed builds a representative combinator stack over real models:
// a scaled LTE cell handing over to a 3G cell with a forced outage.
func composed(t *testing.T) DeliveryProcess {
	t.Helper()
	lte, _ := CanonicalLink("Verizon-LTE-down")
	umts, _ := CanonicalLink("TMobile-3G-down")
	scaled, err := NewScale(lte.Process(), 1.5)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHandover([]HandoverStage{
		{Process: scaled, Until: 4 * time.Second},
		{Process: umts.Process()},
	})
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOutage(h, []Window{{Start: 2 * time.Second, End: 2500 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestCombinatorDeterminismAcrossReset: the same seed replays the exact
// stream; a different seed produces a different one.
func TestCombinatorDeterminismAcrossReset(t *testing.T) {
	p := composed(t)
	p.Reset(42)
	first := pull(t, p, 2000)
	p.Reset(42)
	second := pull(t, p, 2000)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("opportunity %d: %v then %v after identical Reset", i, first[i], second[i])
		}
	}
	p.Reset(43)
	other := pull(t, p, 2000)
	same := true
	for i := range first {
		if first[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed 42 and 43 produced identical streams")
	}
	for i := 1; i < len(first); i++ {
		if first[i] < first[i-1] {
			t.Fatalf("opportunity %d at %v precedes %v", i, first[i], first[i-1])
		}
	}
}

// TestLoopMatchesMahimahiWrap pins Loop(Replay) to the exact wrap
// semantics the link has always used: re-base by the final opportunity,
// skip one leading zero-offset opportunity per wrap, stop on traces that
// cannot advance time.
func TestLoopMatchesMahimahiWrap(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	cases := []struct {
		name string
		ops  []time.Duration
		want []time.Duration // first pulls; nil means the process must stop
	}{
		{"plain", ms(5, 10), ms(5, 10, 15, 20, 25, 30)},
		{"zero first", ms(0, 10), ms(0, 10, 20, 30)},
		{"zero first multi", ms(0, 0, 5), ms(0, 0, 5, 5, 10, 10)},
		{"single nonzero", ms(7), ms(7, 14, 21)},
		{"single zero", ms(0), ms(0)},
		{"all zero", ms(0, 0), ms(0, 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lp := NewLoop(NewReplay(&Trace{Name: tc.name, Opportunities: tc.ops}))
			lp.Reset(0)
			got := drain(lp, len(tc.want))
			if len(got) != len(tc.want) {
				t.Fatalf("emitted %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("emitted %v, want %v", got, tc.want)
				}
			}
			// The short cases must terminate rather than loop at one instant.
			if tc.name == "single zero" || tc.name == "all zero" {
				if v, ok := lp.Next(); ok {
					t.Fatalf("zero-duration loop kept emitting (%v)", v)
				}
			}
		})
	}
}

// Concat chains processes end to end: each part runs to exhaustion, and
// the next part's times are offset by the time the stream had reached.
// Reset hands each part an independent derived seed. No spec grammar
// reaches it, so it lives here, beside its test.
type Concat struct {
	parts []DeliveryProcess
	cur   int
	base  time.Duration // offset applied to the current part
	last  time.Duration
}

// NewConcat chains the given parts (at least one).
func NewConcat(parts ...DeliveryProcess) *Concat {
	if len(parts) == 0 {
		panic("trace: Concat needs at least one process")
	}
	return &Concat{parts: parts}
}

// Reset implements DeliveryProcess.
func (p *Concat) Reset(seed int64) {
	p.cur = 0
	p.base, p.last = 0, 0
	for i, part := range p.parts {
		part.Reset(mixSeed(seed, i))
	}
}

// Next implements DeliveryProcess.
func (p *Concat) Next() (time.Duration, bool) {
	for p.cur < len(p.parts) {
		v, ok := p.parts[p.cur].Next()
		if ok {
			p.last = p.base + v
			return p.last, true
		}
		p.cur++
		p.base = p.last
	}
	return 0, false
}

func TestConcatOffsetsParts(t *testing.T) {
	a := &Trace{Opportunities: []time.Duration{1 * time.Millisecond, 4 * time.Millisecond}}
	b := &Trace{Opportunities: []time.Duration{2 * time.Millisecond, 3 * time.Millisecond}}
	c := NewConcat(NewReplay(a), NewReplay(b))
	c.Reset(1)
	got := drain(c, 10)
	want := []time.Duration{1 * time.Millisecond, 4 * time.Millisecond, 6 * time.Millisecond, 7 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestHandoverSwitchesOnSchedule(t *testing.T) {
	// Stage A would emit at 1,2,...,9 ms but hands over at 3 ms; stage B
	// (relative times 0,5 ms) starts at the handover instant.
	a := &Trace{Opportunities: ms10()}
	b := &Trace{Opportunities: []time.Duration{0, 5 * time.Millisecond}}
	h, err := NewHandover([]HandoverStage{
		{Process: NewReplay(a), Until: 3 * time.Millisecond},
		{Process: NewReplay(b)},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Reset(1)
	got := drain(h, 10)
	want := []time.Duration{1 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 8 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Validation: non-final stage without a boundary, and shuffled
	// boundaries, are rejected.
	if _, err := NewHandover(nil); err == nil {
		t.Error("empty handover accepted")
	}
	if _, err := NewHandover([]HandoverStage{
		{Process: NewReplay(a), Until: 3 * time.Millisecond},
		{Process: NewReplay(b), Until: 2 * time.Millisecond},
	}); err == nil {
		t.Error("decreasing handover boundaries accepted")
	}
	if _, err := NewHandover([]HandoverStage{
		{Process: NewReplay(a)},
		{Process: NewReplay(b), Until: 2 * time.Millisecond},
	}); err == nil {
		t.Error("open-ended non-final stage accepted")
	}
}

// ms10 is 1..9 ms, one opportunity per millisecond.
func ms10() []time.Duration {
	out := make([]time.Duration, 9)
	for i := range out {
		out[i] = time.Duration(i+1) * time.Millisecond
	}
	return out
}

func TestOutageDropsWindows(t *testing.T) {
	tr := &Trace{Opportunities: ms10()}
	o, err := NewOutage(NewReplay(tr), []Window{
		{Start: 2 * time.Millisecond, End: 4 * time.Millisecond},
		{Start: 7 * time.Millisecond, End: 8 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.Reset(1)
	got := drain(o, 20)
	want := []time.Duration{1 * time.Millisecond, 4 * time.Millisecond, 5 * time.Millisecond,
		6 * time.Millisecond, 8 * time.Millisecond, 9 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if _, err := NewOutage(NewReplay(tr), []Window{{Start: 5 * time.Millisecond, End: 5 * time.Millisecond}}); err == nil {
		t.Error("empty outage window accepted")
	}
	if _, err := NewOutage(NewReplay(tr), []Window{
		{Start: 5 * time.Millisecond, End: 9 * time.Millisecond},
		{Start: 1 * time.Millisecond, End: 2 * time.Millisecond},
	}); err == nil {
		t.Error("unsorted outage windows accepted")
	}
}

func TestScaleCompressesTimeline(t *testing.T) {
	tr := &Trace{Opportunities: []time.Duration{2 * time.Millisecond, 10 * time.Millisecond}}
	s, err := NewScale(NewReplay(tr), 2)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset(1)
	got := drain(s, 5)
	want := []time.Duration{1 * time.Millisecond, 5 * time.Millisecond}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if _, err := NewScale(NewReplay(tr), 0); err == nil {
		t.Error("zero scale factor accepted")
	}
	if _, err := NewScale(NewReplay(tr), -1); err == nil {
		t.Error("negative scale factor accepted")
	}

	// A stretch that would overflow time.Duration ends the stream instead
	// of emitting a wrapped-negative time.
	big := &Trace{Opportunities: []time.Duration{time.Hour, 1 << 62}}
	s, err = NewScale(NewReplay(big), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset(1)
	if v, ok := s.Next(); !ok || v != time.Duration(float64(time.Hour)/1e-3) {
		t.Fatalf("first scaled value = %v, %v", v, ok)
	}
	if v, ok := s.Next(); ok {
		t.Fatalf("overflowing scaled value emitted: %v", v)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("overflowed Scale kept emitting after terminal false")
	}
}

// TestProcessPullSteadyStateAllocs gates the streaming hot path like the
// link/sim AllocsPerRun tests: once per-step buffers are warm, pulling
// opportunities from the model — and through a full combinator stack —
// allocates nothing.
func TestProcessPullSteadyStateAllocs(t *testing.T) {
	m, _ := CanonicalLink("Verizon-LTE-down")
	p := m.Process()
	p.Reset(3)
	pullN := func(dp DeliveryProcess, n int) {
		for i := 0; i < n; i++ {
			if _, ok := dp.Next(); !ok {
				t.Fatal("process ended during warmup")
			}
		}
	}
	pullN(p, 50_000) // warm the offset/step buffers across outages
	if avg := testing.AllocsPerRun(200, func() { pullN(p, 100) }); avg > 0 {
		t.Errorf("warm ModelProcess pull allocates %.2f allocs per 100 pulls, want 0", avg)
	}

	c := composed(t)
	c.Reset(3)
	pullN(c, 50_000)
	if avg := testing.AllocsPerRun(200, func() { pullN(c, 100) }); avg > 0 {
		t.Errorf("warm combinator-stack pull allocates %.2f allocs per 100 pulls, want 0", avg)
	}
}

// TestCollect: a model process's first 500 opportunities, materialized,
// are a valid trace.
func TestCollect(t *testing.T) {
	m, _ := CanonicalLink("Verizon-3G-down")
	p := m.Process()
	p.Reset(2)
	tr := &Trace{Name: "collected", Opportunities: drain(p, 500)}
	if tr.Count() != 500 {
		t.Fatalf("collected %d opportunities, want 500", tr.Count())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
