package scenario

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"sprout/internal/engine"
)

// streamSpec is a pure-model streaming spec equivalent to materialized
// {Link: "Verizon LTE", Direction: "down"}.
func streamSpec(scheme string, d, skip time.Duration, seed int64) Spec {
	return Spec{
		Scheme:          scheme,
		Process:         &ProcessSpec{Model: "Verizon-LTE-down"},
		FeedbackProcess: &ProcessSpec{Model: "Verizon-LTE-up"},
		Duration:        Duration(d),
		Skip:            Duration(skip),
		Seed:            seed,
	}
}

// TestStreamingWorldReuse: a warm pooled world re-runs a streaming spec
// with zero allocations (the streaming analogue of
// TestPooledWorldRerunAllocs; TestEquivalentRuns matches it against a
// fresh world).
func TestStreamingWorldReuse(t *testing.T) {
	norm, err := streamSpec("sprout", 2*time.Second, 500*time.Millisecond, 3).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	w := newWorld()
	run := func() {
		if _, err := compile(norm).run(nil, w); err != nil {
			t.Fatal(err)
		}
	}
	run() // compile the process, grow the arena, build endpoints
	run()
	if avg := testing.AllocsPerRun(5, run); avg > 0 {
		t.Errorf("warm streaming re-run allocates %.1f times per run, want 0", avg)
	}
}

// TestStreamingBeyondCanonicalLength: streaming specs run for durations no
// canonical materialized pair was ever generated for, with sane outputs.
func TestStreamingBeyondCanonicalLength(t *testing.T) {
	if testing.Short() {
		t.Skip("10-minute virtual run")
	}
	res, err := Run(streamSpec("cubic", 10*time.Minute, 1*time.Minute, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.ThroughputBps <= 0 {
		t.Errorf("10-minute streaming run delivered nothing: %+v", res.Metrics)
	}
	if res.Metrics.Utilization <= 0 || res.Metrics.Utilization > 1.01 {
		t.Errorf("utilization %v outside (0, 1]", res.Metrics.Utilization)
	}
}

// processSpecJSON is a handover spec with outages and scaling.
const processSpecJSON = `{
	  "defaults": {"duration": "4s", "skip": "1s", "seed": 5},
	  "scenarios": [
	    {"scheme": "sprout",
	     "process": {"handover": [
	        {"model": "Verizon-LTE-down", "scale": 1.25, "until": "2s"},
	        {"model": "TMobile-3G-down"}
	      ], "outages": [{"start": "3s", "end": "3.2s"}]},
	     "feedback_process": {"model": "Verizon-LTE-up"}}
	  ]
	}`

// TestProcessSpecJSON exercises the grammar end to end: processSpecJSON
// parses, normalizes, labels and runs.
func TestProcessSpecJSON(t *testing.T) {
	specs, err := Parse(strings.NewReader(processSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 {
		t.Fatalf("parsed %d specs, want 1", len(specs))
	}
	label := specs[0].Label()
	if !strings.Contains(label, "handover(") || !strings.Contains(label, "outage") {
		t.Errorf("label %q does not describe the process", label)
	}
	res, err := Run(specs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.ThroughputBps <= 0 {
		t.Errorf("handover scenario delivered nothing: %+v", res.Metrics)
	}
}

// TestProcessDefaultsInheritance: a defaults-level process streams for
// every scenario that does not pick its own link.
func TestProcessDefaultsInheritance(t *testing.T) {
	const js = `{
	  "defaults": {"process": {"model": "ATT-LTE-down"},
	               "feedback_process": {"model": "ATT-LTE-up"},
	               "duration": "2s", "skip": "1s"},
	  "scenarios": [
	    {"scheme": "cubic"},
	    {"scheme": "cubic", "link": "Verizon LTE"}
	  ]
	}`
	specs, err := Parse(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Process == nil || specs[0].Process.Model != "ATT-LTE-down" {
		t.Errorf("first scenario did not inherit the defaults process: %+v", specs[0].Process)
	}
	if specs[1].Process != nil {
		t.Errorf("scenario with its own link inherited the defaults process")
	}
}

// TestProcessDefaultsKeepExplicitFeedback: a scenario's own
// feedback_process survives the defaults merge (only the missing half of
// the pair is inherited).
func TestProcessDefaultsKeepExplicitFeedback(t *testing.T) {
	const js = `{
	  "defaults": {"process": {"model": "ATT-LTE-down"},
	               "feedback_process": {"model": "ATT-LTE-up"},
	               "duration": "2s", "skip": "1s"},
	  "scenarios": [
	    {"scheme": "cubic", "feedback_process": {"model": "Verizon-LTE-up"}}
	  ]
	}`
	specs, err := Parse(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Process == nil || specs[0].Process.Model != "ATT-LTE-down" {
		t.Errorf("did not inherit the defaults process: %+v", specs[0].Process)
	}
	if specs[0].FeedbackProcess == nil || specs[0].FeedbackProcess.Model != "Verizon-LTE-up" {
		t.Errorf("explicit feedback_process was overwritten by defaults: %+v", specs[0].FeedbackProcess)
	}

	// The converse: a scenario overriding only "process" still inherits
	// the defaults feedback half.
	const js2 = `{
	  "defaults": {"process": {"model": "ATT-LTE-down"},
	               "feedback_process": {"model": "ATT-LTE-up"},
	               "duration": "2s", "skip": "1s"},
	  "scenarios": [
	    {"scheme": "cubic", "process": {"model": "Verizon-LTE-down"}}
	  ]
	}`
	specs, err = Parse(strings.NewReader(js2))
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Process == nil || specs[0].Process.Model != "Verizon-LTE-down" {
		t.Errorf("own process lost in merge: %+v", specs[0].Process)
	}
	if specs[0].FeedbackProcess == nil || specs[0].FeedbackProcess.Model != "ATT-LTE-up" {
		t.Errorf("defaults feedback_process not inherited alongside own process: %+v", specs[0].FeedbackProcess)
	}
}

// TestProcessSharedPointerRunsAsTwoValues: one *ProcessSpec for both
// directions runs exactly as two equal values do, on a fresh world and on
// a warm one — each link compiles an instance of its own, so the two never
// pull from one stream.
func TestProcessSharedPointerRunsAsTwoValues(t *testing.T) {
	spec := func(down, up *ProcessSpec) compiled {
		norm, err := Spec{Scheme: "cubic", Duration: Duration(2 * time.Second), Skip: Duration(500 * time.Millisecond),
			Seed: 5, Process: down, FeedbackProcess: up}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		return compile(norm)
	}
	ps := &ProcessSpec{Model: "ATT-LTE-down"}
	shared := spec(ps, ps)
	twin := spec(&ProcessSpec{Model: "ATT-LTE-down"}, &ProcessSpec{Model: "ATT-LTE-down"})
	warm := newWorld()
	for _, w := range []*world{newWorld(), warm, warm} {
		_, got := encoded(t, shared, w)
		_, want := encoded(t, twin, newWorld())
		if !bytes.Equal(got, want) {
			t.Fatalf("shared pointer:\n%s\ntwo values:\n%s", got, want)
		}
	}
}

// TestProcessSpecErrors walks the grammar's validation surface.
func TestProcessSpecErrors(t *testing.T) {
	base := func() Spec {
		return Spec{Scheme: "cubic", Duration: Duration(60 * time.Second)}
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"unknown model", func(s *Spec) {
			s.Process = &ProcessSpec{Model: "Nokia-GPRS-down"}
			s.FeedbackProcess = &ProcessSpec{Model: "Verizon-LTE-up"}
		}, "unknown link model"},
		{"both cores", func(s *Spec) {
			s.Process = &ProcessSpec{Model: "Verizon-LTE-down",
				Handover: []HandoverStage{{ProcessSpec: ProcessSpec{Model: "ATT-LTE-down"}}}}
			s.FeedbackProcess = &ProcessSpec{Model: "Verizon-LTE-up"}
		}, "both"},
		{"no core", func(s *Spec) {
			s.Process = &ProcessSpec{Scale: 2}
			s.FeedbackProcess = &ProcessSpec{Model: "Verizon-LTE-up"}
		}, "core"},
		{"bad scale", func(s *Spec) {
			s.Process = &ProcessSpec{Model: "Verizon-LTE-down", Scale: -2}
			s.FeedbackProcess = &ProcessSpec{Model: "Verizon-LTE-up"}
		}, "scale factor"},
		{"bad outage", func(s *Spec) {
			s.Process = &ProcessSpec{Model: "Verizon-LTE-down",
				Outages: []OutageWindow{{Start: Duration(2 * time.Second), End: Duration(time.Second)}}}
			s.FeedbackProcess = &ProcessSpec{Model: "Verizon-LTE-up"}
		}, "outage window"},
		{"handover order", func(s *Spec) {
			s.Process = &ProcessSpec{Handover: []HandoverStage{
				{ProcessSpec: ProcessSpec{Model: "Verizon-LTE-down"}, Until: Duration(3 * time.Second)},
				{ProcessSpec: ProcessSpec{Model: "ATT-LTE-down"}, Until: Duration(2 * time.Second)},
			}}
			s.FeedbackProcess = &ProcessSpec{Model: "Verizon-LTE-up"}
		}, "strictly increasing"},
		{"feedback without process", func(s *Spec) {
			s.Link = "Verizon LTE"
			s.FeedbackProcess = &ProcessSpec{Model: "Verizon-LTE-up"}
		}, "feedback_process without process"},
		{"no feedback and no link", func(s *Spec) {
			s.Process = &ProcessSpec{Model: "Verizon-LTE-down"}
		}, "feedback_process"},
		{"bad feedback", func(s *Spec) {
			s.Process = &ProcessSpec{Model: "Verizon-LTE-down"}
			s.FeedbackProcess = &ProcessSpec{}
		}, "feedback_process"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mut(&s)
			_, err := s.Normalize()
			if err == nil {
				t.Fatalf("Normalize accepted %+v", s)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// A process spec with a link derives the reverse model from the pair.
	s := base()
	s.Process = &ProcessSpec{Model: "Verizon-LTE-down"}
	s.Link = "T-Mobile 3G (UMTS)"
	norm, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.FeedbackProcess == nil || norm.FeedbackProcess.Model != "TMobile-3G-up" {
		t.Errorf("derived feedback process = %+v, want TMobile-3G-up", norm.FeedbackProcess)
	}
	s.Direction = "up"
	norm, err = s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.FeedbackProcess == nil || norm.FeedbackProcess.Model != "TMobile-3G-down" {
		t.Errorf("up-direction derived feedback = %+v, want TMobile-3G-down", norm.FeedbackProcess)
	}
}

// TestTraceMemoryStreaming: materialized runs populate the trace cache,
// streaming runs leave it empty.
func TestTraceMemoryStreaming(t *testing.T) {
	cache := engine.NewCache()
	if _, err := Run(streamSpec("cubic", time.Second, 200*time.Millisecond, 1), cache); err != nil {
		t.Fatal(err)
	}
	if pairs, ops, bytes := TraceMemory(cache); pairs != 0 || ops != 0 || bytes != 0 {
		t.Errorf("streaming run materialized traces: pairs=%d ops=%d bytes=%d", pairs, ops, bytes)
	}
	mat := Spec{Scheme: "cubic", Link: "Verizon LTE", Duration: Duration(time.Second),
		Seed: 1, Skip: Duration(200 * time.Millisecond)}
	if _, err := Run(mat, cache); err != nil {
		t.Fatal(err)
	}
	pairs, ops, bytes := TraceMemory(cache)
	if pairs != 1 || ops <= 0 || bytes != int64(ops)*8 {
		t.Errorf("materialized run: pairs=%d ops=%d bytes=%d, want 1 pair", pairs, ops, bytes)
	}
}
