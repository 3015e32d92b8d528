package scenario

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestSpecJSONRoundTrip marshals a fully-specified spec and parses it
// back unchanged.
func TestSpecJSONRoundTrip(t *testing.T) {
	tru := true
	in := Spec{
		Name:      "round trip",
		Scheme:    "vegas",
		Flows:     3,
		Link:      "Verizon LTE",
		Direction: "up",
		Loss:      0.05,
		CoDel:     &tru,
		Duration:  Duration(90 * time.Second),
		Skip:      Duration(20 * time.Second),
		PropDelay: Duration(10 * time.Millisecond),
		Seed:      42,
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"duration":"1m30s"`) {
		t.Errorf("duration should marshal as a Go duration string, got %s", raw)
	}
	var out Spec
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the spec:\n in: %+v\nout: %+v", in, out)
	}
}

// TestDurationForms accepts both "30s" strings and numeric seconds.
func TestDurationForms(t *testing.T) {
	var s Spec
	if err := json.Unmarshal([]byte(`{"duration": "45s", "skip": 12.5}`), &s); err != nil {
		t.Fatal(err)
	}
	if time.Duration(s.Duration) != 45*time.Second {
		t.Errorf("duration = %v, want 45s", time.Duration(s.Duration))
	}
	if time.Duration(s.Skip) != 12500*time.Millisecond {
		t.Errorf("skip = %v, want 12.5s", time.Duration(s.Skip))
	}
	if err := json.Unmarshal([]byte(`{"duration": "abc"}`), &s); err == nil {
		t.Error("bad duration string accepted")
	}
	// Numeric seconds past the int64-nanosecond range must not wrap.
	for _, secs := range []string{"1e12", "-1e12", "9223372037"} {
		err := json.Unmarshal([]byte(`{"prop_delay": `+secs+`}`), &s)
		if err == nil || !strings.Contains(err.Error(), secs) {
			t.Errorf("prop_delay %s seconds: error %v, want one naming the value", secs, err)
		}
	}
	if err := json.Unmarshal([]byte(`{"prop_delay": 9223372036}`), &s); err != nil {
		t.Errorf("prop_delay just inside the int64 range: %v", err)
	}
}

// TestNormalizeDefaults checks the resolved defaults of a minimal spec.
func TestNormalizeDefaults(t *testing.T) {
	norm, err := Spec{Scheme: "sprout", Link: "Verizon LTE"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Duration(norm.Duration); d != 150*time.Second {
		t.Errorf("default duration = %v, want 150s", d)
	}
	if d := time.Duration(norm.Skip); d != 30*time.Second {
		t.Errorf("default skip = %v, want 30s", d)
	}
	if d := time.Duration(norm.PropDelay); d != 20*time.Millisecond {
		t.Errorf("default prop delay = %v, want 20ms", d)
	}
	if norm.Seed != 1 {
		t.Errorf("default seed = %d, want 1", norm.Seed)
	}
	if norm.Direction != "down" {
		t.Errorf("default direction = %q, want down", norm.Direction)
	}
	want := []FlowGroup{{Scheme: "sprout", Count: 1, BaseFlow: 0}}
	if !reflect.DeepEqual(norm.Groups, want) {
		t.Errorf("groups = %+v, want %+v", norm.Groups, want)
	}
	// A lone TCP flow keeps its historical base flow id 1.
	norm, err = Spec{Scheme: "cubic", Link: "Verizon LTE"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Groups[0].BaseFlow != 1 {
		t.Errorf("lone cubic base flow = %d, want 1", norm.Groups[0].BaseFlow)
	}
	// Multiple groups auto-assign sequentially from the reserved range.
	norm, err = Spec{
		Groups: []FlowGroup{{Scheme: "sprout", Count: 2}, {Scheme: "ledbat"}},
		Link:   "Verizon LTE",
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Groups[0].BaseFlow != autoFlowStart || norm.Groups[1].BaseFlow != autoFlowStart+2 {
		t.Errorf("auto flow ids = %d, %d; want %d, %d",
			norm.Groups[0].BaseFlow, norm.Groups[1].BaseFlow, autoFlowStart, autoFlowStart+2)
	}
}

// TestNormalizeErrors covers the validation failure paths.
func TestNormalizeErrors(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown scheme", Spec{Scheme: "quic", Link: "Verizon LTE"}, "unknown scheme"},
		{"unknown link", Spec{Scheme: "sprout", Link: "Starlink"}, "unknown link"},
		{"no link or traces", Spec{Scheme: "sprout"}, "no link"},
		{"negative duration", Spec{Scheme: "sprout", Link: "Verizon LTE", Duration: Duration(-time.Second)}, "negative duration"},
		{"negative prop delay", Spec{Scheme: "sprout", Link: "Verizon LTE", PropDelay: Duration(-20 * time.Millisecond)}, "negative prop_delay -20ms"},
		{"negative cubic prop delay", Spec{Scheme: "cubic", Link: "Verizon LTE", PropDelay: Duration(-time.Nanosecond)}, "negative prop_delay -1ns"},
		{"loss out of range", Spec{Scheme: "sprout", Link: "Verizon LTE", Loss: 1.5}, "loss rate"},
		{"negative flows", Spec{Scheme: "sprout", Link: "Verizon LTE", Flows: -2}, "negative flow count"},
		{"bad direction", Spec{Scheme: "sprout", Link: "Verizon LTE", Direction: "sideways"}, "direction"},
		{"bad confidence", Spec{Scheme: "sprout", Link: "Verizon LTE", Confidence: 2}, "confidence"},
		{"overlapping flow ids", Spec{
			Groups: []FlowGroup{
				{Scheme: "cubic", Count: 2, BaseFlow: 10},
				{Scheme: "skype", Count: 1, BaseFlow: 11},
			},
			Link: "Verizon LTE",
		}, "overlap"},
		{"tunnel client on session id", Spec{
			Groups: []FlowGroup{{Scheme: "cubic", BaseFlow: tunnelSessionDown}},
			Tunnel: true,
			Link:   "Verizon LTE",
		}, "tunnel"},
		{"codel in tunnel", Spec{Scheme: "cubic-codel", Tunnel: true, Link: "Verizon LTE"}, "CoDel inside tunnel"},
		{"flow id overflow", Spec{
			Groups: []FlowGroup{{Scheme: "cubic", Count: 10, BaseFlow: math.MaxUint32 - 2}},
			Link:   "Verizon LTE",
		}, "overflow"},
	}
	for _, c := range cases {
		_, err := c.spec.Normalize()
		if err == nil {
			t.Errorf("%s: Normalize accepted %+v", c.name, c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestParseForms accepts both the {defaults, scenarios} object form and a
// bare array, and rejects empty or invalid files.
func TestParseForms(t *testing.T) {
	specs, err := Parse(strings.NewReader(`[{"scheme": "sprout", "link": "Verizon LTE"}]`))
	if err != nil {
		t.Fatalf("bare array: %v", err)
	}
	if len(specs) != 1 || specs[0].Scheme != "sprout" {
		t.Errorf("bare array parsed to %+v", specs)
	}

	specs, err = Parse(strings.NewReader(`{
		"defaults": {"link": "AT&T LTE", "seed": 9, "duration": "35s"},
		"scenarios": [
			{"scheme": "vegas"},
			{"scheme": "cubic", "link": "Verizon LTE", "seed": 2}
		]
	}`))
	if err != nil {
		t.Fatalf("object form: %v", err)
	}
	if specs[0].Link != "AT&T LTE" || specs[0].Seed != 9 || time.Duration(specs[0].Duration) != 35*time.Second {
		t.Errorf("defaults not merged: %+v", specs[0])
	}
	if specs[1].Link != "Verizon LTE" || specs[1].Seed != 2 {
		t.Errorf("explicit fields overridden by defaults: %+v", specs[1])
	}

	// Tunnel is a per-scenario topology decision, never inherited.
	specs, err = Parse(strings.NewReader(`{
		"defaults": {"tunnel": true, "link": "Verizon LTE"},
		"scenarios": [{"scheme": "cubic"}]
	}`))
	if err != nil {
		t.Fatalf("tunnel defaults: %v", err)
	}
	if specs[0].Tunnel {
		t.Error("tunnel inherited from defaults; it must stay per-scenario")
	}

	if _, err := Parse(strings.NewReader(`{"scenarios": []}`)); err == nil {
		t.Error("empty scenario list accepted")
	}
	if _, err := Parse(strings.NewReader(`[{"seed": "seven"}]`)); err == nil ||
		!strings.Contains(err.Error(), "seed") {
		t.Errorf("bare-array type error should name the bad field, got %v", err)
	}
	if _, err := Parse(strings.NewReader(`{"scenarios": [{"scheme": "nope", "link": "Verizon LTE"}]}`)); err == nil {
		t.Error("invalid scenario accepted at parse time")
	}
	if _, err := Parse(strings.NewReader(`{`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// TestParseRejectsUnknownKeys: a key the grammar does not have fails the
// parse with the key named, at every level and in both file forms, so a
// misspelling — or the removed pf_gain — cannot silently run the default.
func TestParseRejectsUnknownKeys(t *testing.T) {
	for _, c := range []struct{ name, js, key string }{
		{"top level, bare array", `[{"scheme": "cubic", "link": "Verizon LTE", "los": 0.5}]`, "los"},
		{"top level, object form", `{"scenarios": [{"scheme": "cubic", "link": "Verizon LTE", "los": 0.5}]}`, "los"},
		{"file level", `{"defualts": {"link": "Verizon LTE"}, "scenarios": [{"scheme": "cubic"}]}`, "defualts"},
		{"defaults", `{"defaults": {"link": "Verizon LTE", "sede": 3}, "scenarios": [{"scheme": "cubic"}]}`, "sede"},
		{"cell", `[{"process": {"model": "Verizon-LTE-down"}, "feedback_process": {"model": "Verizon-LTE-up"},
		            "cell": {"schedular": "round-robin", "groups": [{"scheme": "cubic", "flows": 2}]}}]`, "schedular"},
		{"removed pf_gain", `[{"process": {"model": "Verizon-LTE-down"}, "feedback_process": {"model": "Verizon-LTE-up"},
		            "cell": {"scheduler": "proportional-fair", "pf_gain": 0.1, "groups": [{"scheme": "cubic", "flows": 2}]}}]`, "pf_gain"},
		{"process", `[{"scheme": "cubic", "process": {"model": "Verizon-LTE-down", "scael": 2},
		               "feedback_process": {"model": "Verizon-LTE-up"}}]`, "scael"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(c.js))
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(c.key)) {
				t.Fatalf("Parse = %v, want an error naming %q", err, c.key)
			}
		})
	}
}

// TestLabel pins the derived display names.
func TestLabel(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{Name: "explicit"}, "explicit"},
		{Spec{Scheme: "vegas", Link: "Verizon LTE"}, "vegas on Verizon LTE down"},
		{Spec{Scheme: "cubic", Flows: 3, Link: "AT&T LTE", Direction: "up"}, "3x cubic on AT&T LTE up"},
		{
			Spec{Groups: []FlowGroup{{Scheme: "cubic", Count: 1}, {Scheme: "skype", Count: 1}}, Tunnel: true, Link: "Verizon LTE"},
			"cubic + skype via tunnel on Verizon LTE down",
		},
	}
	for _, c := range cases {
		if got := c.spec.Label(); got != c.want {
			t.Errorf("Label() = %q, want %q", got, c.want)
		}
	}
}

// TestConfidenceSweep pins the §5.5 sweep expansion: names, values,
// validation, defaults inheritance, and the guard against running an
// unexpanded sweep.
func TestConfidenceSweep(t *testing.T) {
	s := Spec{Name: "sprout", Scheme: "sprout", Link: "Verizon LTE",
		Confidences: []float64{0.95, 0.75, 0.50, 0.25, 0.05}}
	expanded, err := s.Sweep()
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	wantNames := []string{"sprout-95%", "sprout-75%", "sprout-50%", "sprout-25%", "sprout-5%"}
	if len(expanded) != len(wantNames) {
		t.Fatalf("expanded to %d specs, want %d", len(expanded), len(wantNames))
	}
	for i, e := range expanded {
		if e.Name != wantNames[i] {
			t.Errorf("spec %d name = %q, want %q", i, e.Name, wantNames[i])
		}
		if e.Confidence != s.Confidences[i] || e.Confidences != nil {
			t.Errorf("spec %d confidence = %v / %v", i, e.Confidence, e.Confidences)
		}
		if _, err := e.Normalize(); err != nil {
			t.Errorf("spec %d does not normalize: %v", i, err)
		}
	}

	// A spec without a sweep expands to itself.
	plain := Spec{Scheme: "sprout", Link: "Verizon LTE"}
	if one, err := plain.Sweep(); err != nil || len(one) != 1 || one[0].Scheme != "sprout" {
		t.Errorf("plain spec Sweep = %+v, %v", one, err)
	}

	// Unexpanded sweeps must not reach Run.
	if _, err := s.Normalize(); err == nil || !strings.Contains(err.Error(), "Sweep") {
		t.Errorf("Normalize accepted unexpanded sweep (err %v)", err)
	}
	// Confidence and Confidences are mutually exclusive.
	bad := s
	bad.Confidence = 0.5
	if _, err := bad.Sweep(); err == nil {
		t.Error("Sweep accepted confidence + confidences")
	}
	// Sweep values outside (0, 1) fail loudly.
	bad = s
	bad.Confidences = []float64{1.0}
	if _, err := bad.Sweep(); err == nil {
		t.Error("Sweep accepted confidence 1.0")
	}

	// Names take the nearest whole percent, and two that round alike
	// are refused.
	near := s
	near.Confidences = []float64{0.28, 0.29, 0.57}
	if got, err := near.Sweep(); err != nil || len(got) != 3 ||
		got[0].Name != "sprout-28%" || got[1].Name != "sprout-29%" || got[2].Name != "sprout-57%" {
		t.Errorf("Sweep of 0.28, 0.29, 0.57 = %+v, %v; want 28, 29 and 57%%", got, err)
	}
	bad = s
	bad.Confidences = []float64{0.95, 0.951}
	if _, err := bad.Sweep(); err == nil || !strings.Contains(err.Error(), "sprout-95%") {
		t.Errorf("Sweep of 0.95, 0.951: error %v, want one naming sprout-95%%", err)
	}

	// Parse expands sweeps (inherited from defaults) into separate specs.
	specs, err := Parse(strings.NewReader(`{
		"defaults": {"link": "Verizon LTE", "confidences": [0.95, 0.05]},
		"scenarios": [{"name": "s", "scheme": "sprout"}, {"scheme": "cubic", "confidences": []}]
	}`))
	if err != nil {
		t.Fatalf("Parse sweep: %v", err)
	}
	if len(specs) != 3 {
		t.Fatalf("Parse expanded to %d specs, want 3 (sweep of 2 + plain cubic)", len(specs))
	}
	if specs[0].Name != "s-95%" || specs[1].Name != "s-5%" {
		t.Errorf("sweep names = %q, %q", specs[0].Name, specs[1].Name)
	}
	if specs[2].Confidence != 0 {
		t.Errorf("cubic picked up a confidence: %+v", specs[2])
	}
}
