package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"sprout/internal/engine"
)

// smokeGridJSON is the three-spec grid of CI's sharded-sweep smoke.
const smokeGridJSON = `{"defaults": {"link": "Verizon LTE", "duration": "2s", "skip": "500ms", "seed": 7},
  "scenarios": [{"name": "cubic down", "scheme": "cubic"}, {"name": "sprout down", "scheme": "sprout"},
                {"name": "skype up", "scheme": "skype", "direction": "up"}]}`

// FuzzSpec drives the scenario-file grammar — specs, flow groups, process
// combinators, the cell stanza, defaults merging, confidence sweeps — with
// arbitrary bytes and checks what the run paths build on:
//
//   - Parse never panics, whatever the file holds;
//   - every spec Parse returns normalizes (Parse promised it would);
//   - a normalized spec is a fixed point of the file format: written back
//     as JSON, parsed and normalized again, it is the same spec — which
//     is what lets DecodeResult and Fingerprint re-derive a sweep's specs
//     in another process and get the ones that ran.
func FuzzSpec(f *testing.F) {
	seed, err := os.ReadFile("testdata/never-ran.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	for _, js := range []string{
		// spec_test.go
		`[{"scheme": "sprout", "link": "Verizon LTE"}]`,
		`{"defaults": {"link": "AT&T LTE", "seed": 9, "duration": "35s"},
		  "scenarios": [{"scheme": "vegas"}, {"scheme": "cubic", "link": "Verizon LTE", "seed": 2}]}`,
		`{"defaults": {"tunnel": true, "link": "Verizon LTE"}, "scenarios": [{"scheme": "cubic"}]}`,
		`{"scenarios": []}`,
		`[{"seed": "seven"}]`,
		`{"scenarios": [{"scheme": "nope", "link": "Verizon LTE"}]}`,
		`{`,
		`{"defaults": {"link": "Verizon LTE", "confidences": [0.95, 0.05]},
		  "scenarios": [{"name": "s", "scheme": "sprout"}, {"scheme": "cubic", "confidences": []}]}`,
		cellGridJSON, processSpecJSON,
		// streaming_test.go's defaults-inheritance cases
		`{"defaults": {"process": {"model": "ATT-LTE-down"}, "feedback_process": {"model": "ATT-LTE-up"},
		               "duration": "2s", "skip": "1s"},
		  "scenarios": [{"scheme": "cubic"}, {"scheme": "cubic", "link": "Verizon LTE"},
		                {"scheme": "cubic", "feedback_process": {"model": "Verizon-LTE-up"}},
		                {"scheme": "cubic", "process": {"model": "Verizon-LTE-down"}}]}`,
		smokeGridJSON,
		// prop_delay out of range: refused, not run
		`[{"scheme": "cubic", "link": "Verizon LTE", "prop_delay": -0.02}]`,
		`[{"scheme": "sprout", "link": "Verizon LTE", "prop_delay": "-20ms"}]`,
		`[{"scheme": "cubic", "link": "Verizon LTE", "prop_delay": 1e12}]`,
	} {
		f.Add([]byte(js))
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		specs, err := Parse(bytes.NewReader(raw))
		if err != nil {
			return
		}
		for i, spec := range specs {
			norm, err := spec.Normalize()
			if err != nil {
				t.Fatalf("spec %d parsed but does not normalize: %v", i, err)
			}
			want, err := json.Marshal(norm)
			if err != nil {
				t.Fatalf("spec %d: marshal normalized spec: %v", i, err)
			}
			again, err := Parse(bytes.NewReader(append(append([]byte{'['}, want...), ']')))
			if err != nil {
				t.Fatalf("spec %d: normalized form %s does not parse: %v", i, want, err)
			}
			if len(again) != 1 {
				t.Fatalf("spec %d: normalized form %s parsed to %d specs", i, want, len(again))
			}
			renorm, err := again[0].Normalize()
			if err != nil {
				t.Fatalf("spec %d: normalized form %s does not normalize: %v", i, want, err)
			}
			got, err := json.Marshal(renorm)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) || renorm.Label() != norm.Label() {
				t.Fatalf("spec %d changed across marshal, parse, normalize:\nfirst  %s (%s)\nsecond %s (%s)",
					i, want, norm.Label(), got, renorm.Label())
			}
		}
	})
}

// FuzzDecodeResult drives DecodeResult, the reader of records another host
// wrote, with arbitrary indexes and payloads against a three-spec grid:
// it never panics, and a record it accepts re-encodes through EncodeResult
// and decodes to the same Result.
func FuzzDecodeResult(f *testing.F) {
	specs, err := Parse(strings.NewReader(smokeGridJSON))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(1, []byte(`{"label":"x","tput_bps":1234.5,"delay95_ns":7,"omni95_ns":3,"self95_ns":4,"mean_delay_ns":5,`+
		`"util":0.5,"delivered_bytes":99,"agg_delay95_ns":8,"jain":1,"head_drops":2,`+
		`"flows":[{"flow":1,"scheme":"cubic","tput_bps":0.1,"delay95_ns":6}]}`))
	f.Add(0, []byte(`{}`))
	f.Add(2, []byte(`{"tput_bps":-0,"flows":[]}`))
	f.Add(3, []byte(`{}`))
	f.Add(-1, []byte(`null`))
	f.Add(0, []byte(`{"tput_bps":1e999}`))
	f.Add(0, []byte(`{"flows":[{"flow":-1}]}`))
	f.Add(0, []byte(`[`))

	f.Fuzz(func(t *testing.T, idx int, data []byte) {
		res, err := DecodeResult(engine.Record{Index: idx, Data: data}, specs)
		if err != nil {
			return
		}
		rec, err := EncodeResult(idx, res)
		if err != nil {
			t.Fatalf("accepted record %d %q does not re-encode: %v", idx, data, err)
		}
		again, err := DecodeResult(rec, specs)
		if err != nil {
			t.Fatalf("re-encoded record %q does not decode: %v", rec.Data, err)
		}
		if !reflect.DeepEqual(again, res) {
			t.Fatalf("record %q decoded to %+v, re-encoded %q to %+v", data, res, rec.Data, again)
		}
	})
}
