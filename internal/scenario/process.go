package scenario

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"sprout/internal/trace"
)

// ProcessSpec is the JSON grammar for a streaming delivery process: the
// §3.1 link models composed with the trace-package combinators, declared
// instead of materialized. A spec names exactly one core —
//
//	{"model": "Verizon-LTE-down"}
//	{"handover": [{"model": "Verizon-LTE-down", "until": "40s"},
//	              {"model": "TMobile-3G-down"}]}
//
// — optionally wrapped by modifiers, applied core → scale → outages. At
// the top level, outage windows are expressed in run time:
//
//	{"model": "ATT-LTE-up", "scale": 1.5,
//	 "outages": [{"start": "60s", "end": "63s"}]}
//
// Handover stages nest the full grammar, so a stage can itself be scaled
// or have outages. A stage describes its cell's own timeline, starting
// at the handover instant: times nested inside a stage — its outage
// windows and any inner "until" boundaries — are relative to the stage's
// start, not to the run ({"start": "2s"} inside a stage beginning at 4s
// means run time 6s). Compiled processes are small state machines: a run
// of any duration holds O(1) trace memory, and each link of a worker's
// world keeps the instance it compiled, Resetting it per run (the engine
// cache never sees a materialized trace for streaming specs).
type ProcessSpec struct {
	// Model names a canonical link model (trace.CanonicalLinks), e.g.
	// "Verizon-LTE-down". Exactly one of Model and Handover must be set.
	Model string `json:"model,omitempty"`
	// Handover switches between nested processes on a schedule, modeling
	// cell transitions. Every stage but the last needs "until".
	Handover []HandoverStage `json:"handover,omitempty"`
	// Scale multiplies the core's delivery rate (0 means unscaled).
	Scale float64 `json:"scale,omitempty"`
	// Outages forces zero-rate windows, sorted and non-overlapping — in
	// run time at the top level, in stage time inside a handover stage.
	Outages []OutageWindow `json:"outages,omitempty"`
}

// HandoverStage is one leg of a handover schedule: the nested process
// grammar plus the absolute time the stage ends ("until"; omit on the
// final stage to run forever).
type HandoverStage struct {
	ProcessSpec
	Until Duration `json:"until,omitempty"`
}

// OutageWindow is one [start, end) window of forced outage.
type OutageWindow struct {
	Start Duration `json:"start"`
	End   Duration `json:"end"`
}

// ModelNames lists what ProcessSpec.Model can name (the canonical link
// models), the process-grammar sibling of NetworkNames.
func ModelNames() []string {
	var names []string
	for _, m := range trace.CanonicalLinks() {
		names = append(names, m.Name)
	}
	return names
}

// compile validates the spec and builds a fresh DeliveryProcess instance.
// Compiled instances are cheap (no trace is materialized); a world's link
// keeps the one it compiled until a run brings another spec.
func (p *ProcessSpec) compile() (trace.DeliveryProcess, error) {
	var core trace.DeliveryProcess
	switch {
	case p.Model != "" && len(p.Handover) > 0:
		return nil, fmt.Errorf("scenario: process declares both \"model\" and \"handover\"; pick one core")
	case p.Model != "":
		m, ok := trace.CanonicalLink(p.Model)
		if !ok {
			return nil, fmt.Errorf("scenario: unknown link model %q (models: %v)", p.Model, ModelNames())
		}
		core = m.Process()
	case len(p.Handover) > 0:
		stages := make([]trace.HandoverStage, len(p.Handover))
		for i := range p.Handover {
			s := &p.Handover[i]
			inner, err := s.ProcessSpec.compile()
			if err != nil {
				return nil, fmt.Errorf("handover stage %d: %w", i, err)
			}
			stages[i] = trace.HandoverStage{Process: inner, Until: time.Duration(s.Until)}
		}
		h, err := trace.NewHandover(stages)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		core = h
	default:
		return nil, fmt.Errorf("scenario: process needs a \"model\" or \"handover\" core")
	}
	if p.Scale != 0 {
		s, err := trace.NewScale(core, p.Scale)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		core = s
	}
	if len(p.Outages) > 0 {
		ws := make([]trace.Window, len(p.Outages))
		for i, w := range p.Outages {
			ws[i] = trace.Window{Start: time.Duration(w.Start), End: time.Duration(w.End)}
		}
		o, err := trace.NewOutage(core, ws)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		core = o
	}
	return core, nil
}

// equal reports whether q compiles to the process p does: the same core,
// scale and outages, stage for stage.
func (p *ProcessSpec) equal(q *ProcessSpec) bool {
	if p.Model != q.Model || p.Scale != q.Scale || !slices.Equal(p.Outages, q.Outages) ||
		len(p.Handover) != len(q.Handover) {
		return false
	}
	for i := range p.Handover {
		a, b := &p.Handover[i], &q.Handover[i]
		if a.Until != b.Until || !a.ProcessSpec.equal(&b.ProcessSpec) {
			return false
		}
	}
	return true
}

// clone returns a copy of p that shares no storage with it.
func (p *ProcessSpec) clone() ProcessSpec {
	c := *p
	c.Outages = slices.Clone(p.Outages)
	if p.Handover != nil {
		c.Handover = make([]HandoverStage, len(p.Handover))
		for i, s := range p.Handover {
			c.Handover[i] = HandoverStage{ProcessSpec: s.ProcessSpec.clone(), Until: s.Until}
		}
	}
	return c
}

// validate checks the spec without keeping the compiled instance.
func (p *ProcessSpec) validate() error {
	_, err := p.compile()
	return err
}

// Label renders a compact human-readable name for reports.
func (p *ProcessSpec) Label() string {
	var base string
	switch {
	case p.Model != "":
		base = p.Model
	case len(p.Handover) > 0:
		names := make([]string, len(p.Handover))
		for i := range p.Handover {
			names[i] = p.Handover[i].ProcessSpec.Label()
		}
		base = "handover(" + strings.Join(names, " > ") + ")"
	default:
		base = "process"
	}
	if p.Scale != 0 && p.Scale != 1 {
		base = fmt.Sprintf("%s x%g", base, p.Scale)
	}
	if len(p.Outages) > 0 {
		plural := "s"
		if len(p.Outages) == 1 {
			plural = ""
		}
		base = fmt.Sprintf("%s +%d outage%s", base, len(p.Outages), plural)
	}
	return base
}
