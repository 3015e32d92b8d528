package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
	"unicode"

	"sprout/internal/trace"
)

// Duration marshals a time.Duration to JSON as a Go duration string
// ("150s") and unmarshals either that form or a bare number of seconds.
type Duration time.Duration

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "150s"-style strings or numeric seconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return fmt.Errorf("scenario: duration must be a string like \"150s\" or a number of seconds, got %s", b)
	}
	ns := secs * float64(time.Second)
	if ns < math.MinInt64 || ns >= math.MaxInt64 {
		return fmt.Errorf("scenario: duration %s seconds overflows int64 nanoseconds", b)
	}
	*d = Duration(ns)
	return nil
}

// FlowGroup is one homogeneous set of flows inside a Spec: Count flows of
// one scheme sharing the path with every other group.
type FlowGroup struct {
	// Scheme names a registered scheme.
	Scheme string `json:"scheme"`
	// Count is the number of concurrent flows; zero means 1.
	Count int `json:"count,omitempty"`
	// BaseFlow pins the first flow's id; zero auto-assigns (the
	// scheme's historical base for a lone group, sequential otherwise).
	BaseFlow uint32 `json:"base_flow,omitempty"`
}

// Spec declares one experiment: scheme(s) on a link with a workload and
// impairments. The zero value of every field means "default", so specs
// stay terse in JSON; Normalize resolves the defaults.
type Spec struct {
	// Name labels the run in results and job names; empty derives
	// "scheme on link".
	Name string `json:"name,omitempty"`
	// Scheme plus Flows is shorthand for a single FlowGroup. Ignored
	// when Groups is set.
	Scheme string `json:"scheme,omitempty"`
	// Flows is the concurrent flow count for Scheme; zero means 1.
	Flows int `json:"flows,omitempty"`
	// Groups lists heterogeneous flow groups (e.g. a Cubic bulk flow
	// competing with a Skype call).
	Groups []FlowGroup `json:"groups,omitempty"`

	// Link names a canonical network ("Verizon LTE", "T-Mobile 3G
	// (UMTS)", ...); Direction is "down" (default) or "up". Ignored when
	// DataTrace/FeedbackTrace are set directly.
	Link      string `json:"link,omitempty"`
	Direction string `json:"direction,omitempty"`

	// Process streams the data-direction delivery opportunities from a
	// composable on-demand process (§3.1 models, handover schedules,
	// outage windows, rate scaling) instead of a materialized trace: runs
	// may exceed any canonical trace length at O(1) trace memory.
	// FeedbackProcess drives the reverse direction; when it is nil, Link
	// must be set and the canonical pair's opposite-direction model is
	// used. Mutually exclusive with DataTrace/FeedbackTrace.
	Process         *ProcessSpec `json:"process,omitempty"`
	FeedbackProcess *ProcessSpec `json:"feedback_process,omitempty"`

	// Loss applies Bernoulli tail-drop loss on both directions (§5.6).
	Loss float64 `json:"loss,omitempty"`
	// CoDel overrides the scheme's AQM default: nil keeps it (only
	// cubic-codel runs under CoDel), true/false force it on or off.
	CoDel *bool `json:"codel,omitempty"`
	// Tunnel carries the client flows through SproutTunnel (§4.3/§5.7)
	// instead of placing them directly on the link.
	Tunnel bool `json:"tunnel,omitempty"`
	// Cell shares ONE delivery process per cell across many flows through
	// an opportunity scheduler (demand-coupled cell world), instead of a
	// private link per flow. Mutually exclusive with Scheme/Flows/Groups
	// and Tunnel; requires Process.
	Cell *CellSpec `json:"cell,omitempty"`

	// Duration and Skip default to 150 s / 30 s; PropDelay to 20 ms.
	Duration  Duration `json:"duration,omitempty"`
	Skip      Duration `json:"skip,omitempty"`
	PropDelay Duration `json:"prop_delay,omitempty"`
	// Confidence overrides Sprout's forecast confidence (§5.5).
	Confidence float64 `json:"confidence,omitempty"`
	// Confidences declares a §5.5 confidence sweep: the spec expands
	// (via Sweep, which Parse applies) into one run per value, named
	// "<label>-<pct>%". Mutually exclusive with Confidence; a spec
	// reaching Run must already be expanded.
	Confidences []float64 `json:"confidences,omitempty"`
	// Seed drives trace generation and every stochastic component; zero
	// means 1.
	Seed int64 `json:"seed,omitempty"`

	// DataTrace and FeedbackTrace inject traces directly (custom
	// mahimahi captures, or pairs shared across specs); when set, Link
	// and Direction are ignored.
	DataTrace     *trace.Trace `json:"-"`
	FeedbackTrace *trace.Trace `json:"-"`
	// KeepDeliveries retains the raw data-direction delivery log on the
	// Result, for timeseries experiments (Figure 1). Off by default so
	// large suites do not hold every run's log until assembly.
	KeepDeliveries bool `json:"-"`
}

// File is the on-disk scenario format: optional defaults merged into each
// scenario. LoadFile also accepts a bare JSON array of specs.
type File struct {
	// Defaults seeds every scenario's zero-valued fields. Merging is by
	// zero value: a scenario cannot override a non-zero default back to
	// zero (e.g. loss 0 under a defaults loss) — omit the default and
	// set the field per scenario instead. Tunnel is never inherited.
	Defaults Spec `json:"defaults,omitempty"`
	// Scenarios is the list to run.
	Scenarios []Spec `json:"scenarios"`
}

// Label returns the spec's display name, deriving one when unset.
func (s Spec) Label() string {
	if s.Name != "" {
		return s.Name
	}
	var label string
	if s.Cell != nil {
		label = s.Cell.label()
	} else {
		var schemes []string
		for _, g := range s.groups() {
			name := g.Scheme
			if g.Count > 1 {
				name = fmt.Sprintf("%dx %s", g.Count, name)
			}
			schemes = append(schemes, name)
		}
		label = strings.Join(schemes, " + ")
	}
	if s.Tunnel {
		label += " via tunnel"
	}
	if s.Process != nil {
		return label + " on " + s.Process.Label()
	}
	where := s.Link
	if where == "" && s.DataTrace != nil {
		where = s.DataTrace.Name
	}
	if where != "" {
		dir := s.Direction
		if dir == "" {
			dir = "down"
		}
		label += " on " + where + " " + dir
	}
	return label
}

// groups returns the flow groups with the Scheme/Flows shorthand expanded
// (counts still unnormalized).
func (s Spec) groups() []FlowGroup {
	if len(s.Groups) > 0 {
		return s.Groups
	}
	return []FlowGroup{{Scheme: s.Scheme, Count: s.Flows}}
}

// Normalize validates the spec and resolves every default: flow groups and
// counts, flow-id assignment, durations, link resolution. The returned
// spec is what Run executes and what Result reports.
func (s Spec) Normalize() (Spec, error) {
	out := s
	if out.Cell != nil {
		if s.Scheme != "" || s.Flows != 0 || len(s.Groups) > 0 {
			return Spec{}, fmt.Errorf("scenario: cell specs carry their own groups; top-level scheme/flows/groups must be empty")
		}
		out.Groups = nil
	} else {
		out.Groups = append([]FlowGroup(nil), s.groups()...)
	}
	out.Scheme, out.Flows = "", 0

	if out.Duration == 0 {
		out.Duration = Duration(150 * time.Second)
	}
	if out.Skip == 0 {
		out.Skip = Duration(30 * time.Second)
	}
	if out.PropDelay == 0 {
		out.PropDelay = Duration(20 * time.Millisecond)
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.Duration < 0 {
		return Spec{}, fmt.Errorf("scenario: negative duration %v", time.Duration(out.Duration))
	}
	if out.PropDelay < 0 {
		return Spec{}, fmt.Errorf("scenario: negative prop_delay %v", time.Duration(out.PropDelay))
	}
	if out.Skip < 0 || out.Skip > out.Duration {
		return Spec{}, fmt.Errorf("scenario: skip %v outside run duration %v",
			time.Duration(out.Skip), time.Duration(out.Duration))
	}
	if out.Loss < 0 || out.Loss >= 1 {
		return Spec{}, fmt.Errorf("scenario: loss rate %v outside [0, 1)", out.Loss)
	}
	if out.Confidence < 0 || out.Confidence >= 1 {
		return Spec{}, fmt.Errorf("scenario: confidence %v outside [0, 1)", out.Confidence)
	}
	if len(out.Confidences) > 0 {
		// Running an unexpanded sweep would silently take only the
		// zero-value default; the caller forgot to expand via Sweep.
		return Spec{}, fmt.Errorf("scenario: confidences sweep must be expanded with Sweep before running")
	}

	if out.Cell != nil {
		if err := out.normalizeCell(); err != nil {
			return Spec{}, err
		}
	}

	// Resolve schemes and flow ids. A lone auto-placed group keeps its
	// scheme's historical base flow; otherwise ids are assigned
	// sequentially past the tunnel's reserved session ids.
	next := uint32(autoFlowStart)
	for i := range out.Groups {
		g := &out.Groups[i]
		scheme, ok := Lookup(g.Scheme)
		if !ok {
			return Spec{}, unknownSchemeError(g.Scheme)
		}
		if g.Count == 0 {
			g.Count = 1
		}
		if g.Count < 0 {
			return Spec{}, fmt.Errorf("scenario: %s: negative flow count %d", g.Scheme, g.Count)
		}
		if uint64(g.BaseFlow)+uint64(g.Count) > math.MaxUint32 {
			// Unchecked, the id arithmetic below would wrap uint32 and
			// alias flows past the overlap check.
			return Spec{}, fmt.Errorf("scenario: %s: flow ids %d+%d overflow", g.Scheme, g.BaseFlow, g.Count)
		}
		if g.BaseFlow == 0 {
			if len(out.Groups) == 1 && !out.Tunnel {
				g.BaseFlow = scheme.BaseFlow
			} else {
				g.BaseFlow = next
			}
		}
		if end := g.BaseFlow + uint32(g.Count); end > next {
			next = end
		}
		if out.Tunnel && g.BaseFlow <= tunnelSessionUp {
			return Spec{}, fmt.Errorf("scenario: %s: tunnel client flows must use ids > %d (ids %d and %d are the tunnel sessions)",
				g.Scheme, tunnelSessionUp, tunnelSessionDown, tunnelSessionUp)
		}
	}
	if out.Tunnel && out.useCoDel() {
		// The tunnel's queues are the ingress per-flow queues with
		// forecast-bounded head drops (§4.3), not the link FIFOs an AQM
		// would govern; silently dropping the AQM request would
		// mislabel results.
		return Spec{}, fmt.Errorf("scenario: CoDel inside tunnel mode is not supported (the tunnel ingress manages its own queues)")
	}
	for i, g := range out.Groups {
		for j := 0; j < i; j++ {
			p := out.Groups[j]
			if g.BaseFlow < p.BaseFlow+uint32(p.Count) && p.BaseFlow < g.BaseFlow+uint32(g.Count) {
				return Spec{}, fmt.Errorf("scenario: flow-id ranges of %s and %s overlap", p.Scheme, g.Scheme)
			}
		}
	}

	// Resolve the link unless traces are injected directly or the run
	// streams its opportunities from a declared process.
	if out.Process == nil && (out.DataTrace == nil || out.FeedbackTrace == nil) {
		if out.DataTrace != nil || out.FeedbackTrace != nil {
			return Spec{}, fmt.Errorf("scenario: DataTrace and FeedbackTrace must be set together")
		}
		if out.Link == "" {
			return Spec{}, fmt.Errorf("scenario: no link named, no traces injected and no process declared")
		}
		if _, ok := trace.LookupNetwork(out.Link); !ok {
			return Spec{}, unknownLinkError(out.Link)
		}
	}
	switch out.Direction {
	case "":
		out.Direction = "down"
	case "down", "up":
	default:
		return Spec{}, fmt.Errorf("scenario: direction must be \"down\" or \"up\", got %q", out.Direction)
	}

	// Resolve the streaming-process pair.
	if out.Process == nil {
		if out.FeedbackProcess != nil {
			return Spec{}, fmt.Errorf("scenario: feedback_process without process")
		}
		return out, nil
	}
	if out.DataTrace != nil || out.FeedbackTrace != nil {
		return Spec{}, fmt.Errorf("scenario: process and injected traces are mutually exclusive")
	}
	if out.Link != "" {
		// The link only supplies the derived feedback model here, but a
		// typo must fail as loudly as it does on a materialized spec.
		if _, ok := trace.LookupNetwork(out.Link); !ok {
			return Spec{}, unknownLinkError(out.Link)
		}
	}
	if err := out.Process.validate(); err != nil {
		return Spec{}, fmt.Errorf("process: %w", err)
	}
	if out.FeedbackProcess == nil {
		// Derive the reverse direction from the named network, mirroring
		// the trace pair a (Link, Direction) spec would get.
		if out.Link == "" {
			return Spec{}, fmt.Errorf("scenario: process needs a feedback_process, or a link to derive one from")
		}
		pair, ok := trace.LookupNetwork(out.Link)
		if !ok {
			return Spec{}, unknownLinkError(out.Link)
		}
		m := pair.Up
		if out.Direction == "up" {
			m = pair.Down
		}
		out.FeedbackProcess = &ProcessSpec{Model: m.Name}
	}
	if err := out.FeedbackProcess.validate(); err != nil {
		return Spec{}, fmt.Errorf("feedback_process: %w", err)
	}
	return out, nil
}

// Sweep expands the spec's Confidences into one spec per value — each a
// copy with Confidence set and named "<label>-<pct>%" by the nearest
// whole percent, the §5.5 sweep convention (Fig9's "sprout-95%" ...
// "sprout-5%"). Two confidences that round to one name are an error: no
// report could tell their runs apart. A spec without
// Confidences expands to itself. Every expanded spec shares the parent's
// traces, so a suite can hand the whole sweep to RunAll and the runs
// proceed in parallel over one trace pair.
func (s Spec) Sweep() ([]Spec, error) {
	if len(s.Confidences) == 0 {
		return []Spec{s}, nil
	}
	if s.Confidence != 0 {
		return nil, fmt.Errorf("scenario: confidence and confidences are mutually exclusive")
	}
	base := s.Label()
	out := make([]Spec, 0, len(s.Confidences))
	for _, conf := range s.Confidences {
		if conf <= 0 || conf >= 1 {
			return nil, fmt.Errorf("scenario: sweep confidence %v outside (0, 1)", conf)
		}
		e := s
		e.Confidences = nil
		e.Confidence = conf
		e.Name = fmt.Sprintf("%s-%d%%", base, int(math.Round(conf*100)))
		for _, prev := range out {
			if prev.Name == e.Name {
				return nil, fmt.Errorf("scenario: sweep confidences %v and %v are both named %q", prev.Confidence, conf, e.Name)
			}
		}
		out = append(out, e)
	}
	return out, nil
}

// merged returns s with zero-valued fields filled from the file defaults.
func (s Spec) merged(def Spec) Spec {
	if s.Cell == nil && s.Scheme == "" && len(s.Groups) == 0 {
		// A spec with no topology of its own inherits the defaults' —
		// a cell layout or the flow groups, whichever the defaults carry.
		s.Cell = def.Cell
		if s.Cell == nil {
			s.Scheme, s.Flows, s.Groups = def.Scheme, def.Flows, def.Groups
		}
	}
	if s.Process == nil && s.Link == "" && def.Process != nil {
		// A spec that names its own link keeps it; otherwise a defaults
		// process streams for every scenario in the file.
		s.Process = def.Process
	}
	if s.Process != nil && s.FeedbackProcess == nil {
		// Field-wise, like every other default: a scenario's own
		// feedback_process survives, the missing half is inherited —
		// also when the scenario declared its own process.
		s.FeedbackProcess = def.FeedbackProcess
	}
	if s.Link == "" {
		s.Link = def.Link
	}
	if s.Direction == "" {
		s.Direction = def.Direction
	}
	if s.Loss == 0 {
		s.Loss = def.Loss
	}
	if s.CoDel == nil {
		s.CoDel = def.CoDel
	}
	// Tunnel is deliberately not inherited: it is a per-scenario topology
	// decision, and a bool can't distinguish an explicit false from
	// unset, so a default would be impossible to override.
	if s.Duration == 0 {
		s.Duration = def.Duration
	}
	if s.Skip == 0 {
		s.Skip = def.Skip
	}
	if s.PropDelay == 0 {
		s.PropDelay = def.PropDelay
	}
	if s.Confidence == 0 {
		s.Confidence = def.Confidence
	}
	if s.Confidences == nil {
		s.Confidences = def.Confidences
	}
	if s.Seed == 0 {
		s.Seed = def.Seed
	}
	return s
}

// Parse reads a scenario file: either a {"defaults": ..., "scenarios":
// [...]} object or a bare JSON array of specs. A key the grammar does not
// have is an error naming it, so a misspelling cannot silently run the
// default. Defaults are merged, and every spec is validated via Normalize
// (the returned specs are the un-normalized merged forms, so Run
// re-derives defaults consistently).
func Parse(r io.Reader) ([]Spec, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	// Decode against the shape the file actually has, so a type error
	// inside a spec surfaces as itself rather than as a shape mismatch
	// against the other form.
	var f File
	var dst any = &f
	if bytes.HasPrefix(bytes.TrimLeftFunc(raw, unicode.IsSpace), []byte("[")) {
		dst = &f.Scenarios
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("scenario: parse: data after the top-level value")
	}
	if len(f.Scenarios) == 0 {
		return nil, fmt.Errorf("scenario: no scenarios in file")
	}
	specs := make([]Spec, 0, len(f.Scenarios))
	for i, s := range f.Scenarios {
		merged := s.merged(f.Defaults)
		expanded, err := merged.Sweep()
		if err != nil {
			return nil, fmt.Errorf("scenario %d (%s): %w", i, merged.Label(), err)
		}
		for _, e := range expanded {
			if _, err := e.Normalize(); err != nil {
				return nil, fmt.Errorf("scenario %d (%s): %w", i, e.Label(), err)
			}
			specs = append(specs, e)
		}
	}
	return specs, nil
}

// LoadFile parses the scenario file at path.
func LoadFile(path string) ([]Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}
