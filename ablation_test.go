package sprout_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"sprout/internal/core"
	"sprout/internal/metrics"
	"sprout/internal/scenario"
	"sprout/internal/transport"
)

// The §5.5 ablations (DESIGN.md §5.5) as findings. Each design constant
// the paper froze is varied one at a time, every variant a scheme of its
// own on the one run path, over ten seeds; a finding is the direction a
// variant moves throughput or self-inflicted delay against the default,
// asserted on at least nine seeds in ten, with its pass rate logged.

// ablation is one variant of Sprout: the model parameters, the sender's
// lookahead and the receiver's observation rule it runs with.
type ablation struct {
	name      string
	params    core.Params
	lookahead int
	literal   bool
}

var ablations = []ablation{
	{name: "default"},
	{name: "tick-10ms", params: core.Params{Tick: 10 * time.Millisecond}},
	{name: "tick-40ms", params: core.Params{Tick: 40 * time.Millisecond}},
	{name: "bins-64", params: core.Params{NumBins: 64}},
	{name: "bins-512", params: core.Params{NumBins: 512}},
	{name: "sigma-50", params: core.Params{Sigma: 50}},
	{name: "sigma-800", params: core.Params{Sigma: 800}},
	{name: "lookahead-3", lookahead: 3},
	{name: "lookahead-8", lookahead: 8},
	{name: "literal-skip", literal: true},
}

func init() {
	for _, a := range ablations {
		scenario.Register(scenario.Scheme{
			Name:        "ablate/" + a.name,
			Description: "Sprout, " + a.name + " (§5.5 ablation)",
			Extra:       true,
			New:         a.attach,
		})
	}
}

// attach builds the variant's Sprout endpoints. The sender ticks with the
// model, as the receiver's forecasts do.
func (a ablation) attach(cfg scenario.AttachConfig) (scenario.Endpoint, error) {
	rcv := transport.NewReceiver(transport.ReceiverConfig{
		Flow: cfg.Flow, Clock: cfg.Clock, Conn: cfg.FeedbackConn, Pool: cfg.Packets,
		Forecaster:  core.NewDeliveryForecaster(core.NewModel(a.params)),
		LiteralSkip: a.literal,
	})
	snd := transport.NewSender(transport.SenderConfig{
		Flow: cfg.Flow, Clock: cfg.Clock, Conn: cfg.DataConn, Pool: cfg.Packets,
		Tick: a.params.Tick, LookaheadTicks: a.lookahead,
	})
	return scenario.Endpoint{Data: rcv.Receive, Feedback: snd.Receive}, nil
}

// finding is one per-seed predicate over the variants' metrics.
type finding struct {
	claim string
	holds func(m map[string]metrics.Result) bool
}

// rising reports whether f strictly increases along the named variants.
func rising(f func(metrics.Result) float64, names ...string) func(map[string]metrics.Result) bool {
	return func(m map[string]metrics.Result) bool {
		for i := 1; i < len(names); i++ {
			if f(m[names[i-1]]) >= f(m[names[i]]) {
				return false
			}
		}
		return true
	}
}

func tput(r metrics.Result) float64  { return r.ThroughputBps }
func delay(r metrics.Result) float64 { return float64(r.SelfInflicted95) }

var findings = []finding{
	{"longer tick, more throughput", rising(tput, "tick-10ms", "default", "tick-40ms")},
	{"longer tick, more delay", rising(delay, "tick-10ms", "default", "tick-40ms")},
	{"larger σ, less throughput", rising(tput, "sigma-800", "default", "sigma-50")},
	{"larger σ, less delay", rising(delay, "sigma-800", "default", "sigma-50")},
	{"longer lookahead, more throughput", rising(tput, "lookahead-3", "default", "lookahead-8")},
	{"longer lookahead, more delay", rising(delay, "lookahead-3", "default", "lookahead-8")},
	{"literal skip, less throughput", rising(tput, "literal-skip", "default")},
	{"literal skip, less delay", rising(delay, "literal-skip", "default")},
	{"64 or 512 bins, throughput within 5 %", func(m map[string]metrics.Result) bool {
		base := tput(m["default"])
		return math.Abs(tput(m["bins-64"])/base-1) <= 0.05 && math.Abs(tput(m["bins-512"])/base-1) <= 0.05
	}},
}

// TestAblations runs every variant on the Verizon LTE downlink, 60 s with
// 15 s of warmup, at seeds 1–10 (1–3 under -short) in one RunAll, and
// asserts each finding on all but one seed in ten (every seed under
// -short).
func TestAblations(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	var specs []scenario.Spec
	for seed := 1; seed <= seeds; seed++ {
		for _, a := range ablations {
			specs = append(specs, scenario.Spec{
				Scheme: "ablate/" + a.name, Link: "Verizon LTE", Direction: "down",
				Duration: scenario.Duration(60 * time.Second), Skip: scenario.Duration(15 * time.Second),
				Seed: int64(seed),
			})
		}
	}
	results, _, err := scenario.RunAll(context.Background(), specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	bySeed := make([]map[string]metrics.Result, seeds)
	for i, r := range results {
		s := i / len(ablations)
		if bySeed[s] == nil {
			bySeed[s] = map[string]metrics.Result{}
		}
		bySeed[s][ablations[i%len(ablations)].name] = r.Metrics
	}

	var table strings.Builder
	fmt.Fprintf(&table, "%-13s %14s %14s\n", "variant", "median kbps", "median ms")
	for _, a := range ablations {
		var kbps, ms []float64
		for _, m := range bySeed {
			kbps = append(kbps, tput(m[a.name])/1000)
			ms = append(ms, delay(m[a.name])/float64(time.Millisecond))
		}
		fmt.Fprintf(&table, "%-13s %14.0f %14.1f\n", a.name, median(kbps), median(ms))
	}
	t.Logf("self-inflicted delay is the 95th percentile; %d seeds\n%s", seeds, table.String())

	need := seeds - seeds/10
	for _, f := range findings {
		var failed []int
		for s, m := range bySeed {
			if !f.holds(m) {
				failed = append(failed, s+1)
			}
		}
		pass := seeds - len(failed)
		t.Logf("%-40s %2d/%d seeds (failing: %v)", f.claim, pass, seeds, failed)
		if pass < need {
			t.Errorf("%s: held on %d of %d seeds, want at least %d", f.claim, pass, seeds, need)
		}
	}
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
