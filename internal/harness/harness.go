// Package harness states the paper's evaluation (§5) once, as a table: per
// experiment its -run key, its title, the scenario specs it needs as a
// function of Options, and a renderer from those specs' results to the
// text sproutbench prints (Suite). Run compiles any selection of rows into
// one job set and one engine run. The scheme constructors, path emulation
// and spec-to-job compilation live in internal/scenario; the parallel
// execution in internal/engine.
package harness

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"sprout/internal/engine"
	"sprout/internal/scenario"
)

// Options parameterizes the suite's specs.
type Options struct {
	// Duration and Skip per run. Zero takes the defaults (150 s / 30 s:
	// the paper skips the first minute of 17-minute runs; the synthetic
	// traces are stationary, so shorter runs with a proportional skip
	// estimate the same steady state).
	Duration, Skip time.Duration
	// Seed drives trace generation and all stochastic components.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Duration == 0 {
		o.Duration = 150 * time.Second
	}
	if o.Skip == 0 {
		o.Skip = 30 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// baseSpec seeds a scenario spec with the suite-wide options; builders
// fill in scheme, link and impairments.
func (o Options) baseSpec() scenario.Spec {
	return scenario.Spec{
		Duration: scenario.Duration(o.Duration),
		Skip:     scenario.Duration(o.Skip),
		Seed:     o.Seed,
	}
}

// Schemes returns the paper's scheme names, in the order its figures list
// them, from the scenario registry.
func Schemes() []string { return scenario.PaperSchemes() }

// Experiment is one row of the suite: a table or figure of the paper.
type Experiment struct {
	// Key selects the row from sproutbench's -run list.
	Key string
	// Title heads the row's section of the output.
	Title string
	// specs builds the row's jobs. Every spec names its link (Link,
	// Direction), never an injected trace, so one trace cache serves the
	// whole suite. Nil for Figure 2, which is trace statistics.
	specs func(Options) []scenario.Spec
	// grid, when set, names a job list several rows render from; Run
	// compiles it once for all of them.
	grid string
	// render turns the results of the row's specs, in spec order, into
	// the section body.
	render func(Options, []scenario.Result) (string, error)
}

// Suite is the paper's evaluation in print order. Tables 1/2 and Figures
// 7/8 are four views of one schemes × links grid.
var Suite = []Experiment{
	{Key: "fig1", Title: "Figure 1: Skype vs Sprout on the Verizon LTE downlink (per-second series)",
		specs: fig1Specs, render: renderFig1},
	{Key: "fig2", Title: "Figure 2: interarrival distribution, saturated Verizon LTE downlink",
		render: renderFig2},
	{Key: "table1", Title: "Table 1: average speedup and delay reduction of Sprout vs each scheme",
		specs: matrixGrid, grid: "matrix", render: renderTable1},
	{Key: "table2", Title: "Table 2: Sprout-EWMA vs Sprout, Cubic, Cubic-CoDel",
		specs: matrixGrid, grid: "matrix", render: renderTable2},
	{Key: "fig7", Title: "Figure 7: throughput vs self-inflicted delay per link",
		specs: matrixGrid, grid: "matrix", render: renderFig7},
	{Key: "fig8", Title: "Figure 8: average utilization vs average self-inflicted delay",
		specs: matrixGrid, grid: "matrix", render: renderFig8},
	{Key: "fig9", Title: "Figure 9: confidence-parameter sweep on the T-Mobile 3G uplink",
		specs: fig9Specs, render: renderFig9},
	{Key: "loss", Title: "Section 5.6: Sprout loss resilience on Verizon LTE",
		specs: lossSpecs, render: renderLoss},
	{Key: "tunnel", Title: "Section 5.7: Cubic + Skype, direct vs via SproutTunnel (Verizon LTE downlink)",
		specs: tunnelSpecs, render: renderTunnel},
	{Key: "multi", Title: "Extension (§7 open question): two Sprouts sharing one queue (Verizon LTE downlink)",
		specs: multiSpecs, render: renderMulti},
}

// Select resolves a comma-separated -run list ("all", or Suite keys) to
// rows in Suite order. Any unknown key is an error naming the valid ones.
func Select(list string) ([]Experiment, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		known := func(row Experiment) bool { return row.Key == name }
		if name != "all" && !slices.ContainsFunc(Suite, known) {
			keys := make([]string, len(Suite))
			for i, row := range Suite {
				keys[i] = row.Key
			}
			return nil, fmt.Errorf("unknown experiment %q (valid: %s or all)", name, strings.Join(keys, ","))
		}
		want[name] = true
	}
	var rows []Experiment
	for _, row := range Suite {
		if want["all"] || want[row.Key] {
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Run executes rows as one job set: their spec lists concatenated (a grid
// several rows share, once), compiled and run in a single engine.Run on
// eng over traces, then each row rendered from its slice of the results.
// It returns one section of text per row, in the order given. Results do
// not depend on the engine's worker count or on which other rows ran.
func Run(ctx context.Context, eng *engine.Engine, traces *engine.Cache, rows []Experiment, opt Options) ([]string, engine.Stats, error) {
	opt = opt.withDefaults()
	var specs []scenario.Spec
	spans := make([][2]int, len(rows))
	grids := map[string][2]int{}
	for i, row := range rows {
		if row.specs == nil {
			continue
		}
		span, shared := grids[row.grid]
		if !shared {
			own := row.specs(opt)
			span = [2]int{len(specs), len(specs) + len(own)}
			specs = append(specs, own...)
			if row.grid != "" {
				grids[row.grid] = span
			}
		}
		spans[i] = span
	}
	results, stats, err := scenario.RunOn(ctx, eng, specs, traces)
	if err != nil {
		return nil, stats, err
	}
	sections := make([]string, len(rows))
	for i, row := range rows {
		body, err := row.render(opt, results[spans[i][0]:spans[i][1]])
		if err != nil {
			return nil, stats, fmt.Errorf("%s: %w", row.Key, err)
		}
		sections[i] = fmt.Sprintf("\n==== %s ====\n%s", row.Title, body)
	}
	return sections, stats, nil
}
