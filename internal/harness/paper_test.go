package harness

import (
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"sprout/internal/engine"
	"sprout/internal/scenario"
)

// paperAnchors is testdata/paper.json: what the paper states about the
// tables the suite prints, each entry cited by table or section. It holds
// only numbers and orderings with provenance, and none that another test
// already checks (Figure 9's trend and §5.6 live in
// TestFig9ConfidenceSweepShape and TestLossTableShape).
type paperAnchors struct {
	Paper string `json:"paper"`
	// Multiple bounds each factor: measured/paper lies in
	// [1/Multiple, Multiple].
	Multiple    float64 `json:"multiple"`
	MultipleWhy string  `json:"multiple_why"`
	// Ratios are Table 1 rows as the abstract quotes them: Sprout's
	// throughput over the scheme's ("avg speedup vs sprout") and the
	// scheme's self-inflicted delay over Sprout's ("delay reduction").
	Ratios []struct {
		Scheme         string  `json:"scheme"`
		Speedup        float64 `json:"speedup"`
		DelayReduction float64 `json:"delay_reduction"`
		Cite           string  `json:"cite"`
	} `json:"ratios"`
	// DelayExtremes names Table 1's lowest and highest average
	// self-inflicted delay.
	DelayExtremes struct {
		Lowest  string `json:"lowest"`
		Highest string `json:"highest"`
		Cite    string `json:"cite"`
	} `json:"delay_extremes"`
	// Tradeoff is Table 2's ordering: Faster gets more throughput than
	// Slower, at more delay.
	Tradeoff struct {
		Faster string `json:"faster"`
		Slower string `json:"slower"`
		Cite   string `json:"cite"`
	} `json:"tradeoff"`
}

func loadPaperAnchors(t *testing.T) paperAnchors {
	t.Helper()
	f, err := os.Open("testdata/paper.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var a paperAnchors
	if err := dec.Decode(&a); err != nil {
		t.Fatalf("testdata/paper.json: %v", err)
	}
	if a.Multiple <= 1 || len(a.Ratios) == 0 {
		t.Fatalf("testdata/paper.json: multiple %v, %d ratios", a.Multiple, len(a.Ratios))
	}
	return a
}

// TestPaperAnchors checks Tables 1 and 2 at sproutbench's defaults
// (150 s runs, 30 s skip, seed 1) against the paper's own statements.
// Orderings and the direction of every ratio are exact; each factor
// holds within the file's stated multiple, with the measured factors
// logged.
func TestPaperAnchors(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 80-job default grid; skipped with -short")
	}
	a := loadPaperAnchors(t)
	schemes := scenario.PaperSchemes()
	specs, _ := MatrixSpecs(Options{}, schemes)
	results, _, err := scenario.RunOn(t.Context(), engine.New(0), specs, engine.NewCache())
	if err != nil {
		t.Fatal(err)
	}
	m := matrixOf(schemes, results)
	table1 := map[string]summaryRow{}
	for _, r := range m.summarize("sprout", schemes) {
		table1[r.scheme] = r
	}
	t.Logf("%s; stated multiple %gx: %s", a.Paper, a.Multiple, a.MultipleWhy)

	within := func(got, paper float64) (float64, bool) {
		off := got / paper
		if off < 1 {
			off = 1 / off
		}
		return off, off <= a.Multiple
	}
	for _, want := range a.Ratios {
		r, ok := table1[want.Scheme]
		if !ok {
			t.Errorf("%s: no Table 1 row", want.Scheme)
			continue
		}
		for _, f := range []struct {
			name       string
			got, paper float64
		}{
			{"speedup", r.avgSpeedup, want.Speedup},
			{"delay reduction", r.delayReduction, want.DelayReduction},
		} {
			off, ok := within(f.got, f.paper)
			t.Logf("%-8s %-15s %6.2fx, paper %.1fx: off by %.2fx (%s)", want.Scheme, f.name, f.got, f.paper, off, want.Cite)
			if f.got <= 1 {
				t.Errorf("%s %s = %.2fx, want > 1 (paper %.1fx; %s)", want.Scheme, f.name, f.got, f.paper, want.Cite)
			}
			if !ok {
				t.Errorf("%s %s = %.2fx is %.2fx off the paper's %.1fx, beyond %gx (%s)",
					want.Scheme, f.name, f.got, off, f.paper, a.Multiple, want.Cite)
			}
		}
	}

	// Table 1's extremes; the runner-up's margin over the lowest is logged,
	// since it can be thin (Cubic-CoDel sits 0.01 s above Sprout on seed 1).
	byDelay := slices.Clone(schemes)
	slices.SortStableFunc(byDelay, func(x, y string) int {
		return cmp.Compare(table1[x].avgDelaySec, table1[y].avgDelaySec)
	})
	lowest, runnerUp, highest := byDelay[0], byDelay[1], byDelay[len(byDelay)-1]
	ext := a.DelayExtremes
	t.Logf("avg self-inflicted delay: lowest %s %.3f s, next %s %.3f s; highest %s %.2f s (%s)",
		lowest, table1[lowest].avgDelaySec, runnerUp, table1[runnerUp].avgDelaySec,
		highest, table1[highest].avgDelaySec, ext.Cite)
	if lowest != ext.Lowest || highest != ext.Highest {
		t.Errorf("lowest/highest avg delay = %s/%s, want %s/%s (%s)", lowest, highest, ext.Lowest, ext.Highest, ext.Cite)
	}

	// Table 2, relative to the faster scheme: the slower one's speedup
	// (faster's throughput over its own) exceeds 1 and its delay
	// reduction (its delay over faster's) falls below 1.
	tr := a.Tradeoff
	rows := m.summarize(tr.Faster, []string{tr.Slower})
	if len(rows) != 1 {
		t.Fatalf("Table 2: no %s row relative to %s", tr.Slower, tr.Faster)
	}
	slower := rows[0]
	t.Logf("%s vs %s: speedup %.2fx, delay reduction %.2fx (%s)",
		tr.Slower, tr.Faster, slower.avgSpeedup, slower.delayReduction, tr.Cite)
	if slower.avgSpeedup <= 1 || slower.delayReduction >= 1 {
		t.Errorf("%s vs %s: speedup %.2f, delay reduction %.2f; want more throughput at more delay (%s)",
			tr.Faster, tr.Slower, slower.avgSpeedup, slower.delayReduction, tr.Cite)
	}
}
