package harness

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"sprout/internal/engine"
	"sprout/internal/scenario"
)

// suiteOpt keeps the whole suite to about a second of wall clock.
var suiteOpt = Options{Duration: 2 * time.Second, Skip: 500 * time.Millisecond, Seed: 7}

// runSuite runs rows on a fresh engine and trace cache.
func runSuite(t *testing.T, rows []Experiment, workers int) ([]string, engine.Stats, *engine.Cache) {
	t.Helper()
	traces := engine.NewCache()
	sections, st, err := Run(t.Context(), engine.New(workers), traces, rows, suiteOpt)
	if err != nil {
		t.Fatal(err)
	}
	return sections, st, traces
}

// TestSuiteIsOneRun: `all` is one job set of 106 specs over the four
// canonical trace pairs, its text is pinned, and a row renders the same
// text from its slice of that run as from a run of its own.
func TestSuiteIsOneRun(t *testing.T) {
	all, st, traces := runSuite(t, Suite, 0)
	if st.Jobs != 106 || st.Completed != 106 {
		t.Errorf("all ran %d jobs (%d completed), want 106", st.Jobs, st.Completed)
	}
	const wantText = "1d3ff8b00b83a706a317a4e3eba22cafea31502dbab928f29ab533a8b0a180ff"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(all, "")))); got != wantText {
		t.Errorf("suite text sha256 = %s, want %s", got, wantText)
	}
	if _, misses, _ := traces.Counts(); misses != 4 {
		t.Errorf("all generated %d trace pairs, want 4", misses)
	}
	for i, row := range Suite {
		if !strings.HasPrefix(all[i], "\n==== "+row.Title+" ====\n") {
			t.Errorf("%s: section starts %q", row.Key, strings.SplitN(all[i], "\n", 3)[1])
		}
		alone, _, _ := runSuite(t, []Experiment{row}, 0)
		if alone[0] != all[i] {
			t.Errorf("%s alone:\n%s\nas part of all:\n%s", row.Key, alone[0], all[i])
		}
	}
}

// TestExperimentsDeterministicAcrossWorkers: every row's text is the same
// from a serial engine and a four-worker one.
func TestExperimentsDeterministicAcrossWorkers(t *testing.T) {
	serial, _, _ := runSuite(t, Suite, 1)
	parallel, _, _ := runSuite(t, Suite, 4)
	for i, row := range Suite {
		if serial[i] != parallel[i] {
			t.Errorf("%s differs between 1 and 4 workers:\n%s\n%s", row.Key, serial[i], parallel[i])
		}
	}
}

// TestRunDeterministic: a row run twice on one engine — the second time on
// warm worker worlds and a warm trace cache — renders the same text.
func TestRunDeterministic(t *testing.T) {
	rows, err := Select("loss,tunnel")
	if err != nil {
		t.Fatal(err)
	}
	eng, traces := engine.New(2), engine.NewCache()
	first, _, err := Run(t.Context(), eng, traces, rows, suiteOpt)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := Run(t.Context(), eng, traces, rows, suiteOpt)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if first[i] != again[i] {
			t.Errorf("%s differs on rerun:\n%s\n%s", row.Key, first[i], again[i])
		}
	}
}

// TestSelect: -run lists resolve to rows in Suite order, and one unknown
// key fails the whole list, naming the valid keys.
func TestSelect(t *testing.T) {
	keys := func(rows []Experiment) string {
		var ks []string
		for _, row := range rows {
			ks = append(ks, row.Key)
		}
		return strings.Join(ks, ",")
	}
	for list, want := range map[string]string{
		"all":               "fig1,fig2,table1,table2,fig7,fig8,fig9,loss,tunnel,multi",
		"multi, table1":     "table1,multi",
		"fig8,fig8":         "fig8",
		"loss,all":          "fig1,fig2,table1,table2,fig7,fig8,fig9,loss,tunnel,multi",
		"tunnel":            "tunnel",
		"fig7,fig2,table2 ": "fig2,table2,fig7",
	} {
		rows, err := Select(list)
		if err != nil || keys(rows) != want {
			t.Errorf("Select(%q) = %s, %v; want %s", list, keys(rows), err, want)
		}
	}
	for _, list := range []string{"table1,fig99", "fig99", "", "table1,", "ALL"} {
		rows, err := Select(list)
		if err == nil || rows != nil {
			t.Errorf("Select(%q) = %s, %v; want an error", list, keys(rows), err)
			continue
		}
		if !strings.Contains(err.Error(), "fig1,fig2,table1,table2,fig7,fig8,fig9,loss,tunnel,multi") {
			t.Errorf("Select(%q) error does not name the valid keys: %v", list, err)
		}
	}
}

// TestMatrixSpecsPinned: bench/ and every sharded sweep identify jobs by
// their index in this grid, so the list is pinned field for field through
// its checkpoint fingerprint.
func TestMatrixSpecsPinned(t *testing.T) {
	specs, links := MatrixSpecs(suiteOpt, scenario.PaperSchemes())
	if len(specs) != 80 || len(links) != 8 {
		t.Fatalf("grid is %d specs over %d links, want 80 over 8", len(specs), len(links))
	}
	const want = "695fb7a175d9a13f4ae3c4b9cb322b8ad9648d8fce81aedd82774e98cf26ac08"
	if got := scenario.Manifest(specs, 1).Fingerprint; got != want {
		t.Errorf("MatrixSpecs fingerprint = %s, want %s", got, want)
	}
	specs, _ = MatrixSpecs(Options{}, []string{"sprout", "cubic"})
	const wantDefault = "df02681e83e23a9ec8ab4043fdd2e96e05a0efa27faa478aaac758b59aee7c91"
	if got := scenario.Manifest(specs, 1).Fingerprint; got != wantDefault {
		t.Errorf("default-options fingerprint = %s, want %s", got, wantDefault)
	}
}
