package harness

import (
	"context"
	"strings"
	"testing"

	"sprout/internal/engine"
	"sprout/internal/scenario"
	"sprout/internal/trace"
)

// TestMatrixGoldenHashSharded generalizes the worker-count golden test to
// shard counts: the merged matrix must hash to the same pinned baseline
// as the direct run for every decomposition in shards {1,2,3,7} ×
// workers {1,4}.
func TestMatrixGoldenHashSharded(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 7} {
		for _, workers := range []int{1, 4} {
			specs, _ := MatrixSpecs(goldenOpt, goldenSchemes)
			traces := engine.NewCache()
			results, st, err := scenario.RunSharded(context.Background(), specs, scenario.ShardedOptions{
				Shards: shards, Workers: workers, Traces: traces,
			})
			if err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
			}
			m := matrixOf(goldenSchemes, results)
			if got := hashCells(m, goldenLinks, goldenSchemes); got != goldenMatrixHash {
				t.Errorf("shards=%d workers=%d: matrix hash = %s, want %s (sharded merge is not byte-identical)",
					shards, workers, got, goldenMatrixHash)
			}
			if st.Shards != shards {
				t.Errorf("shards=%d: stats report %d shards", shards, st.Shards)
			}
			// The shared trace cache generates each canonical network's
			// pair once, counted once — not once per shard.
			_, generated, _ := traces.Counts()
			if want := len(trace.CanonicalNetworks()); generated != want {
				t.Errorf("shards=%d workers=%d: %d trace pairs generated, want %d",
					shards, workers, generated, want)
			}
		}
	}
}

// TestScenarioGoldenHashSharded runs the pinned heterogeneous-flows and
// streaming-handover scenarios through the sharded JSONL path: encode,
// merge, decode must preserve every bit the golden hashes cover.
func TestScenarioGoldenHashSharded(t *testing.T) {
	cases := []struct {
		name, json, want string
	}{
		{"scenario", goldenScenarioJSON, goldenScenarioHash},
		{"handover", goldenHandoverJSON, goldenHandoverHash},
	}
	for _, c := range cases {
		specs, err := scenario.Parse(strings.NewReader(c.json))
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2} {
			results, _, err := scenario.RunSharded(context.Background(), specs, scenario.ShardedOptions{
				Shards: shards, Workers: 2,
			})
			if err != nil {
				t.Fatalf("%s shards=%d: %v", c.name, shards, err)
			}
			if got := hashScenarioResults(results); got != c.want {
				t.Errorf("%s shards=%d: hash = %s, want %s (JSONL round trip is not bit-exact)",
					c.name, shards, got, c.want)
			}
		}
	}
}
