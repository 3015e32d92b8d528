package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCollectsByIndex(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		results := make([]int, 100)
		jobs := make([]Job, 100)
		for i := range jobs {
			i := i
			jobs[i] = Job{Name: fmt.Sprint(i), Run: func(context.Context, *WorkerState) error {
				results[i] = i * i
				return nil
			}}
		}
		stats, err := New(workers).Run(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Completed != 100 {
			t.Fatalf("workers=%d: completed %d, want 100", workers, stats.Completed)
		}
		for i, r := range results {
			if r != i*i {
				t.Fatalf("workers=%d: slot %d = %d", workers, i, r)
			}
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	// Each job draws from its own derived RNG; the aggregate must not
	// depend on the worker count.
	run := func(workers int) []float64 {
		out := make([]float64, 32)
		jobs := make([]Job, len(out))
		for i := range jobs {
			i := i
			jobs[i] = Job{Run: func(context.Context, *WorkerState) error {
				rng := rand.New(rand.NewSource(DeriveSeed(7, "job", fmt.Sprint(i))))
				var s float64
				for k := 0; k < 1000; k++ {
					s += rng.Float64()
				}
				out[i] = s
				return nil
			}}
		}
		if _, err := New(workers).Run(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, workers := range []int{2, 8} {
		parallel := run(workers)
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Fatalf("workers=%d: job %d differs", workers, i)
			}
		}
	}
}

func TestRunFirstErrorByJobOrder(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	// Job 5 fails instantly, job 2 fails after a delay: the returned
	// error must be job 2's, the first in job order. A barrier makes
	// every job start before either error fires, so job 5's cancel can
	// never skip job 2 and flake the test.
	var start sync.WaitGroup
	start.Add(8)
	jobs := make([]Job, 8)
	for i := range jobs {
		i := i
		jobs[i] = Job{Name: fmt.Sprint(i), Run: func(context.Context, *WorkerState) error {
			start.Done()
			start.Wait()
			switch i {
			case 2:
				time.Sleep(30 * time.Millisecond)
				return errA
			case 5:
				return errB
			}
			return nil
		}}
	}
	_, err := New(8).Run(context.Background(), jobs)
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want job 2's error", err)
	}
}

func TestRunErrorCancelsPending(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int32
	jobs := make([]Job, 64)
	for i := range jobs {
		i := i
		jobs[i] = Job{Name: fmt.Sprint(i), Run: func(context.Context, *WorkerState) error {
			started.Add(1)
			if i == 0 {
				return boom
			}
			time.Sleep(time.Millisecond)
			return nil
		}}
	}
	stats, err := New(2).Run(context.Background(), jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if stats.Completed >= 64 {
		t.Errorf("cancellation should skip pending jobs, ran %d", stats.Completed)
	}
	if got := int(started.Load()); got != stats.Completed {
		t.Errorf("started %d != completed %d", got, stats.Completed)
	}
}

func TestRunRootCauseNotMaskedByCancellation(t *testing.T) {
	boom := errors.New("boom")
	jobs := []Job{
		// Job 0 honours cancellation and reports context.Canceled —
		// earlier in job order than the real failure.
		{Name: "victim", Run: func(ctx context.Context, _ *WorkerState) error {
			<-ctx.Done()
			return ctx.Err()
		}},
		{Name: "culprit", Run: func(context.Context, *WorkerState) error {
			time.Sleep(5 * time.Millisecond) // let job 0 start first
			return boom
		}},
	}
	_, err := New(2).Run(context.Background(), jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the culprit's error, not the victim's cancellation", err)
	}
}

func TestRunHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, err := New(4).Run(ctx, []Job{{Run: func(context.Context, *WorkerState) error {
		ran = true
		return nil
	}}})
	if err == nil {
		t.Error("want context error")
	}
	if ran {
		t.Error("job ran under a cancelled context")
	}
}

func TestWorkersDefault(t *testing.T) {
	jobs := make([]Job, 64)
	for i := range jobs {
		jobs[i].Run = func(context.Context, *WorkerState) error { return nil }
	}
	workers := func(e *Engine) int {
		st, err := e.Run(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		return st.Workers
	}
	if got, want := workers(New(0)), min(runtime.GOMAXPROCS(0), len(jobs)); got != want {
		t.Errorf("default pool ran %d workers, want GOMAXPROCS (%d)", got, want)
	}
	if got := workers(New(3)); got != 3 {
		t.Errorf("workers = %d, want 3", got)
	}
}

func TestDeriveSeedStableAndDistinct(t *testing.T) {
	a := DeriveSeed(1, "sprout", "Verizon LTE Downlink")
	b := DeriveSeed(1, "sprout", "Verizon LTE Downlink")
	if a != b {
		t.Error("DeriveSeed not deterministic")
	}
	if a < 0 || a == 0 {
		t.Errorf("seed = %d, want positive", a)
	}
	seen := map[int64]string{}
	for _, base := range []int64{1, 2, 3} {
		for _, scheme := range []string{"sprout", "cubic", "skype"} {
			for _, link := range []string{"lte-down", "lte-up", "3g-down"} {
				s := DeriveSeed(base, scheme, link)
				id := fmt.Sprint(base, scheme, link)
				if prev, dup := seen[s]; dup {
					t.Errorf("seed collision: %s and %s -> %d", prev, id, s)
				}
				seen[s] = id
			}
		}
	}
	// Concatenation must not alias: ("ab","c") != ("a","bc").
	if DeriveSeed(1, "ab", "c") == DeriveSeed(1, "a", "bc") {
		t.Error("part boundaries alias")
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache()
	var gens atomic.Int32
	var wg sync.WaitGroup
	vals := make([]any, 32)
	for i := range vals {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals[i] = c.Get("k", func() any {
				gens.Add(1)
				time.Sleep(5 * time.Millisecond)
				return "v"
			})
		}()
	}
	wg.Wait()
	if gens.Load() != 1 {
		t.Errorf("gen ran %d times, want 1", gens.Load())
	}
	for i, v := range vals {
		if v != "v" {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
	hits, misses, _ := c.Counts()
	if misses != 1 || hits != 31 {
		t.Errorf("counts = %d hits, %d misses; want 31/1", hits, misses)
	}
}

func TestCachePanickingGenFailsLoudly(t *testing.T) {
	c := NewCache()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("first Get should propagate gen's panic")
			}
		}()
		c.Get("bad", func() any { panic("gen exploded") })
	}()
	// Later callers must not silently receive nil from the poisoned
	// entry; they get a clear panic naming the key.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("second Get returned instead of panicking")
		}
		if s, _ := r.(string); !strings.Contains(s, `"bad"`) {
			t.Errorf("panic %v should name the key", r)
		}
	}()
	c.Get("bad", func() any { return "never runs" })
}

func TestWorkerStatePersistsAcrossRuns(t *testing.T) {
	e := New(2)
	type worldKey struct{}
	var mu sync.Mutex
	built := 0
	runOnce := func() {
		jobs := make([]Job, 8)
		for i := range jobs {
			jobs[i] = Job{Run: func(_ context.Context, ws *WorkerState) error {
				ws.Value(worldKey{}, func() any {
					mu.Lock()
					built++
					mu.Unlock()
					return struct{}{}
				})
				return nil
			}}
		}
		if _, err := e.Run(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
	}
	runOnce()
	runOnce() // same engine: worker states (and their worlds) must survive
	mu.Lock()
	defer mu.Unlock()
	if built > 2 {
		t.Errorf("built %d worlds across two runs on 2 workers, want at most 2", built)
	}
	if built == 0 {
		t.Error("no world was ever built")
	}
}

func TestWorkerStateNilSafe(t *testing.T) {
	var ws *WorkerState
	calls := 0
	mk := func() any { calls++; return calls }
	if got := ws.Value("k", mk); got != 1 {
		t.Errorf("nil Value = %v", got)
	}
	if got := ws.Value("k", mk); got != 2 {
		t.Errorf("nil state must not cache, got %v", got)
	}
}

// TestCacheRange: Range visits exactly the entries whose values exist,
// and never an entry still mid-generation.
func TestCacheRange(t *testing.T) {
	c := NewCache()
	c.Get("a", func() any { return 1 })
	c.Get("b", func() any { return 2 })

	// An entry whose generator is still running must be invisible.
	started := make(chan struct{})
	release := make(chan struct{})
	go c.Get("slow", func() any {
		close(started)
		<-release
		return 3
	})
	<-started
	got := map[string]any{}
	c.Range(func(k string, v any) { got[k] = v })
	if len(got) != 2 || got["a"] != 1 || got["b"] != 2 {
		t.Errorf("Range = %v, want {a:1 b:2}", got)
	}
	close(release)
	c.Get("slow", func() any { return 0 }) // synchronize: value now exists
	got = map[string]any{}
	c.Range(func(k string, v any) { got[k] = v })
	if len(got) != 3 || got["slow"] != 3 {
		t.Errorf("Range after completion = %v, want slow:3 present", got)
	}
}

func TestCacheDistinctKeys(t *testing.T) {
	c := NewCache()
	a := c.Get("a", func() any { return 1 })
	b := c.Get("b", func() any { return 2 })
	if a == b {
		t.Error("keys collided")
	}
	if again := c.Get("a", func() any { return 3 }); again != 1 {
		t.Errorf("regenerated existing key: %v", again)
	}
}
