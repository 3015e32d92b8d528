package scenario

import (
	"math/rand"
	"time"

	"sprout/internal/engine"
	"sprout/internal/link"
	"sprout/internal/metrics"
	"sprout/internal/network"
	"sprout/internal/sim"
	"sprout/internal/trace"
)

// worldKeyType keys the scenario world in an engine WorkerState.
type worldKeyType struct{}

var worldKey worldKeyType

// world is the reusable simulation substrate one engine worker owns: the
// event loop (slot arena), the two directional links (rings, schedules),
// the packet arena, the streaming-metrics accumulator, the loss RNGs and a
// memo of resettable endpoints. A worker's jobs reset and reuse this state
// (see DESIGN.md §10) instead of rebuilding a simulation world per job —
// the difference between ~14k allocations per experiment and roughly none.
//
// Reuse never changes results: sim.Loop.Reset replays the exact (time,
// sequence) priorities of a fresh loop, link.Reset re-derives the delivery
// schedule from the trace, every endpoint Reset restores its
// seed-determined initial state, and each job still derives all randomness
// from its own spec seed. A reused world is therefore byte-identical to a
// fresh one, which the golden-hash tests pin at worker counts 1 and 4.
type world struct {
	loop *sim.Loop
	pool network.Pool
	acc  metrics.Accumulator

	fwd, rev *link.Link // built lazily on the first run

	// Per-run dispatch targets, late-bound so links and endpoints can
	// reference each other; the standing handler closures are built once.
	onFwd, onRev           network.Handler
	fwdHandler, revHandler network.Handler
	observe                func(link.Delivery) // standing acc.Observe ref

	// tap, when set, wraps every delivery handler the world hands to a
	// link, tower or tunnel egress. Only tests set it (to scribble over
	// each packet once its handler has returned).
	tap func(network.Handler) network.Handler

	fwdRand, revRand *rand.Rand

	eps     []flowEndpoint
	flowIDs []uint32
	memo    map[endpointKey]any
	keyBuf  []byte // trace-cache key scratch

	// traceMemo short-circuits the shared engine.Cache for trace pairs
	// this worker has already resolved: the shared lookup costs a
	// generator closure per call, the worker-local hit costs nothing.
	traceMemo map[string]tracePair

	// procMemo holds this worker's compiled streaming-process instances,
	// keyed by the normalized spec's *ProcessSpec identity (stable across
	// every run of one compiled job). The link Resets the instance with
	// the spec seed at run start, so reuse replays the exact stream a
	// fresh instance would produce — the process-world analogue of the
	// trace cache, holding state machines instead of opportunity arrays.
	procMemo  map[*ProcessSpec]trace.DeliveryProcess
	observeOp func(time.Duration) // standing acc.ObserveOpportunity ref

	// cellst is the cell-world half of the pooled state (towers, uplinks,
	// schedulers, flow tables), built lazily by the first cell run.
	cellst *cellState

	// flowArena amortizes Result.Flows allocations: each result takes a
	// fresh sub-slice (results outlive the world's runs, so slices are
	// never reused); exhausted blocks are abandoned to their results.
	flowArena []FlowResult
	flowUsed  int
}

// endpointKey identifies one memoized endpoint bundle: the scheme-specific
// kind tag plus every AttachConfig parameter that shapes construction.
type endpointKey struct {
	kind string
	flow uint32
	salt float64 // scheme-specific parameter (Sprout: confidence)
	mss  int
}

func newWorld() *world {
	w := &world{
		loop:      sim.New(),
		memo:      map[endpointKey]any{},
		traceMemo: map[string]tracePair{},
		procMemo:  map[*ProcessSpec]trace.DeliveryProcess{},
	}
	w.fwdHandler = func(p *network.Packet) {
		if w.onFwd != nil {
			w.onFwd(p)
		}
	}
	w.revHandler = func(p *network.Packet) {
		if w.onRev != nil {
			w.onRev(p)
		}
	}
	w.observe = w.acc.Observe
	w.observeOp = w.acc.ObserveOpportunity
	return w
}

// worldProcessMemoLimit bounds the per-worker process memo; past it the
// memo is dropped wholesale (instances are cheap to recompile).
const worldProcessMemoLimit = 64

// processFor returns the worker's compiled instance for the spec,
// compiling on first use. Reuse is safe because the link Resets the
// instance with the run's seed before pulling from it.
func (w *world) processFor(ps *ProcessSpec) (trace.DeliveryProcess, error) {
	if p, ok := w.procMemo[ps]; ok {
		return p, nil
	}
	p, err := ps.compile()
	if err != nil {
		return nil, err
	}
	if len(w.procMemo) >= worldProcessMemoLimit {
		clear(w.procMemo)
	}
	w.procMemo[ps] = p
	return p, nil
}

// worldFor returns the worker's pooled world, or a fresh private one when
// running outside the engine (ws == nil).
func worldFor(ws *engine.WorkerState) *world {
	return ws.Value(worldKey, func() any { return newWorld() }).(*world)
}

// begin opens a new run: virtual time rewinds to zero, every packet —
// live or released — returns to the arena, per-run wiring clears. Endpoint and link storage
// is retained for the resets that follow.
func (w *world) begin() {
	w.loop.Reset()
	w.pool.Reset()
	w.onFwd, w.onRev = nil, nil
	w.eps = w.eps[:0]
	w.flowIDs = w.flowIDs[:0]
}

// resetLink builds or re-arms one of the world's links on the world's
// packet arena: the link releases every packet it delivers or drops. The
// call schedules the link's first delivery opportunity, so call order
// (forward before reverse) is part of the determinism contract.
func (w *world) resetLink(lp **link.Link, cfg link.Config, deliver network.Handler) *link.Link {
	cfg.Pool = &w.pool
	deliver = w.tapped(deliver)
	if *lp == nil {
		*lp = link.New(w.loop, cfg, deliver)
	} else {
		(*lp).Reset(cfg, deliver)
	}
	return *lp
}

// tapped passes a delivery handler through the world's tap, if one is set.
func (w *world) tapped(h network.Handler) network.Handler {
	if w.tap == nil {
		return h
	}
	return w.tap(h)
}

// reseed returns the retained RNG re-seeded in place (building it on first
// use). Re-seeding restores the exact stream a fresh
// rand.New(rand.NewSource(seed)) would produce.
func reseed(rp **rand.Rand, seed int64) *rand.Rand {
	if *rp == nil {
		*rp = rand.New(rand.NewSource(seed))
	} else {
		(*rp).Seed(seed)
	}
	return *rp
}

// takeFlowResults hands out a fresh n-slot slice from the arena. The
// three-index slice keeps consumers' appends from bleeding into later
// results.
func (w *world) takeFlowResults(n int) []FlowResult {
	if w.flowUsed+n > len(w.flowArena) {
		size := 256
		if n > size {
			size = n
		}
		w.flowArena = make([]FlowResult, size)
		w.flowUsed = 0
	}
	out := w.flowArena[w.flowUsed : w.flowUsed+n : w.flowUsed+n]
	w.flowUsed += n
	return out
}
