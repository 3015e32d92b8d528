package scenario

import (
	"math/rand"
	"strconv"
	"time"

	"sprout/internal/cell"
	"sprout/internal/codel"
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
// event loop (slot arena), the cells' links (rings, slots, schedules), the
// packet arena, the streaming-metrics accumulator, the flat flow table
// with its demux, the precomputed churn timeline and a memo of resettable
// endpoints. A worker's jobs reset and reuse this state
// (see DESIGN.md §8.5) instead of rebuilding a simulation world per job —
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

	// cells is the emulated network: a downlink and an uplink per cell,
	// grown lazily. A dedicated-path or tunnel spec uses cells[0] alone.
	cells     []cellNet
	schedName string // what the cells' schedulers were built from
	schedGain float64

	// Per-run dispatch targets, late-bound so links and endpoints can
	// reference each other; the standing handler closures are built once.
	// Every downlink delivers to fwdHandler, every uplink to revHandler.
	onFwd, onRev           network.Handler
	fwdHandler, revHandler network.Handler
	observe                func(link.Delivery) // standing acc.Observe ref

	// flows and flowIDs are the run's flat flow table: static flows in
	// group order, then churned flows in arrival order. byData and byFB
	// demux delivered packets on their flow id to the flow's endpoints;
	// demuxData and demuxFB are the standing closures over them.
	flows              []flow
	flowIDs            []uint32
	byData, byFB       map[uint32]network.Handler
	demuxData, demuxFB network.Handler
	attach             AttachConfig // this run's template; attachFlow fills in the flow
	attachErr          error        // first failure attaching a churned flow

	// schedule is the run's churn/handover timeline (empty for a static
	// roster), executed by the standing evFn timer.
	schedule  cell.Schedule
	initCells []int32 // initial cell per static flow
	evIdx     int
	evTimer   sim.Timer
	evFn      func()

	// tap, when set, wraps every delivery handler the world hands to a
	// link or tunnel egress. Only tests set it (to scribble over
	// each packet once its handler has returned).
	tap func(network.Handler) network.Handler

	memo   map[endpointKey]any
	keyBuf []byte // trace-cache key scratch

	// traceMemo short-circuits the shared engine.Cache for trace pairs
	// this worker has already resolved: the shared lookup costs a
	// generator closure per call, the worker-local hit costs nothing.
	traceMemo map[string]tracePair

	// procMemo holds this worker's compiled streaming-process instances,
	// keyed by the normalized spec's *ProcessSpec identity (stable across
	// every run of one compiled job) and the cell that pulls from it: each
	// link must own a private instance, since interleaved pulls from a
	// shared one would corrupt both streams. The link Resets the instance
	// with its seed at run start, so reuse replays the exact stream a
	// fresh instance would produce — the process-world analogue of the
	// trace cache, holding state machines instead of opportunity arrays.
	procMemo  map[procKey]trace.DeliveryProcess
	observeOp func(time.Duration) // standing acc.ObserveOpportunity ref

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

// cellNet is one cell's share of the world: its two links, its
// opportunity scheduler (built when a cell spec first needs one) and the
// retained loss RNGs.
type cellNet struct {
	down, up         *link.Link
	sched            cell.Scheduler
	fwdRand, revRand *rand.Rand
	name             string // strconv.Itoa of the cell index, for seed derivation
}

// flow is one row of the flow table. The ports are the Conns of a user
// with a slot of its own (cell specs); flows sharing a path leave them
// unused.
type flow struct {
	scheme   Scheme
	down, up port
}

// port routes one cell user's packets to its *current* cell, giving
// endpoints a stable Conn across handovers: the down port feeds the
// user's slot at its tower, the up port its cell's uplink. Sends while
// unattached (the user departed, its endpoints outliving it) are dropped
// and released — the radio bearer is gone.
type port struct {
	pool *network.Pool
	link *link.Link // nil while unattached
	slot int
}

func (p *port) Send(pkt *network.Packet) {
	if p.link == nil {
		p.pool.Put(pkt)
		return
	}
	p.link.SendTo(p.slot, pkt)
}

type procKey struct {
	spec *ProcessSpec
	cell int
}

func newWorld() *world {
	w := &world{
		loop:      sim.New(),
		memo:      map[endpointKey]any{},
		traceMemo: map[string]tracePair{},
		procMemo:  map[procKey]trace.DeliveryProcess{},
		byData:    map[uint32]network.Handler{},
		byFB:      map[uint32]network.Handler{},
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
	w.demuxData = func(p *network.Packet) {
		if h, ok := w.byData[p.Flow]; ok {
			h(p)
		}
	}
	w.demuxFB = func(p *network.Packet) {
		if h, ok := w.byFB[p.Flow]; ok {
			h(p)
		}
	}
	w.observe = w.acc.Observe
	w.observeOp = w.acc.ObserveOpportunity
	w.evFn = w.runEvents
	return w
}

// worldProcessMemoLimit bounds the per-worker process memo; past it the
// memo is dropped wholesale (instances are cheap to recompile).
const worldProcessMemoLimit = 64

// processFor returns the worker's compiled instance of the spec for cell
// ci, compiling on first use. Reuse is safe because the link Resets the
// instance with the run's seed before pulling from it.
func (w *world) processFor(ps *ProcessSpec, ci int) (trace.DeliveryProcess, error) {
	key := procKey{ps, ci}
	if p, ok := w.procMemo[key]; ok {
		return p, nil
	}
	p, err := ps.compile()
	if err != nil {
		return nil, err
	}
	if len(w.procMemo) >= worldProcessMemoLimit {
		clear(w.procMemo)
	}
	w.procMemo[key] = p
	return p, nil
}

// worldFor returns the worker's pooled world, or a fresh private one when
// running outside the engine (ws == nil).
func worldFor(ws *engine.WorkerState) *world {
	return ws.Value(worldKey, func() any { return newWorld() }).(*world)
}

// begin opens a new run: virtual time rewinds to zero, every packet —
// live or released — returns to the arena, per-run wiring and the flow
// table clear. Endpoint and link storage is retained for the resets that
// follow.
func (w *world) begin() {
	w.loop.Reset()
	w.pool.Reset()
	w.onFwd, w.onRev = nil, nil
	w.flows = w.flows[:0]
	w.flowIDs = w.flowIDs[:0]
	w.initCells = w.initCells[:0]
	clear(w.byData)
	clear(w.byFB)
	w.attachErr = nil
	w.evIdx, w.evTimer = 0, sim.Timer{}
}

// Streaming-process seed derivation, frozen like GenerateTracePair's: the
// data direction draws the stream a "down" trace generation would, the
// feedback direction the "up" one. A pure-model process spec is therefore
// byte-identical to the equivalent materialized down-direction link spec
// (TestStreamingMatchesMaterialized); an "up" materialized spec swaps
// which model gets which stream, so its streaming counterpart matches in
// distribution but not bit-for-bit.
func processSeeds(seed int64) (data, feedback int64) {
	return seed*31 + 7, seed*31 + 8
}

// openCells opens a run on n cells: begin, then each cell's downlink and
// uplink reset from the spec — its trace pair or a private instance of
// its process pair, propagation delay, loss, CoDel if the spec asks for
// it and, for a cell spec, the cell's scheduler on the downlink — to
// deliver to the given handlers. The resets go in cell order, downlink
// before uplink — each schedules the link's first delivery opportunity,
// so this order is part of the determinism contract.
//
// All randomness is job-local: each link's process and, when the spec has
// loss, its loss RNG are re-seeded from the spec seed here, inside the
// job, so concurrent experiment jobs never share a *rand.Rand (see
// internal/engine's package doc for the determinism contract). A lossless
// link never draws, so its RNG is not re-seeded: a later lossy job re-seeds
// it before the first draw. Cell 0's derivations (processSeeds,
// the +1000/+2000 loss offsets) are frozen: they are part of the
// regenerated figures' byte identity. Further cells draw independent
// streams via DeriveSeed.
func (w *world) openCells(spec Spec, n int, deliverDown, deliverUp network.Handler) error {
	for len(w.cells) < n {
		w.cells = append(w.cells, cellNet{name: strconv.Itoa(len(w.cells))})
	}
	if c := spec.Cell; c != nil {
		if w.schedName != c.Scheduler || w.schedGain != c.PFGain {
			for i := range w.cells {
				w.cells[i].sched = nil
			}
			w.schedName, w.schedGain = c.Scheduler, c.PFGain
		}
		for i := range w.cells[:n] {
			if w.cells[i].sched == nil {
				w.cells[i].sched = cell.NewScheduler(c.Scheduler, c.PFGain) // named at Normalize
			}
		}
	}
	w.begin()
	aqm := spec.useCoDel()
	for ci := range w.cells[:n] {
		c := &w.cells[ci]
		dataSeed, fbSeed := processSeeds(spec.Seed)
		lossFwd, lossRev := spec.Seed+1000, spec.Seed+2000
		if ci > 0 {
			dataSeed = engine.DeriveSeed(spec.Seed, "cell-data", c.name)
			fbSeed = engine.DeriveSeed(spec.Seed, "cell-feedback", c.name)
			lossFwd = engine.DeriveSeed(spec.Seed, "cell-loss-fwd", c.name)
			lossRev = engine.DeriveSeed(spec.Seed, "cell-loss-rev", c.name)
		}
		down := link.Config{
			Trace:            spec.DataTrace,
			ProcessSeed:      dataSeed,
			PropagationDelay: time.Duration(spec.PropDelay),
			LossRate:         spec.Loss,
			Pool:             &w.pool,
		}
		up := down
		up.Trace, up.ProcessSeed = spec.FeedbackTrace, fbSeed
		if spec.Loss > 0 {
			down.Rand, up.Rand = reseed(&c.fwdRand, lossFwd), reseed(&c.revRand, lossRev)
		}
		if spec.Process != nil {
			var err error
			if down.Process, err = w.processFor(spec.Process, ci); err != nil {
				return err
			}
			if up.Process, err = w.processFor(spec.FeedbackProcess, ci); err != nil {
				return err
			}
		}
		if spec.Cell != nil {
			down.Scheduler = c.sched
		}
		if aqm {
			down.Dequeuer, up.Dequeuer = w.newCoDel(), w.newCoDel()
		}
		resetLink(w.loop, &c.down, down, w.tapped(deliverDown))
		resetLink(w.loop, &c.up, up, w.tapped(deliverUp))
	}
	return nil
}

// newCoDel builds a CoDel AQM that releases its drops to the world's arena.
func (w *world) newCoDel() *codel.CoDel {
	c := codel.New()
	c.UsePool(&w.pool)
	return c
}

// resetLink builds the link on first use and re-arms it thereafter.
func resetLink(clock sim.Clock, lp **link.Link, cfg link.Config, deliver network.Handler) {
	if *lp == nil {
		*lp = link.New(clock, cfg, deliver)
	} else {
		(*lp).Reset(cfg, deliver)
	}
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
