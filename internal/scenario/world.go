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
// event loop (slot arena), the cells' links (rings, slots, schedules,
// compiled processes), the packet arena, the streaming-metrics
// accumulator, the flat flow table (each row with the endpoints it last
// built) with its demux, and the precomputed churn timeline. A worker's
// jobs reset and reuse this state by position (see DESIGN.md §8.5) instead
// of rebuilding a simulation world per job — the difference between ~14k
// allocations per experiment and roughly none.
//
// Reuse never changes results: sim.Loop.Reset replays the exact (time,
// sequence) priorities of a fresh loop, link.Reset re-derives the delivery
// schedule from the trace or re-seeds the process, every endpoint reset
// restores its seed-determined initial state, and each job still derives
// all randomness from its own spec seed. A reused world is therefore
// byte-identical to a fresh one, which the golden-hash tests pin at worker
// counts 1 and 4.
type world struct {
	loop *sim.Loop
	pool network.Pool
	acc  metrics.Accumulator

	// cells is the emulated network: a downlink and an uplink per cell,
	// grown lazily. A dedicated-path or tunnel spec uses cells[0] alone.
	cells     []cellNet
	schedName string // what the cells' schedulers were built from

	// Per-run dispatch targets, late-bound so links and endpoints can
	// reference each other; the standing handler closures are built once.
	// Every downlink delivers to fwdHandler, every uplink to revHandler.
	onFwd, onRev           network.Handler
	fwdHandler, revHandler network.Handler
	observe                func(link.Delivery) // standing acc.Observe ref
	keep                   func(link.Delivery) // observe, then append to log
	observeOp              func(time.Duration) // standing acc.ObserveOpportunity ref

	// log is the run's data-direction delivery log, appended to by keep
	// when the spec sets KeepDeliveries. Results take copies; the storage
	// stays for the next run.
	log []link.Delivery

	// flows and flowIDs are the run's flat flow table: static flows in
	// group order, then churned flows in arrival order. Rows past the
	// current roster keep their endpoints for a later, longer one. byData
	// and byFB demux delivered packets on their flow id to the flow's
	// endpoints; demuxData and demuxFB are the standing closures over them.
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

	// flowArena amortizes Result.Flows allocations: each result takes a
	// fresh sub-slice (results outlive the world's runs, so slices are
	// never reused); exhausted blocks are abandoned to their results.
	flowArena []FlowResult
	flowUsed  int

	// work is where the endpoints' tallies add up at the end of a run: a
	// local handed to them would escape, one allocation per run.
	work Work
}

// cellNet is one cell's share of the world: its two links, their
// compiled processes, its opportunity scheduler (built when a cell spec
// first needs one) and the retained loss RNGs.
type cellNet struct {
	down, up         *link.Link
	downProc, upProc cellProc
	sched            cell.Scheduler
	fwdRand, revRand *rand.Rand
	name             string // strconv.Itoa of the cell index, for seed derivation
}

// cellProc is one link's compiled streaming process and a copy of the
// spec it was compiled from. Each link owns its instance — interleaved
// pulls from a shared one would corrupt both streams — and the link
// Resets it with the run's seed, so reuse replays the exact stream a fresh
// instance would produce: the process-world analogue of the trace cache,
// holding a state machine instead of an opportunity array.
type cellProc struct {
	spec ProcessSpec
	proc trace.DeliveryProcess
}

// get returns the instance compiled from a spec equal to ps, recompiling
// only when ps differs in value from the spec the last run compiled. The
// copy is kept, not ps: a spec edited in place after its run is a new
// spec.
func (cp *cellProc) get(ps *ProcessSpec) (trace.DeliveryProcess, error) {
	if cp.proc == nil || !cp.spec.equal(ps) {
		p, err := ps.compile()
		if err != nil {
			return nil, err
		}
		cp.spec, cp.proc = ps.clone(), p
	}
	return cp.proc, nil
}

// flow is one row of the flow table. The ports are the Conns of a user
// with a slot of its own (cell specs); flows sharing a path leave them
// unused. ep and built outlive the run: the next run whose roster reaches
// this row resets ep in place when it attaches with the same key.
type flow struct {
	scheme   Scheme
	down, up port
	tally    func(*Work) // the attached endpoints' counters; nil if none this run
	ep       Endpoint    // the endpoints this row last built
	built    builtKey    // what ep was built for
}

// builtKey is every AttachConfig parameter, beside the wiring a reset
// takes, that shapes a scheme's construction.
type builtKey struct {
	scheme     string
	confidence float64
	mss        int
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

func newWorld() *world {
	w := &world{
		loop:   sim.New(),
		byData: map[uint32]network.Handler{},
		byFB:   map[uint32]network.Handler{},
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
	w.keep = func(d link.Delivery) {
		w.acc.Observe(d)
		w.log = append(w.log, d)
	}
	w.observeOp = w.acc.ObserveOpportunity
	w.evFn = w.runEvents
	return w
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
	w.log = w.log[:0]
	w.flows = w.flows[:0]
	w.flowIDs = w.flowIDs[:0]
	w.initCells = w.initCells[:0]
	clear(w.byData)
	clear(w.byFB)
	w.attachErr = nil
	w.evIdx, w.evTimer = 0, sim.Timer{}
}

// observer returns the standing observer for a run's data-direction
// deliveries: it folds each into the accumulator and, when keep is set,
// appends it to the world's log.
func (w *world) observer(keep bool) func(link.Delivery) {
	if keep {
		return w.keep
	}
	return w.observe
}

// Streaming-process seed derivation, frozen like GenerateTracePair's: the
// data direction draws the stream a "down" trace generation would, the
// feedback direction the "up" one. A pure-model process spec is therefore
// byte-identical to the equivalent materialized down-direction link spec
// (TestEquivalentRuns' "streaming vs materialized" rows); an "up"
// materialized spec swaps which model gets which stream, so its streaming
// counterpart matches in distribution but not bit-for-bit.
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
		if w.schedName != c.Scheduler {
			for i := range w.cells {
				w.cells[i].sched = nil
			}
			w.schedName = c.Scheduler
		}
		for i := range w.cells[:n] {
			if w.cells[i].sched == nil {
				w.cells[i].sched = cell.NewScheduler(c.Scheduler) // named at Normalize
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
			if down.Process, err = c.downProc.get(spec.Process); err != nil {
				return err
			}
			if up.Process, err = c.upProc.get(spec.FeedbackProcess); err != nil {
				return err
			}
		}
		if spec.Cell != nil {
			down.Scheduler = c.sched
		}
		if aqm {
			down.Dequeuer, up.Dequeuer = codel.New(&w.pool), codel.New(&w.pool)
		}
		resetLink(w.loop, &c.down, down, w.tapped(deliverDown))
		resetLink(w.loop, &c.up, up, w.tapped(deliverUp))
	}
	return nil
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

// countWork reads the run's counters off the world once the loop has run on
// its first n cells.
func (w *world) countWork(n int) Work {
	w.work = Work{
		Events:   int64(w.loop.Fired()),
		PoolPeak: int64(w.pool.HighWater()),
		Segments: w.acc.Segments(),
	}
	for _, c := range w.cells[:n] {
		w.work.Opportunities += c.down.Opportunities() + c.up.Opportunities()
		w.work.Wasted += c.down.WastedOpportunities() + c.up.WastedOpportunities()
	}
	for _, f := range w.flows {
		if f.tally != nil {
			f.tally(&w.work)
		}
	}
	return w.work
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
