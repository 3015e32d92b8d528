package scenario

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"sprout/internal/cell"
	"sprout/internal/core"
	"sprout/internal/engine"
	"sprout/internal/link"
	"sprout/internal/network"
	"sprout/internal/sim"
	"sprout/internal/trace"
	"sprout/internal/transport"
)

// cellState is the cell-world half of a worker's pooled world: towers,
// uplinks, schedulers and compiled per-cell process instances, the
// feedback hub, the precomputed churn schedule, and the flat per-flow
// tables (struct-of-arrays: ids, scheme, current cell/slot, endpoints,
// ports). Everything is retained across runs so a warm re-run allocates
// nothing; every Reset replays construction-time event order, keeping
// reused cell worlds byte-identical to fresh ones.
type cellState struct {
	w *world

	towers  []*cell.Tower
	uplinks []*link.Link
	scheds  []cell.Scheduler
	// dataProcs/fbProcs are per-cell compiled process instances. Each
	// tower must own a private instance (interleaved pulls from a shared
	// one would corrupt both streams), so they are memoized here by spec
	// pointer rather than in the world's procMemo.
	dataProcs, fbProcs     []trace.DeliveryProcess
	dataSpecKey, fbSpecKey *ProcessSpec
	schedName              string
	schedGain              float64
	fwdRands, revRands     []*rand.Rand
	cellNames              []string // strconv.Itoa memo for seed derivation

	hub       cell.Hub
	hubOn     bool
	deferFn   func(*transport.Receiver) // standing hub.Defer ref
	schedule  cell.Schedule
	initCells []int32 // scratch: initial cell per static flow

	// Flat per-flow tables, indexed by flow index (static flows in group
	// order, then churned flows in arrival order).
	ids       []uint32
	schemes   []Scheme
	cellOf    []int32 // current cell, -1 while unattached
	slotOf    []int32
	eps       []Endpoint
	dataPorts []cellPort
	fbPorts   []cellPort

	byData, byFB map[uint32]network.Handler
	dataFn, fbFn network.Handler // standing demux closures (all towers/uplinks share them)

	evIdx   int
	evTimer sim.Timer
	evFn    func()

	runConfidence float64
	attachErr     error
}

// cellPort routes one flow's packets to its *current* cell, giving
// endpoints a stable Conn across handovers: down ports feed the flow's
// tower slot, up ports its cell's uplink. Sends while unattached (the flow
// departed, or churned endpoints outliving their span) are dropped and
// released — the radio bearer is gone.
type cellPort struct {
	cs *cellState
	fi int32
	up bool
}

func (p *cellPort) Send(pkt *network.Packet) {
	ci := p.cs.cellOf[p.fi]
	if ci < 0 {
		p.cs.w.pool.Put(pkt)
		return
	}
	if p.up {
		p.cs.uplinks[ci].Send(pkt)
		return
	}
	p.cs.towers[ci].Send(int(p.cs.slotOf[p.fi]), pkt)
}

// cell returns the world's cell-state, building it on first use.
func (w *world) cell() *cellState {
	if w.cellst == nil {
		cs := &cellState{
			w:      w,
			byData: map[uint32]network.Handler{},
			byFB:   map[uint32]network.Handler{},
		}
		cs.deferFn = cs.hub.Defer
		cs.dataFn = func(p *network.Packet) {
			if h, ok := cs.byData[p.Flow]; ok {
				h(p)
			}
		}
		cs.fbFn = func(p *network.Packet) {
			if h, ok := cs.byFB[p.Flow]; ok {
				h(p)
			}
		}
		cs.evFn = cs.runEvents
		w.cellst = cs
	}
	return w.cellst
}

// ensureCells sizes the per-cell machinery to the spec: compiled process
// instances (one private pair per cell), schedulers, tower/link/RNG slots
// and the Itoa memo for seed derivation.
func (cs *cellState) ensureCells(c *CellSpec, spec Spec) error {
	if cs.dataSpecKey != spec.Process || cs.fbSpecKey != spec.FeedbackProcess {
		cs.dataProcs, cs.fbProcs = cs.dataProcs[:0], cs.fbProcs[:0]
		cs.dataSpecKey, cs.fbSpecKey = spec.Process, spec.FeedbackProcess
	}
	for len(cs.dataProcs) < c.Cells {
		dp, err := spec.Process.compile()
		if err != nil {
			return err
		}
		fp, err := spec.FeedbackProcess.compile()
		if err != nil {
			return err
		}
		cs.dataProcs = append(cs.dataProcs, dp)
		cs.fbProcs = append(cs.fbProcs, fp)
	}
	if cs.schedName != c.Scheduler || cs.schedGain != c.PFGain {
		cs.scheds = cs.scheds[:0]
		cs.schedName, cs.schedGain = c.Scheduler, c.PFGain
	}
	for len(cs.scheds) < c.Cells {
		s := cell.NewScheduler(c.Scheduler, c.PFGain)
		if s == nil {
			return fmt.Errorf("scenario: unknown cell scheduler %q", c.Scheduler)
		}
		cs.scheds = append(cs.scheds, s)
	}
	for len(cs.towers) < c.Cells {
		cs.towers = append(cs.towers, nil)
	}
	for len(cs.uplinks) < c.Cells {
		cs.uplinks = append(cs.uplinks, nil)
	}
	for len(cs.fwdRands) < c.Cells {
		cs.fwdRands = append(cs.fwdRands, nil)
	}
	for len(cs.revRands) < c.Cells {
		cs.revRands = append(cs.revRands, nil)
	}
	for len(cs.cellNames) < c.Cells {
		cs.cellNames = append(cs.cellNames, strconv.Itoa(len(cs.cellNames)))
	}
	return nil
}

// cellSeeds derives one cell's four seeds. Cell 0 uses the dedicated-link
// path's frozen derivations (processSeeds, +1000/+2000 loss offsets) so
// the degenerate one-cell, one-flow round-robin run is byte-identical to
// runDirect; further cells draw independent streams via DeriveSeed.
func (cs *cellState) cellSeeds(seed int64, ci int) (data, fb, lossFwd, lossRev int64) {
	if ci == 0 {
		data, fb = processSeeds(seed)
		return data, fb, seed + 1000, seed + 2000
	}
	name := cs.cellNames[ci]
	return engine.DeriveSeed(seed, "cell-data", name),
		engine.DeriveSeed(seed, "cell-feedback", name),
		engine.DeriveSeed(seed, "cell-loss-fwd", name),
		engine.DeriveSeed(seed, "cell-loss-rev", name)
}

// sizeFlows sizes the flat per-flow tables for n flows, retaining storage
// across runs. Ports are initialized once per growth; their pointers stay
// stable for the whole run (endpoints hold them as Conns).
func (cs *cellState) sizeFlows(n int) {
	if cap(cs.ids) < n {
		cs.ids = make([]uint32, n)
		cs.schemes = make([]Scheme, n)
		cs.cellOf = make([]int32, n)
		cs.slotOf = make([]int32, n)
		cs.eps = make([]Endpoint, n)
		cs.dataPorts = make([]cellPort, n)
		cs.fbPorts = make([]cellPort, n)
		for i := 0; i < n; i++ {
			cs.dataPorts[i] = cellPort{cs: cs, fi: int32(i)}
			cs.fbPorts[i] = cellPort{cs: cs, fi: int32(i), up: true}
		}
	}
	cs.ids = cs.ids[:n]
	cs.schemes = cs.schemes[:n]
	cs.cellOf = cs.cellOf[:n]
	cs.slotOf = cs.slotOf[:n]
	cs.eps = cs.eps[:n]
	cs.dataPorts = cs.dataPorts[:n]
	cs.fbPorts = cs.fbPorts[:n]
	for i := 0; i < n; i++ {
		cs.cellOf[i], cs.slotOf[i] = -1, -1
		cs.eps[i] = Endpoint{}
	}
}

// attachFlow claims a tower slot for flow index fi on cell ci and
// constructs (or Reset-reuses, via the endpoint memo) its endpoints.
func (cs *cellState) attachFlow(fi int, ci int32) {
	slot := cs.towers[ci].Attach()
	cs.cellOf[fi], cs.slotOf[fi] = ci, int32(slot)
	var dfr func(*transport.Receiver)
	if cs.hubOn {
		dfr = cs.deferFn
	}
	ep, err := cs.schemes[fi].New(AttachConfig{
		Flow:          cs.ids[fi],
		Clock:         cs.w.loop,
		DataConn:      &cs.dataPorts[fi],
		FeedbackConn:  &cs.fbPorts[fi],
		Confidence:    cs.runConfidence,
		Packets:       &cs.w.pool,
		world:         cs.w,
		DeferFeedback: dfr,
	})
	if err != nil {
		if cs.attachErr == nil {
			cs.attachErr = fmt.Errorf("scenario: attach %s: %w", cs.schemes[fi].Name, err)
		}
		cs.towers[ci].Detach(slot)
		cs.cellOf[fi], cs.slotOf[fi] = -1, -1
		return
	}
	cs.eps[fi] = ep
	cs.byData[cs.ids[fi]] = ep.Data
	cs.byFB[cs.ids[fi]] = ep.Feedback
}

// detachFlow releases a departing flow's tower slot. Its endpoints keep
// ticking (stopping them mid-run would disturb event-queue priorities for
// nothing); sends through the detached ports are dropped.
func (cs *cellState) detachFlow(fi int) {
	ci := cs.cellOf[fi]
	if ci < 0 {
		return
	}
	cs.towers[ci].Detach(int(cs.slotOf[fi]))
	cs.cellOf[fi], cs.slotOf[fi] = -1, -1
}

// handoverFlow moves an active flow to cell dst: queued downlink packets
// are dropped with the old bearer, the flow re-attaches at the new tower.
func (cs *cellState) handoverFlow(fi int, dst int32) {
	ci := cs.cellOf[fi]
	if ci < 0 || ci == dst {
		return
	}
	cs.towers[ci].Detach(int(cs.slotOf[fi]))
	slot := cs.towers[dst].Attach()
	cs.cellOf[fi], cs.slotOf[fi] = dst, int32(slot)
}

// runEvents executes every due schedule event, then re-arms the standing
// timer for the next one.
func (cs *cellState) runEvents() {
	now := cs.w.loop.Now()
	evs := cs.schedule.Events
	for cs.evIdx < len(evs) && evs[cs.evIdx].At <= now {
		ev := evs[cs.evIdx]
		cs.evIdx++
		switch ev.Kind {
		case cell.EvArrive:
			cs.attachFlow(int(ev.Flow), ev.Cell)
		case cell.EvDepart:
			cs.detachFlow(int(ev.Flow))
		case cell.EvHandover:
			cs.handoverFlow(int(ev.Flow), ev.Cell)
		}
	}
	if cs.evIdx < len(evs) {
		cs.evTimer = sim.Reschedule(cs.w.loop, cs.evTimer, evs[cs.evIdx].At-now, cs.evFn)
	}
}

// runCell executes a cell-world spec: per-cell towers sharing one delivery
// process each across their attached flows, precomputed churn/handover,
// and hub-batched Sprout feedback. The construction sequence mirrors
// runDirect exactly (tower before uplink, metrics, then endpoints in group
// order), so the degenerate one-flow round-robin cell replays the
// dedicated-link path's event stream byte for byte.
func runCell(spec Spec, w *world) (Result, error) {
	cs := w.cell()
	c := spec.Cell
	if err := cs.ensureCells(c, spec); err != nil {
		return Result{}, err
	}

	// The complete churn/handover timeline is drawn before the world
	// opens: the flow roster, every lifetime and every handover pick are
	// fixed at run start from one dedicated seed, independent of engine
	// worker or shard count.
	nInit := c.totalInitialFlows()
	cs.initCells = cs.initCells[:0]
	for _, g := range c.Groups {
		for i := 0; i < g.Flows; i++ {
			cs.initCells = append(cs.initCells, int32(g.Cell))
		}
	}
	duration := time.Duration(spec.Duration)
	scfg := cell.ScheduleConfig{
		Seed:         engine.DeriveSeed(spec.Seed, "cell-churn"),
		Duration:     duration,
		Cells:        c.Cells,
		HandoverRate: c.HandoverRate,
		InitialCells: cs.initCells,
	}
	if c.Churn != nil {
		scfg.ArrivalRate = c.Churn.ArrivalRate
		scfg.MeanLifetime = time.Duration(c.Churn.MeanLifetime)
	}
	cs.schedule.Build(scfg)

	n := nInit + len(cs.schedule.Spans)
	cs.sizeFlows(n)
	fi := 0
	for _, g := range c.Groups {
		scheme, _ := Lookup(g.Scheme) // validated at Normalize
		for i := 0; i < g.Flows; i++ {
			cs.ids[fi] = g.BaseFlow + uint32(i)
			cs.schemes[fi] = scheme
			fi++
		}
	}
	if len(cs.schedule.Spans) > 0 {
		churnScheme, _ := Lookup(c.Churn.Scheme)
		for i := range cs.schedule.Spans {
			cs.ids[fi] = churnFlowBase + uint32(i)
			cs.schemes[fi] = churnScheme
			fi++
		}
	}

	w.begin()

	// Towers and uplinks reset in cell order, forward before reverse per
	// cell — each reset schedules the cell's first delivery opportunity,
	// so this order is part of the determinism contract (and, for cell 0,
	// of the byte identity with runDirect).
	for ci := 0; ci < c.Cells; ci++ {
		dataSeed, fbSeed, lossFwd, lossRev := cs.cellSeeds(spec.Seed, ci)
		tc := cell.Config{
			Process:          cs.dataProcs[ci],
			ProcessSeed:      dataSeed,
			PropagationDelay: time.Duration(spec.PropDelay),
			LossRate:         spec.Loss,
			Rand:             reseed(&cs.fwdRands[ci], lossFwd),
			Scheduler:        cs.scheds[ci],
			Pool:             &w.pool,
		}
		if cs.towers[ci] == nil {
			cs.towers[ci] = cell.NewTower(w.loop, tc, w.tapped(cs.dataFn))
		} else {
			cs.towers[ci].Reset(tc, w.tapped(cs.dataFn))
		}
		lc := link.Config{
			Process:          cs.fbProcs[ci],
			ProcessSeed:      fbSeed,
			PropagationDelay: time.Duration(spec.PropDelay),
			LossRate:         spec.Loss,
			Rand:             reseed(&cs.revRands[ci], lossRev),
		}
		w.resetLink(&cs.uplinks[ci], lc, cs.fbFn)
	}

	// Metrics: all flows register up front; churned flows clip their
	// accumulation to their lifetime window. Opportunity instants arrive
	// from every tower in one globally nondecreasing stream (event-loop
	// order), so the streaming omniscient bound and utilization are
	// fleet-wide.
	for i := 0; i < n; i++ {
		w.flowIDs = append(w.flowIDs, cs.ids[i])
	}
	w.acc.Start(time.Duration(spec.Skip), duration, w.flowIDs)
	for i, sp := range cs.schedule.Spans {
		w.acc.SetFlowWindow(nInit+i, sp.Start, sp.End)
	}
	w.acc.TrackOpportunities(time.Duration(spec.PropDelay))
	for ci := 0; ci < c.Cells; ci++ {
		cs.towers[ci].OnOpportunity(w.observeOp)
		cs.towers[ci].OnDelivery(w.observe)
	}

	// The hub engages whenever the run can ever hold more than one flow —
	// a static decision at run start (the roster is precomputed), so the
	// plain one-flow cell stays hubless and byte-identical to runDirect.
	cs.hubOn = n > 1
	cs.hub.Reset(w.loop)

	clear(cs.byData)
	clear(cs.byFB)
	cs.runConfidence = spec.Confidence
	cs.attachErr = nil

	// Static flows attach in group order, ids ascending within a group —
	// the same construction order attachGroups uses.
	fi = 0
	for _, g := range c.Groups {
		for i := 0; i < g.Flows; i++ {
			cs.attachFlow(fi, int32(g.Cell))
			if cs.attachErr != nil {
				return Result{}, cs.attachErr
			}
			fi++
		}
	}

	// The hub arms after every initial receiver so its tick sorts after
	// theirs at shared instants; the churn timer arms last.
	if cs.hubOn {
		cs.hub.Arm(core.DefaultTick)
	}
	cs.evIdx = 0
	cs.evTimer = sim.Timer{}
	if len(cs.schedule.Events) > 0 {
		cs.evTimer = w.loop.After(cs.schedule.Events[0].At, cs.evFn)
	}

	w.loop.Run(duration)
	if cs.attachErr != nil {
		return Result{}, cs.attachErr
	}
	res := Result{Spec: spec}
	res.Metrics = w.acc.EvaluateStreaming()
	res.finishFlowsCell(cs, w)
	return res, nil
}

// finishFlowsCell derives per-flow results and cross-flow aggregates, like
// finishFlows but reading scheme names from the flat flow table (cell
// rosters are not group-shaped once churn joins).
func (r *Result) finishFlowsCell(cs *cellState, w *world) {
	n := w.acc.FlowCount()
	if n == 0 {
		return
	}
	r.Flows = w.takeFlowResults(n)
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		flow, tput, d95 := w.acc.Flow(i)
		r.Flows[i] = FlowResult{
			Flow:          flow,
			Scheme:        cs.schemes[i].Name,
			ThroughputBps: tput,
			Delay95:       d95,
		}
		sum += tput
		sumSq += tput * tput
	}
	if n == 1 {
		r.Delay95 = r.Flows[0].Delay95
	} else {
		r.Delay95 = w.acc.Delay95()
	}
	if sumSq > 0 {
		r.JainIndex = sum * sum / (float64(n) * sumSq)
	}
}
