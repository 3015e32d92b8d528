package scenario

import (
	"math/rand"
	"strconv"
	"testing"
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

// The reference world (DESIGN.md §8.7) runs a direct or cell spec with
// none of runFlows' optimisations: a fresh loop, one After event per
// arrival, an event per opportunity, heap packets, fresh endpoints, and
// batch metrics over the whole delivery log. It shares with runFlows only the contract: seed
// derivations, roster order, Scheme.New and cell.Schedule.

// refClock is the run's loop seen through sim.Clock alone: no Sequencer,
// so its links schedule an event per arrival, at the priority Reserve
// gives an arrival, and fire every opportunity at their rank's priority —
// the same order of an instant's events as the world's.
type refClock struct{ loop *sim.Loop }

func (c refClock) Now() time.Duration { return c.loop.Now() }
func (c refClock) After(d time.Duration, fn func()) sim.Timer {
	return c.loop.RescheduleAt(sim.Timer{}, c.loop.Reserve(d), fn)
}
func (c refClock) Reschedule(t sim.Timer, d time.Duration, fn func()) sim.Timer {
	return c.loop.Reschedule(t, d, fn)
}
func (c refClock) NewRank() uint32 { return c.loop.NewRank() }
func (c refClock) RescheduleAt(t sim.Timer, r sim.Reservation, fn func()) sim.Timer {
	return c.loop.RescheduleAt(t, r, fn)
}

// refLink is one direction of one cell with the counts its packet
// conservation check reads.
type refLink struct {
	*link.Link
	loop            *sim.Loop
	horizon         time.Duration // the run's end less the propagation delay
	sent, delivered int64
	inFlight        int64 // sent after the horizon: still crossing at the end
	detached        bool  // a slot was detached, flushing what it held
}

// refPort carries one flow's packets onto a link slot; while the flow has
// no link (it departed) its sends are dropped.
type refPort struct {
	l    *refLink
	slot int
}

func (p *refPort) Send(pkt *network.Packet) {
	if p.l == nil {
		return
	}
	p.l.sent++
	if p.l.loop.Now() > p.l.horizon {
		p.l.inFlight++
	}
	p.l.SendTo(p.slot, pkt)
}

// refStats counts the churn timeline's events the reference executed.
type refStats struct{ arrivals, departures, handovers int }

// referenceRun runs a normalized direct or cell spec on the reference
// world and checks packet conservation on every link: what was sent was
// delivered, dropped, is still crossing the propagation delay, or is held
// — at least one packet per non-empty slot and, on a link that never
// flushed a slot, at most one per byte queued.
func referenceRun(t testing.TB, spec Spec) (Result, refStats) {
	t.Helper()
	loop := sim.New()
	dur, skip, prop := time.Duration(spec.Duration), time.Duration(spec.Skip), time.Duration(spec.PropDelay)
	var log []link.Delivery
	var served []time.Duration
	byData, byFB := map[uint32]network.Handler{}, map[uint32]network.Handler{}
	demux := func(l *refLink, by map[uint32]network.Handler) network.Handler {
		return func(p *network.Packet) {
			l.delivered++
			if h := by[p.Flow]; h != nil {
				h(p)
			}
		}
	}

	data, feedback := spec.DataTrace, spec.FeedbackTrace
	if spec.Process == nil && data == nil {
		pair, _ := trace.LookupNetwork(spec.Link)
		data, feedback = GenerateTracePair(pair, spec.Direction, dur, spec.Seed)
	}

	cells := 1
	if spec.Cell != nil {
		cells = spec.Cell.Cells
	}
	downs, ups := make([]*refLink, cells), make([]*refLink, cells)
	for ci := range downs {
		dataSeed, fbSeed := processSeeds(spec.Seed)
		lossFwd, lossRev := spec.Seed+1000, spec.Seed+2000
		if name := strconv.Itoa(ci); ci > 0 {
			dataSeed = engine.DeriveSeed(spec.Seed, "cell-data", name)
			fbSeed = engine.DeriveSeed(spec.Seed, "cell-feedback", name)
			lossFwd = engine.DeriveSeed(spec.Seed, "cell-loss-fwd", name)
			lossRev = engine.DeriveSeed(spec.Seed, "cell-loss-rev", name)
		}
		down := link.Config{Trace: data, ProcessSeed: dataSeed, PropagationDelay: prop, LossRate: spec.Loss}
		up := down
		up.Trace, up.ProcessSeed = feedback, fbSeed
		if spec.Loss > 0 {
			down.Rand, up.Rand = rand.New(rand.NewSource(lossFwd)), rand.New(rand.NewSource(lossRev))
		}
		if spec.Process != nil { // Normalize compiled both once already
			down.Process, _ = spec.Process.compile()
			up.Process, _ = spec.FeedbackProcess.compile()
		}
		if c := spec.Cell; c != nil {
			down.Scheduler = cell.NewScheduler(c.Scheduler)
		}
		if spec.useCoDel() {
			down.Dequeuer, up.Dequeuer = codel.New(nil), codel.New(nil)
		}
		downs[ci], ups[ci] = &refLink{loop: loop, horizon: dur - prop}, &refLink{loop: loop, horizon: dur - prop}
		downs[ci].Link = link.New(refClock{loop}, down, demux(downs[ci], byData))
		ups[ci].Link = link.New(refClock{loop}, up, demux(ups[ci], byFB))
		downs[ci].OnDelivery(func(d link.Delivery) { log = append(log, d) })
		downs[ci].OnOpportunity(func(at time.Duration) { served = append(served, at) })
	}

	// The roster: static flows in group order, ids ascending within a
	// group, then churned flows in arrival order (DESIGN.md §8.3).
	type refFlow struct {
		scheme   Scheme
		id       uint32
		down, up refPort
	}
	var flows []refFlow
	var initCells []int32
	add := func(name string, base uint32, n int, ci int32) {
		scheme, _ := Lookup(name)
		for i := 0; i < n; i++ {
			flows = append(flows, refFlow{scheme: scheme, id: base + uint32(i)})
			if ci >= 0 {
				initCells = append(initCells, ci)
			}
		}
	}
	for _, g := range spec.Groups {
		add(g.Scheme, g.BaseFlow, g.Count, 0)
	}
	var schedule cell.Schedule
	scfg := cell.ScheduleConfig{Duration: dur}
	if c := spec.Cell; c != nil {
		for _, g := range c.Groups {
			add(g.Scheme, g.BaseFlow, g.Flows, int32(g.Cell))
		}
		scfg.Seed = engine.DeriveSeed(spec.Seed, "cell-churn")
		scfg.Cells, scfg.HandoverRate, scfg.InitialCells = c.Cells, c.HandoverRate, initCells
		if c.Churn != nil {
			scfg.ArrivalRate, scfg.MeanLifetime = c.Churn.ArrivalRate, time.Duration(c.Churn.MeanLifetime)
		}
	}
	schedule.Build(scfg)
	static := len(flows)
	if len(schedule.Spans) > 0 {
		add(spec.Cell.Churn.Scheme, churnFlowBase, len(schedule.Spans), -1)
	}

	shared := [2]refPort{{downs[0], 0}, {ups[0], 0}}
	attach := func(fi int, ci int32) {
		f := &flows[fi]
		cfg := AttachConfig{Flow: f.id, Clock: loop, Confidence: spec.Confidence, DataConn: &shared[0], FeedbackConn: &shared[1]}
		if spec.Cell != nil {
			f.down, f.up = refPort{downs[ci], downs[ci].Attach()}, refPort{ups[ci], 0}
			cfg.DataConn, cfg.FeedbackConn = &f.down, &f.up
		}
		ep, err := f.scheme.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		byData[f.id], byFB[f.id] = ep.Data, ep.Feedback
	}
	for fi, ci := range initCells {
		attach(fi, ci)
	}

	// The churn timeline runs on one timer, re-armed after each batch of
	// due events, as the determinism contract has it.
	var stats refStats
	evs, next := schedule.Events, 0
	var runEvents func()
	runEvents = func() {
		now := loop.Now()
		for ; next < len(evs) && evs[next].At <= now; next++ {
			ev := evs[next]
			f := &flows[ev.Flow]
			switch ev.Kind {
			case cell.EvArrive:
				stats.arrivals++
				attach(int(ev.Flow), ev.Cell)
			case cell.EvDepart, cell.EvHandover:
				f.down.l.Detach(f.down.slot)
				f.down.l.detached = true
				f.down.l, f.up.l = nil, nil
				if ev.Kind == cell.EvDepart {
					stats.departures++
					continue
				}
				stats.handovers++
				f.down, f.up.l = refPort{downs[ev.Cell], downs[ev.Cell].Attach()}, ups[ev.Cell]
			}
		}
		if next < len(evs) {
			loop.After(evs[next].At-now, runEvents)
		}
	}
	if len(evs) > 0 {
		loop.After(evs[0].At, runEvents)
	}
	loop.Run(dur)

	for _, l := range append(downs, ups...) {
		loss, aqm := l.Drops()
		held := l.sent - l.delivered - loss - aqm - l.StaleDrops() - l.inFlight
		var busy, bytes int64
		for s := 0; s < l.Slots(); s++ {
			if b := l.SlotBytes(s); b > 0 {
				busy, bytes = busy+1, bytes+int64(b)
			}
		}
		if held < busy || !l.detached && held > bytes {
			t.Errorf("packets not conserved: %d sent = %d delivered + %d/%d/%d dropped + %d in flight + %d held, but %d slots hold %d B",
				l.sent, l.delivered, loss, aqm, l.StaleDrops(), l.inFlight, held, busy, bytes)
		}
	}

	res := Result{
		Spec:    spec,
		Metrics: metrics.Evaluate(log, &trace.Trace{Name: "served", Opportunities: served}, prop, skip, dur),
		Delay95: metrics.EndToEndDelay(log, skip, dur, 0.95),
	}
	if spec.KeepDeliveries {
		res.Deliveries = log
	}
	var sum, sumSq float64
	for i, f := range flows {
		from, to := skip, dur
		if i >= static {
			sp := schedule.Spans[i-static]
			from, to = max(from, sp.Start), min(to, sp.End)
			to = max(to, from)
		}
		own := metrics.FilterFlow(log, f.id)
		tput := metrics.Throughput(own, from, to)
		res.Flows = append(res.Flows, FlowResult{
			Flow: f.id, Scheme: f.scheme.Name, ThroughputBps: tput,
			Delay95: metrics.EndToEndDelay(own, from, to, 0.95),
		})
		sum, sumSq = sum+tput, sumSq+tput*tput
	}
	if sumSq > 0 {
		res.JainIndex = sum * sum / (float64(len(flows)) * sumSq)
	}
	return res, stats
}

// genSpec draws one small direct or cell spec from seed: 1–4 flows of any
// registered scheme, a link or a process pair, loss, CoDel, a scheduler,
// two cells with handover, churn, and a kept delivery log on about half.
// The seed's low bits pick the first scheme, the grammar, source or
// scheduler, CoDel or two cells, and churn, so consecutive seeds cover
// each.
func genSpec(seed int64) Spec {
	rng := rand.New(rand.NewSource(seed))
	u := uint64(seed)
	pick := func(xs ...float64) float64 { return xs[rng.Intn(len(xs))] }
	names := AllSchemes()
	schemes := make([]string, 1+rng.Intn(4))
	for i := range schemes {
		schemes[i] = names[rng.Intn(len(names))]
	}
	schemes[0] = names[u%uint64(len(names))]
	nets := trace.CanonicalNetworks()
	pair := nets[rng.Intn(len(nets))]
	s := Spec{
		Duration:   Duration(2*time.Second + time.Duration(rng.Intn(3))*500*time.Millisecond),
		Skip:       Duration(time.Duration(1+rng.Intn(3)) * 300 * time.Millisecond),
		PropDelay:  Duration(time.Duration(pick(1, 5, 20, 40)) * time.Millisecond),
		Seed:       1 + rng.Int63n(1000),
		Loss:       pick(0, 0, 0.01, 0.05),
		Confidence: pick(0, 0, 0.25, 0.75),
	}
	process := func() {
		s.Process = &ProcessSpec{Model: pair.Down.Name, Scale: pick(0, 0, 0.5, 1.5)}
		s.FeedbackProcess = &ProcessSpec{Model: pair.Up.Name}
		if rng.Intn(3) == 0 {
			s.Process.Outages = []OutageWindow{{Start: Duration(time.Second), End: Duration(1300 * time.Millisecond)}}
		}
	}
	if u%2 == 0 {
		for _, name := range schemes {
			s.Groups = append(s.Groups, FlowGroup{Scheme: name})
		}
		if (u/2)%2 == 0 {
			s.Link, s.Direction = pair.Name, []string{"down", "up"}[rng.Intn(2)]
		} else {
			process()
		}
		if (u/4)%2 == 1 {
			on := true
			s.CoDel = &on
		}
		s.KeepDeliveries = rng.Intn(2) == 0
		return s
	}
	c := &CellSpec{Cells: 1}
	if (u/2)%2 == 1 {
		c.Scheduler = "proportional-fair"
	}
	if (u/4)%2 == 1 {
		c.Cells, c.HandoverRate = 2, pick(1, 2)
	}
	for _, name := range schemes {
		c.Groups = append(c.Groups, CellGroup{Scheme: name, Flows: 1, Cell: rng.Intn(c.Cells)})
	}
	if (u/8)%2 == 1 || rng.Intn(3) == 0 {
		c.Churn = &ChurnSpec{ArrivalRate: pick(1, 2), MeanLifetime: Duration(time.Second)}
		if rng.Intn(2) == 0 {
			c.Churn.Scheme = names[rng.Intn(len(names))]
		}
	}
	s.Cell = c
	process()
	s.KeepDeliveries = rng.Intn(2) == 0
	return s
}

// matchesReference runs the generated spec on the shared warm world w and
// on the reference world, and fails t unless the two results are the same
// and the world's satisfies the invariants every result must.
func matchesReference(t *testing.T, w *world, traces *engine.Cache, seed int64) (Result, refStats) {
	t.Helper()
	norm, err := genSpec(seed).Normalize()
	if err != nil {
		t.Fatalf("seed %d: generated spec does not normalize: %v", seed, err)
	}
	got, err := compile(norm).run(traces, w)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	want, stats := referenceRun(t, norm)
	sameResult(t, got, want)
	checkResult(t, got)
	return got, stats
}

// TestReferenceWorld: on every generated spec, scenario.Run's result
// equals the reference world's, record for record and, where the spec
// keeps its log, delivery for delivery across every cell, and satisfies
// the invariants. The optimized side runs every spec on one warm world,
// so reuse across scheme, grammar, source and loss switches is checked
// too. The test asserts its own coverage.
func TestReferenceWorld(t *testing.T) {
	n := int64(64)
	if testing.Short() {
		n = 16
	}
	w, traces := newWorld(), engine.NewCache()
	seen := map[string]bool{}
	cellLogs, cellDeliveries := 0, 0
	for seed := int64(0); seed < n; seed++ {
		res, stats := matchesReference(t, w, traces, seed)
		s, c := res.Spec, res.Spec.Cell
		if c != nil && s.KeepDeliveries {
			cellLogs, cellDeliveries = cellLogs+1, cellDeliveries+len(res.Deliveries)
		}
		if t.Failed() {
			t.Fatalf("seed %d: %s", seed, s.Label())
		}
		t.Logf("seed %d: %s, %d arrivals, %d departures, %d handovers", seed, s.Label(), stats.arrivals, stats.departures, stats.handovers)
		for _, f := range res.Flows {
			seen[f.Scheme] = true
		}
		for what, ok := range map[string]bool{
			"direct": c == nil, "cell": c != nil, "link": s.Process == nil, "process": s.Process != nil,
			"loss": s.Loss > 0, "codel": c == nil && s.useCoDel(), "two cells": c != nil && c.Cells == 2,
			"round-robin": c != nil && c.Scheduler == "round-robin", "handover": stats.handovers > 0,
			"proportional-fair": c != nil && c.Scheduler == "proportional-fair", "churn": stats.departures > 0,
			"kept log": c == nil && s.KeepDeliveries, "kept cell log": c != nil && c.Cells == 2 && s.KeepDeliveries,
		} {
			seen[what] = seen[what] || ok
		}
	}
	t.Logf("%d cell specs kept their logs: %d deliveries compared", cellLogs, cellDeliveries)
	want := append(AllSchemes(), "direct", "cell", "link", "process", "loss", "codel", "churn", "handover",
		"two cells", "round-robin", "proportional-fair", "kept log", "kept cell log")
	for _, what := range want {
		if !seen[what] {
			t.Errorf("no generated spec covers %s", what)
		}
	}
}

// FuzzReference is TestReferenceWorld's property on any seed. Each fuzz
// worker keeps one warm world across its inputs.
func FuzzReference(f *testing.F) {
	f.Add(int64(0))
	f.Add(int64(1))
	w, traces := newWorld(), engine.NewCache()
	f.Fuzz(func(t *testing.T, seed int64) {
		matchesReference(t, w, traces, seed)
	})
}
