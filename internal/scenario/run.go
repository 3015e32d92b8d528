package scenario

import (
	"fmt"
	"time"

	"sprout/internal/cell"
	"sprout/internal/engine"
	"sprout/internal/link"
	"sprout/internal/metrics"
	"sprout/internal/network"
	"sprout/internal/tunnel"
)

const (
	// tunnelSessionDown and tunnelSessionUp are the Sprout session flow
	// ids carrying tunneled client traffic in each direction.
	tunnelSessionDown = 1
	tunnelSessionUp   = 2
	// autoFlowStart is where automatic flow-id assignment begins for
	// multi-group and tunnel specs, clear of the session ids.
	autoFlowStart = 10
)

// TunnelClientMSS is the client packet size inside the tunnel: the frame
// header (26 B) plus the Sprout header (76 B) must fit the link MTU.
const TunnelClientMSS = 1300

// FlowResult is one flow's share of a run.
type FlowResult struct {
	// Flow is the flow id on the shared path; Scheme the scheme that
	// drove it.
	Flow   uint32
	Scheme string
	// ThroughputBps is the flow's delivered data-direction throughput
	// over (skip, duration].
	ThroughputBps float64
	// Delay95 is the flow's 95th-percentile end-to-end delay.
	Delay95 time.Duration
}

// Result is the outcome of running one Spec.
type Result struct {
	// Spec is the normalized spec that ran.
	Spec Spec
	// Metrics holds the §5.1 aggregate metrics of the data direction
	// against the driving trace. Unset in tunnel mode, where the link's
	// raw deliveries are Sprout frames, not client data.
	Metrics metrics.Result
	// Flows reports each flow's throughput and delay, in flow-id order.
	Flows []FlowResult
	// Delay95 is the 95th-percentile end-to-end delay over all flows.
	Delay95 time.Duration
	// JainIndex is Jain's fairness index over per-flow throughputs
	// (meaningful with two or more flows; 1.0 = perfectly fair).
	JainIndex float64
	// HeadDrops counts forecast-bounded head drops at the tunnel
	// ingress (tunnel mode only).
	HeadDrops int64
	// Deliveries is the raw data-direction delivery log (from the link,
	// or from the tunnel egress in tunnel mode), recorded only when the
	// spec sets KeepDeliveries; the §5.1 metrics accumulate online and
	// need no retained log.
	Deliveries []link.Delivery
}

// Run executes one Spec to completion in virtual time. traces may be nil;
// passing a shared engine.Cache lets concurrent runs share generated trace
// pairs.
func Run(spec Spec, traces *engine.Cache) (Result, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return Result{}, err
	}
	return compile(norm).run(traces, newWorld())
}

// compiled is a normalized spec ready to run on any world. A spec on a
// canonical link carries its trace pair's cache key and generator, built
// once here, so every run's lookup is one Get that allocates nothing.
type compiled struct {
	spec Spec
	key  string     // the pair's cache key; unused when gen is nil
	gen  func() any // the direction-free tracePair; nil when the spec needs none
}

// compile prepares a normalized spec (Normalize has resolved its link).
// The trace cache is keyed per (network, duration, seed): direction is only
// a view, since GenerateTracePair derives both directions from the same
// per-link seeds, so the §5.5 sweep, both loss-table directions and
// multi-scheme grids all share one immutable pair per (link, seed), by
// reference. Streaming specs and specs with injected traces need no pair.
func compile(norm Spec) compiled {
	c := compiled{spec: norm}
	if norm.Process != nil || norm.DataTrace != nil {
		return c
	}
	pair, _ := LookupNetwork(norm.Link)
	d, seed := time.Duration(norm.Duration), norm.Seed
	c.key = fmt.Sprintf("%s/%d/%d", pair.Name, int64(d), seed)
	c.gen = func() any {
		down, up := GenerateTracePair(pair, "down", d, seed)
		return tracePair{down, up}
	}
	return c
}

// run executes the compiled spec on w, a fresh world or a worker's pooled
// one. traces may be nil, in which case the pair is generated for this run
// alone.
func (c compiled) run(traces *engine.Cache, w *world) (Result, error) {
	norm := c.spec
	if c.gen != nil {
		var tp tracePair
		if traces == nil {
			tp = c.gen().(tracePair)
		} else {
			tp = traces.Get(c.key, c.gen).(tracePair)
		}
		norm.DataTrace, norm.FeedbackTrace = tp.down, tp.up
		if norm.Direction == "up" {
			norm.DataTrace, norm.FeedbackTrace = tp.up, tp.down
		}
	}
	if norm.Tunnel {
		return runTunnel(norm, w)
	}
	return runFlows(norm, w)
}

// useCoDel resolves the spec's AQM choice: an explicit override wins,
// otherwise any group's scheme defaulting to CoDel turns it on.
func (s Spec) useCoDel() bool {
	if s.CoDel != nil {
		return *s.CoDel
	}
	for _, g := range s.Groups {
		if scheme, ok := Lookup(g.Scheme); ok && scheme.UsesCoDel {
			return true
		}
	}
	return false
}

// buildRoster fills the flow table and draws the churn timeline. The
// static flows come from whichever grammar declared them, in group order,
// ids ascending within a group; churned flows follow in arrival order.
//
// The complete churn/handover timeline is drawn before any flow attaches:
// the flow roster, every lifetime and every handover pick are fixed at
// run start from one dedicated seed, independent of engine worker or
// shard count. A roster without churn or handover draws nothing.
func (w *world) buildRoster(spec Spec) {
	for _, g := range spec.Groups {
		w.addFlows(g.Scheme, g.BaseFlow, g.Count, 0)
	}
	scfg := cell.ScheduleConfig{Duration: time.Duration(spec.Duration)}
	if c := spec.Cell; c != nil {
		for _, g := range c.Groups {
			w.addFlows(g.Scheme, g.BaseFlow, g.Flows, int32(g.Cell))
		}
		scfg.Seed = engine.DeriveSeed(spec.Seed, "cell-churn")
		scfg.Cells = c.Cells
		scfg.HandoverRate = c.HandoverRate
		scfg.InitialCells = w.initCells
		if c.Churn != nil {
			scfg.ArrivalRate = c.Churn.ArrivalRate
			scfg.MeanLifetime = time.Duration(c.Churn.MeanLifetime)
		}
	}
	w.schedule.Build(scfg)
	if len(w.schedule.Spans) > 0 {
		w.addFlows(spec.Cell.Churn.Scheme, churnFlowBase, len(w.schedule.Spans), -1)
	}
}

// addFlows appends n rows of one scheme (validated at Normalize) to the
// flow table; ci >= 0 is the cell the flows attach to at run start.
func (w *world) addFlows(name string, base uint32, n int, ci int32) {
	scheme, _ := Lookup(name)
	for i := 0; i < n; i++ {
		w.flows = append(w.flows, flow{scheme: scheme})
		w.flowIDs = append(w.flowIDs, base+uint32(i))
		if ci >= 0 {
			w.initCells = append(w.initCells, ci)
		}
	}
}

// attachRoster arms the accumulator for the roster and constructs every
// static flow's endpoints in table order, then binds the demux and arms
// the churn timer. Construction order is part of the determinism
// contract: endpoints schedule their first events at construction (or
// Reset, which schedules identically), and the event loop breaks
// timestamp ties by insertion order. cfg carries what the flows share: the
// path they all send on (DataConn/FeedbackConn), or none when each flow is
// a cell user with a slot of its own.
func (w *world) attachRoster(spec Spec, cfg AttachConfig) error {
	cfg.Clock, cfg.Confidence, cfg.Packets, cfg.world = w.loop, spec.Confidence, &w.pool, w
	w.attach = cfg
	// Every flow registers up front; churned flows clip their accumulation
	// to their lifetime window.
	w.acc.Start(time.Duration(spec.Skip), time.Duration(spec.Duration), w.flowIDs)
	for i, sp := range w.schedule.Spans {
		w.acc.SetFlowWindow(len(w.initCells)+i, sp.Start, sp.End)
	}
	for fi, ci := range w.initCells {
		if err := w.attachFlow(fi, ci); err != nil {
			return err
		}
	}
	if len(w.flows) == 1 {
		// A lone flow owns both links: no demux on the per-packet path.
		w.onFwd, w.onRev = w.byData[w.flowIDs[0]], w.byFB[w.flowIDs[0]]
	} else {
		w.onFwd, w.onRev = w.demuxData, w.demuxFB
	}
	if evs := w.schedule.Events; len(evs) > 0 {
		w.evTimer = w.loop.After(evs[0].At, w.evFn)
	}
	return nil
}

// attachFlow constructs (or Reset-reuses, via the endpoint memo) flow
// fi's endpoints on cell ci.
func (w *world) attachFlow(fi int, ci int32) error {
	f := &w.flows[fi]
	cfg := w.attach
	cfg.Flow = w.flowIDs[fi]
	if cfg.DataConn == nil {
		c := &w.cells[ci]
		f.down = port{pool: &w.pool, link: c.down, slot: c.down.Attach()}
		f.up = port{pool: &w.pool, link: c.up}
		cfg.DataConn, cfg.FeedbackConn = &f.down, &f.up
	}
	ep, err := f.scheme.New(cfg)
	if err != nil {
		return fmt.Errorf("scenario: attach %s: %w", f.scheme.Name, err)
	}
	w.byData[cfg.Flow], w.byFB[cfg.Flow] = ep.Data, ep.Feedback
	return nil
}

// runEvents executes every due churn-timeline event, then re-arms the
// standing timer for the next one. A departing user's endpoints keep
// ticking (stopping them mid-run would disturb event-queue priorities for
// nothing); their sends through the detached ports are dropped. A handover
// drops the user's queued downlink packets with the old bearer and
// re-attaches it at the new tower.
func (w *world) runEvents() {
	now := w.loop.Now()
	evs := w.schedule.Events
	for w.evIdx < len(evs) && evs[w.evIdx].At <= now {
		ev := evs[w.evIdx]
		w.evIdx++
		f := &w.flows[ev.Flow]
		switch ev.Kind {
		case cell.EvArrive:
			if err := w.attachFlow(int(ev.Flow), ev.Cell); err != nil && w.attachErr == nil {
				w.attachErr = err
			}
		case cell.EvDepart:
			f.down.link.Detach(f.down.slot)
			f.down.link, f.up.link = nil, nil
		case cell.EvHandover:
			dst := &w.cells[ev.Cell]
			f.down.link.Detach(f.down.slot)
			f.down.link, f.down.slot = dst.down, dst.down.Attach()
			f.up.link = dst.up
		}
	}
	if w.evIdx < len(evs) {
		w.evTimer = w.loop.Reschedule(w.evTimer, evs[w.evIdx].At-now, w.evFn)
	}
}

// runFlows places the flows straight on the emulated network: C cells of
// one downlink and one uplink each. A dedicated-path spec — the layout of
// every figure and table except §5.7's tunnel comparison — is one cell
// whose flows all share each link's standing slot, the paper's single
// Cellsim queue; a cell spec gives every user a downlink slot of its own,
// apportioned by the cell's scheduler, with precomputed churn and
// handover. Both run this one sequence (links, metrics, then endpoints in
// table order), so the one-user round-robin cell replays the dedicated
// path's event stream byte for byte.
func runFlows(spec Spec, w *world) (Result, error) {
	cells := 1
	if spec.Cell != nil {
		cells = spec.Cell.Cells
	}
	if err := w.openCells(spec, cells, w.fwdHandler, w.revHandler); err != nil {
		return Result{}, err
	}
	var shared AttachConfig
	if spec.Cell == nil {
		shared.DataConn, shared.FeedbackConn = w.cells[0].down, w.cells[0].up
	}
	w.buildRoster(spec)

	// Metrics accumulate as packets cross the downlinks; the raw log is
	// kept only when the spec asks for it. The omniscient bound and the
	// offered capacity accumulate online too, from the opportunity
	// instants the links service — a streamed process's and a replayed
	// trace's alike, so a trace shorter than the run counts every loop it
	// serves. The instants arrive from every cell in one globally
	// nondecreasing stream (event-loop order), so the bound and the
	// utilization are fleet-wide.
	for i := range w.cells[:cells] {
		down := w.cells[i].down
		down.OnOpportunity(w.observeOp)
		down.OnDelivery(w.observe)
	}
	w.cells[0].down.RecordDeliveries(spec.KeepDeliveries)
	if err := w.attachRoster(spec, shared); err != nil {
		return Result{}, err
	}
	w.acc.TrackOpportunities(time.Duration(spec.PropDelay))

	w.loop.Run(time.Duration(spec.Duration))
	if w.attachErr != nil {
		return Result{}, w.attachErr
	}
	res := Result{Spec: spec, Metrics: w.acc.EvaluateStreaming()}
	if spec.KeepDeliveries {
		res.Deliveries = w.cells[0].down.TakeDeliveries()
	}
	res.finishFlows(w)
	return res, nil
}

// runTunnel carries the client flows through SproutTunnel (§4.3): one
// tunnel endpoint per side, each with per-flow queues, round-robin service
// and forecast-bounded head drops at its ingress.
func runTunnel(spec Spec, w *world) (Result, error) {
	// Side A sends client data on Sprout session 1 over the data link;
	// side B sends client feedback on session 2 over the feedback link.
	// Each link also carries the other session's forecasts, and each side
	// routes what arrives by session id.
	var a, b *tunnel.Endpoint
	err := w.openCells(spec, 1, func(p *network.Packet) { b.Receive(p) }, func(p *network.Packet) { a.Receive(p) })
	if err != nil {
		return Result{}, err
	}
	// Client endpoints attach after the tunnel's, so the egress handlers
	// late-bind exactly like the direct path's links. A is built before B:
	// construction order is part of the determinism contract.
	a = tunnel.New(tunnel.Config{
		Clock: w.loop, Conn: w.cells[0].down, Send: tunnelSessionDown, Recv: tunnelSessionUp,
		Deliver: w.tapped(w.revHandler), Pool: &w.pool,
	})
	b = tunnel.New(tunnel.Config{
		Clock: w.loop, Conn: w.cells[0].up, Send: tunnelSessionUp, Recv: tunnelSessionDown,
		Deliver: w.tapped(w.fwdHandler), Pool: &w.pool,
	})
	var log []link.Delivery
	if spec.KeepDeliveries {
		b.Egress.OnDelivery(func(d link.Delivery) {
			w.observe(d)
			log = append(log, d)
		})
	} else {
		b.Egress.OnDelivery(w.observe)
	}

	w.buildRoster(spec)
	clients := AttachConfig{
		DataConn:     network.ConnFunc(a.Ingress.Submit),
		FeedbackConn: network.ConnFunc(b.Ingress.Submit),
		MSS:          TunnelClientMSS,
	}
	if err := w.attachRoster(spec, clients); err != nil {
		return Result{}, err
	}

	w.loop.Run(time.Duration(spec.Duration))
	res := Result{Spec: spec, HeadDrops: a.Ingress.HeadDrops(), Deliveries: log}
	res.finishFlows(w)
	return res, nil
}

// finishFlows derives the per-flow and cross-flow aggregates from the
// accumulator's streams.
func (r *Result) finishFlows(w *world) {
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
			Scheme:        w.flows[i].scheme.Name,
			ThroughputBps: tput,
			Delay95:       d95,
		}
		sum += tput
		sumSq += tput * tput
	}
	if n == 1 {
		// The lone flow's log is the whole log: its percentile is the
		// aggregate, no second pass needed.
		r.Delay95 = r.Flows[0].Delay95
	} else {
		r.Delay95 = w.acc.Delay95()
	}
	if sumSq > 0 {
		r.JainIndex = sum * sum / (float64(n) * sumSq)
	}
}
