package scenario

import (
	"fmt"
	"time"

	"sprout/internal/codel"
	"sprout/internal/engine"
	"sprout/internal/link"
	"sprout/internal/metrics"
	"sprout/internal/network"
	"sprout/internal/transport"
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
	return runNormalized(norm, traces, newWorld())
}

// runNormalized executes a pre-normalized spec on the given pooled world
// (the per-worker reuse path; CompileJobs normalizes once at compile time
// so the hot job body does only simulation work). Streaming specs skip
// trace resolution entirely: no materialized trace exists anywhere in
// their run, and the engine cache is never consulted.
func runNormalized(norm Spec, traces *engine.Cache, w *world) (Result, error) {
	if norm.Process == nil {
		data, feedback, err := norm.resolveTraces(traces, w)
		if err != nil {
			return Result{}, err
		}
		norm.DataTrace, norm.FeedbackTrace = data, feedback
	}
	if norm.Cell != nil {
		return runCell(norm, w)
	}
	if norm.Tunnel {
		return runTunnel(norm, w)
	}
	return runDirect(norm, w)
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

// linkSources resolves the spec's two opportunity sources into link
// configs: either the materialized trace pair or the world's reusable
// compiled process instances with their frozen per-direction seeds.
func linkSources(spec Spec, w *world) (fwd, rev link.Config, err error) {
	if spec.Process == nil {
		fwd.Trace, rev.Trace = spec.DataTrace, spec.FeedbackTrace
		return fwd, rev, nil
	}
	dataProc, err := w.processFor(spec.Process)
	if err != nil {
		return fwd, rev, err
	}
	fbProc, err := w.processFor(spec.FeedbackProcess)
	if err != nil {
		return fwd, rev, err
	}
	fwd.Process, rev.Process = dataProc, fbProc
	fwd.ProcessSeed, rev.ProcessSeed = processSeeds(spec.Seed)
	return fwd, rev, nil
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

// flowEndpoint pairs a flow id with its endpoints for demux.
type flowEndpoint struct {
	flow uint32
	ep   Endpoint
}

// dispatch returns a link delivery handler over the attached endpoints,
// with side selecting each flow's handler (data or feedback direction). A
// single flow dispatches directly (the historical single-flow fast path);
// multiple flows demux on the packet's flow id in O(1), dropping unknown
// ids — this sits on the innermost per-packet path of every multi-flow
// run.
func dispatch(eps []flowEndpoint, side func(Endpoint) network.Handler) network.Handler {
	if len(eps) == 1 {
		return side(eps[0].ep)
	}
	byFlow := make(map[uint32]network.Handler, len(eps))
	for _, fe := range eps {
		byFlow[fe.flow] = side(fe.ep)
	}
	return func(p *network.Packet) {
		if h, ok := byFlow[p.Flow]; ok {
			h(p)
		}
	}
}

func dispatchData(eps []flowEndpoint) network.Handler {
	return dispatch(eps, func(ep Endpoint) network.Handler { return ep.Data })
}

func dispatchFeedback(eps []flowEndpoint) network.Handler {
	return dispatch(eps, func(ep Endpoint) network.Handler { return ep.Feedback })
}

// attachGroups constructs every group's flows in spec order, flow ids
// ascending within a group. Construction order is part of the determinism
// contract: endpoints schedule their first events at construction (or
// Reset, which schedules identically), and the event loop breaks timestamp
// ties by insertion order.
func attachGroups(spec Spec, w *world, dataConn, feedbackConn Conn, mss int) ([]flowEndpoint, error) {
	eps := w.eps[:0]
	for _, g := range spec.Groups {
		scheme, ok := Lookup(g.Scheme)
		if !ok {
			return nil, unknownSchemeError(g.Scheme)
		}
		for i := 0; i < g.Count; i++ {
			ep, err := scheme.New(AttachConfig{
				Flow:         g.BaseFlow + uint32(i),
				Clock:        w.loop,
				DataConn:     dataConn,
				FeedbackConn: feedbackConn,
				Confidence:   spec.Confidence,
				MSS:          mss,
				Packets:      &w.pool,
				world:        w,
			})
			if err != nil {
				return nil, fmt.Errorf("scenario: attach %s: %w", g.Scheme, err)
			}
			eps = append(eps, flowEndpoint{flow: g.BaseFlow + uint32(i), ep: ep})
		}
	}
	w.eps = eps
	return eps, nil
}

// trackFlows arms the world's accumulator with the spec's flow ids in
// attachment order.
func trackFlows(spec Spec, w *world) {
	for _, g := range spec.Groups {
		for i := 0; i < g.Count; i++ {
			w.flowIDs = append(w.flowIDs, g.BaseFlow+uint32(i))
		}
	}
	w.acc.Start(time.Duration(spec.Skip), time.Duration(spec.Duration), w.flowIDs)
}

// runDirect places the flows straight on the emulated path: the layout of
// every figure and table except §5.7's tunnel comparison.
func runDirect(spec Spec, w *world) (Result, error) {
	fwdCfg, revCfg, err := linkSources(spec, w)
	if err != nil {
		return Result{}, err
	}
	w.begin()
	duration := time.Duration(spec.Duration)
	streaming := spec.Process != nil

	var fwdDeq, revDeq link.Dequeuer
	if spec.useCoDel() {
		f, r := codel.New(0, 0), codel.New(0, 0)
		f.UsePool(&w.pool)
		r.UsePool(&w.pool)
		fwdDeq, revDeq = f, r
	}
	// All randomness is job-local: each link's loss RNG is freshly
	// re-seeded from the spec seed here, inside the job, so concurrent
	// experiment jobs never share a *rand.Rand (see internal/engine's
	// package doc for the determinism contract). The +1000/+2000 offsets
	// are frozen: they are part of the regenerated figures' byte
	// identity.
	fwdCfg.PropagationDelay = time.Duration(spec.PropDelay)
	fwdCfg.LossRate = spec.Loss
	fwdCfg.Dequeuer = fwdDeq
	fwdCfg.Rand = reseed(&w.fwdRand, spec.Seed+1000)
	fwd := w.resetLink(&w.fwd, fwdCfg, w.fwdHandler)
	revCfg.PropagationDelay = time.Duration(spec.PropDelay)
	revCfg.LossRate = spec.Loss
	revCfg.Dequeuer = revDeq
	revCfg.Rand = reseed(&w.revRand, spec.Seed+2000)
	rev := w.resetLink(&w.rev, revCfg, w.revHandler)

	// Metrics accumulate as packets cross the link; the raw log is kept
	// only when the spec asks for it. Streaming runs also accumulate the
	// omniscient bound and offered capacity online, from the opportunity
	// instants the link services — there is no trace to consult later.
	trackFlows(spec, w)
	if streaming {
		w.acc.TrackOpportunities(time.Duration(spec.PropDelay))
		fwd.OnOpportunity(w.observeOp)
	}
	fwd.OnDelivery(w.observe)
	fwd.RecordDeliveries(spec.KeepDeliveries)

	eps, err := attachGroups(spec, w, fwd, rev, 0)
	if err != nil {
		return Result{}, err
	}
	w.onFwd, w.onRev = dispatchData(eps), dispatchFeedback(eps)

	w.loop.Run(duration)
	res := Result{Spec: spec}
	if streaming {
		res.Metrics = w.acc.EvaluateStreaming()
	} else {
		res.Metrics = w.acc.Evaluate(spec.DataTrace, time.Duration(spec.PropDelay))
	}
	if spec.KeepDeliveries {
		res.Deliveries = fwd.TakeDeliveries()
	}
	res.finishFlows(spec, w)
	return res, nil
}

// runTunnel carries the client flows through SproutTunnel (§4.3): one
// Sprout session per direction, per-flow queues with round-robin service
// and forecast-bounded head drops at the ingress.
func runTunnel(spec Spec, w *world) (Result, error) {
	fwdCfg, revCfg, err := linkSources(spec, w)
	if err != nil {
		return Result{}, err
	}
	w.begin()
	loop := w.loop
	duration := time.Duration(spec.Duration)

	// Sprout session 1 carries client data A->B on the data trace;
	// session 2 carries client feedback B->A on the feedback trace.
	// The data link also carries session 2's forecast packets, and the
	// feedback link session 1's; endpoints demux on the Sprout flow id.
	var rcvDown, rcvUp *transport.Receiver
	var sndDown, sndUp *transport.Sender

	fwdCfg.PropagationDelay = time.Duration(spec.PropDelay)
	fwdCfg.LossRate = spec.Loss
	fwdCfg.Rand = reseed(&w.fwdRand, spec.Seed+1000)
	fwd := w.resetLink(&w.fwd, fwdCfg, func(p *network.Packet) {
		switch p.Flow {
		case tunnelSessionDown:
			rcvDown.Receive(p)
		case tunnelSessionUp:
			sndUp.Receive(p)
		}
	})
	revCfg.PropagationDelay = time.Duration(spec.PropDelay)
	revCfg.LossRate = spec.Loss
	revCfg.Rand = reseed(&w.revRand, spec.Seed+2000)
	rev := w.resetLink(&w.rev, revCfg, func(p *network.Packet) {
		switch p.Flow {
		case tunnelSessionDown:
			sndDown.Receive(p)
		case tunnelSessionUp:
			rcvUp.Receive(p)
		}
	})

	ingressDown := tunnel.NewIngress() // at A, feeds tunnelSessionDown
	ingressDown.UsePool(&w.pool)
	ingressUp := tunnel.NewIngress() // at B, feeds tunnelSessionUp
	ingressUp.UsePool(&w.pool)

	// Client endpoints attach after the tunnel machinery, so the egress
	// handlers late-bind exactly like the direct path's links.
	egressDown := tunnel.NewEgress(loop, w.tapped(w.fwdHandler))
	egressDown.UsePool(&w.pool)
	trackFlows(spec, w)
	egressDown.OnDelivery(w.observe)
	egressDown.RecordDeliveries(spec.KeepDeliveries)
	egressUp := tunnel.NewEgress(loop, w.tapped(w.revHandler))
	egressUp.UsePool(&w.pool)

	rcvDown = transport.NewReceiver(transport.ReceiverConfig{
		Flow: tunnelSessionDown, Clock: loop, Conn: rev, Deliver: egressDown.Deliver,
		Pool: &w.pool,
	})
	sndDown = transport.NewSender(transport.SenderConfig{
		Flow: tunnelSessionDown, Clock: loop, Conn: fwd, Source: ingressDown,
		Pool: &w.pool,
	})
	ingressDown.Bind(sndDown)
	rcvUp = transport.NewReceiver(transport.ReceiverConfig{
		Flow: tunnelSessionUp, Clock: loop, Conn: fwd, Deliver: egressUp.Deliver,
		Pool: &w.pool,
	})
	sndUp = transport.NewSender(transport.SenderConfig{
		Flow: tunnelSessionUp, Clock: loop, Conn: rev, Source: ingressUp,
		Pool: &w.pool,
	})
	ingressUp.Bind(sndUp)

	submitDown := transport.ConnFunc(func(p *network.Packet) { ingressDown.Submit(p) })
	submitUp := transport.ConnFunc(func(p *network.Packet) { ingressUp.Submit(p) })

	eps, err := attachGroups(spec, w, submitDown, submitUp, TunnelClientMSS)
	if err != nil {
		return Result{}, err
	}
	w.onFwd, w.onRev = dispatchData(eps), dispatchFeedback(eps)

	loop.Run(duration)
	res := Result{
		Spec:      spec,
		HeadDrops: ingressDown.HeadDrops(),
	}
	if spec.KeepDeliveries {
		res.Deliveries = egressDown.TakeDeliveries()
	}
	res.finishFlows(spec, w)
	return res, nil
}

// finishFlows derives the per-flow and cross-flow aggregates from the
// accumulator's streams.
func (r *Result) finishFlows(spec Spec, w *world) {
	n := w.acc.FlowCount()
	if n == 0 {
		return
	}
	r.Flows = w.takeFlowResults(n)
	var sum, sumSq float64
	gi, gc := 0, 0 // walk groups in step with the flow order
	for i := 0; i < n; i++ {
		for gc >= spec.Groups[gi].Count {
			gi++
			gc = 0
		}
		flow, tput, d95 := w.acc.Flow(i)
		r.Flows[i] = FlowResult{
			Flow:          flow,
			Scheme:        spec.Groups[gi].Scheme,
			ThroughputBps: tput,
			Delay95:       d95,
		}
		gc++
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
