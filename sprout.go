// Package sprout is a Go implementation of Sprout, the transport protocol
// for interactive applications over cellular wireless networks from
// "Stochastic Forecasts Achieve High Throughput and Low Delay over Cellular
// Networks" (Winstein, Sivaraman, Balakrishnan — NSDI 2013).
//
// Sprout's receiver models the cellular link as a doubly-stochastic
// process: packet deliveries are Poisson with a rate λ that itself wanders
// in Brownian motion, with a sticky outage state. Every 20 ms the receiver
// performs a Bayesian update on a 256-bin discretization of λ and sends the
// sender a cautious forecast — the 5th-percentile cumulative number of
// packets the link will deliver over each of the next eight ticks. The
// sender turns the forecast into a window of bytes guaranteed (with 95%
// probability) to clear the bottleneck queue within 100 ms.
//
// This package is the public facade over the implementation:
//
//   - the inference engine (Model, DeliveryForecaster, EWMAForecaster);
//   - the protocol endpoints (Sender, Receiver) usable over the included
//     discrete-event simulator or real UDP sockets;
//   - the Cellsim-style trace-driven link emulator (Link, Trace) and the
//     synthetic cellular trace generator;
//   - SproutTunnel (TunnelEndpoint, one per side) for carrying arbitrary
//     flows with per-flow isolation;
//   - declarative experiments (ScenarioSpec, RunScenario, RunScenarios):
//     scheme(s), link, loss, tunnel, durations and seed as data, run in
//     virtual time on a deterministic parallel engine whose results are
//     byte-identical at any worker count. The paper's own tables and
//     figures are specs of this kind, listed once in internal/harness and
//     printed by cmd/sproutbench.
//
// See examples/ for runnable programs and DESIGN.md for the architecture
// and the per-experiment index.
package sprout

import (
	"context"
	"time"

	"sprout/internal/core"
	"sprout/internal/link"
	"sprout/internal/metrics"
	"sprout/internal/network"
	"sprout/internal/saturator"
	"sprout/internal/scenario"
	"sprout/internal/sim"
	"sprout/internal/trace"
	"sprout/internal/transport"
	"sprout/internal/tunnel"
)

// MTU is the packet size (bytes) the model's delivery opportunities are
// denominated in.
const MTU = network.MTU

// Inference engine (the paper's §3 contribution).
type (
	// Params configures the stochastic link model; zero fields take the
	// paper's frozen constants (256 bins, 1000 pkt/s, 20 ms tick,
	// σ = 200, λz = 1, 95% confidence, 8-tick horizon).
	Params = core.Params
	// Model is the Bayesian filter over the link rate.
	Model = core.Model
	// Forecaster is the per-tick link model interface consumed by the
	// transport (Bayesian or EWMA).
	Forecaster = core.Forecaster
	// Observation classifies a tick's packet count (exact, censored
	// lower bound, or skip).
	Observation = core.Observation
	// DeliveryForecaster produces Sprout's cautious cumulative delivery
	// forecasts from a Model.
	DeliveryForecaster = core.DeliveryForecaster
	// EWMAForecaster is the Sprout-EWMA variant's rate tracker.
	EWMAForecaster = core.EWMAForecaster
)

// Observation modes.
const (
	ObsExact   = core.ObsExact
	ObsAtLeast = core.ObsAtLeast
	ObsSkip    = core.ObsSkip
)

// NewModel builds the Bayesian link model (uniform prior over rates).
func NewModel(p Params) *Model { return core.NewModel(p) }

// NewDeliveryForecaster builds Sprout's forecaster over a model,
// precomputing (once per process per parameter set) its forecast table.
func NewDeliveryForecaster(m *Model) *DeliveryForecaster {
	return core.NewDeliveryForecaster(m)
}

// NewEWMAForecaster builds the Sprout-EWMA rate tracker: gain 1/8 per
// 20 ms tick, 8-tick horizon.
func NewEWMAForecaster() *EWMAForecaster { return core.NewEWMAForecaster() }

// DefaultParams returns the paper's frozen model constants.
func DefaultParams() Params { return core.DefaultParams() }

// Transport endpoints.
type (
	// Packet is one datagram moving through links and endpoints.
	Packet = network.Packet
	// Conn carries packets toward a peer (an emulated link, a UDP
	// socket adapter, or any function via ConnFunc).
	Conn = network.Conn
	// ConnFunc adapts a function to Conn.
	ConnFunc = network.ConnFunc
	// Clock abstracts time: the event loop, on virtual time or paced by
	// the wall clock.
	Clock = sim.Clock
	// Sender is the Sprout sending endpoint.
	Sender = transport.Sender
	// SenderConfig configures a Sender.
	SenderConfig = transport.SenderConfig
	// Receiver is the Sprout receiving endpoint (runs the inference).
	Receiver = transport.Receiver
	// ReceiverConfig configures a Receiver.
	ReceiverConfig = transport.ReceiverConfig
	// Source provides application data to a Sender.
	Source = transport.Source
	// BulkSource is an infinite backlog Source.
	BulkSource = transport.BulkSource
)

// NewSender creates a Sprout sender.
func NewSender(cfg SenderConfig) *Sender { return transport.NewSender(cfg) }

// NewReceiver creates a Sprout receiver.
func NewReceiver(cfg ReceiverConfig) *Receiver { return transport.NewReceiver(cfg) }

// Simulation and emulation.
type (
	// Simulation is the deterministic discrete-event loop.
	Simulation = sim.Loop
	// Trace is a sequence of link delivery opportunities.
	Trace = trace.Trace
	// LinkModel generates synthetic cellular traces using the paper's
	// own stochastic link model.
	LinkModel = trace.LinkModel
	// NetworkPair is a named downlink/uplink model pair.
	NetworkPair = trace.NetworkPair
	// Link is one direction of a Cellsim-style emulated path.
	Link = link.Link
	// LinkConfig configures a Link.
	LinkConfig = link.Config
	// Delivery is one delivered-packet record, handed to a Link's OnDelivery
	// observer.
	Delivery = link.Delivery
)

// NewSimulation returns a fresh virtual-time event loop.
func NewSimulation() *Simulation { return sim.New() }

// NewLink creates an emulated link on a clock; deliver receives packets as
// they cross.
func NewLink(clock Clock, cfg LinkConfig, deliver func(*Packet)) *Link {
	return link.New(clock, cfg, deliver)
}

// CanonicalNetworks returns the four cellular networks of the paper's
// evaluation as downlink/uplink model pairs.
func CanonicalNetworks() []NetworkPair { return trace.CanonicalNetworks() }

// CanonicalLink looks up one of the eight canonical link models by name
// (e.g. "Verizon-LTE-down").
func CanonicalLink(name string) (LinkModel, bool) { return trace.CanonicalLink(name) }

// Tunnel (§4.3).
type (
	// TunnelEndpoint is one side of SproutTunnel: per-flow queues feeding
	// a Sprout sender, and a Sprout receiver for the far side's session.
	TunnelEndpoint = tunnel.Endpoint
	// TunnelConfig wires one TunnelEndpoint.
	TunnelConfig = tunnel.Config
)

// NewTunnelEndpoint builds one side of the tunnel; attach its Receive as
// the handler of the path from the far side.
func NewTunnelEndpoint(cfg TunnelConfig) *TunnelEndpoint { return tunnel.New(cfg) }

// Saturator (§4.1): the trace-capture measurement tool.
type (
	// SaturatorSender keeps a link's queue permanently backlogged,
	// holding the observed RTT in [750 ms, 3000 ms].
	SaturatorSender = saturator.Sender
	// SaturatorConfig configures the saturating sender.
	SaturatorConfig = saturator.SenderConfig
	// SaturatorReceiver records ground-truth delivery instants and
	// exports them as a Trace.
	SaturatorReceiver = saturator.Receiver
)

// NewSaturatorSender starts saturating immediately.
func NewSaturatorSender(cfg SaturatorConfig) *SaturatorSender {
	return saturator.NewSender(cfg)
}

// NewSaturatorReceiver creates the recording endpoint; conn carries echoes
// back toward the sender.
func NewSaturatorReceiver(flow uint32, clock Clock, conn Conn) *SaturatorReceiver {
	return saturator.NewReceiver(flow, clock, conn)
}

// Metrics (§5.1).
type (
	// Metrics aggregates throughput, 95% end-to-end delay, the
	// omniscient bound, self-inflicted delay and utilization.
	Metrics = metrics.Result
)

// Evaluate computes the paper's metrics for a delivery log over [from, to)
// against the trace that drove the link.
func Evaluate(dl []Delivery, tr *Trace, prop, from, to time.Duration) Metrics {
	return metrics.Evaluate(dl, tr, prop, from, to)
}

// Schemes lists the paper's scheme names in figure order, enumerated from
// the scenario registry.
func Schemes() []string { return scenario.PaperSchemes() }

// Declarative scenarios: the registry + spec layer every experiment runs
// through (internal/scenario).
type (
	// ScenarioSpec declares one experiment — scheme(s), link or traces,
	// direction, loss, CoDel, tunnel, durations, seed — as data.
	ScenarioSpec = scenario.Spec
	// ScenarioFlowGroup is one homogeneous set of flows inside a spec.
	ScenarioFlowGroup = scenario.FlowGroup
	// ScenarioResult is the outcome of one spec: aggregate §5.1 metrics
	// plus per-flow throughput/delay and fairness.
	ScenarioResult = scenario.Result
	// ScenarioDuration is a time.Duration that marshals to JSON as a
	// "150s"-style string (numeric seconds also parse).
	ScenarioDuration = scenario.Duration
	// SchemeInfo is one scheme registration: metadata plus the
	// constructor that builds its endpoints on an emulated path.
	SchemeInfo = scenario.Scheme
)

// RegisterScheme adds a scheme to the registry, making it runnable by
// name from scenario specs and the canonical grids.
func RegisterScheme(s SchemeInfo) { scenario.Register(s) }

// LoadScenarios parses a JSON scenario file (see DESIGN.md §8.2 for the
// format).
func LoadScenarios(path string) ([]ScenarioSpec, error) { return scenario.LoadFile(path) }

// RunScenario executes one spec to completion in virtual time.
func RunScenario(spec ScenarioSpec) (ScenarioResult, error) { return scenario.Run(spec, nil) }

// RunScenarios executes specs through the deterministic parallel engine
// (workers <= 0 uses every core; results are identical at any setting).
func RunScenarios(ctx context.Context, specs []ScenarioSpec, workers int) ([]ScenarioResult, error) {
	results, _, err := scenario.RunAll(ctx, specs, workers)
	return results, err
}

// GenerateTracePair deterministically generates the data/feedback traces
// for one network and direction ("down" or "up"): the pair a ScenarioSpec
// naming that Link, Direction, Duration and Seed runs on.
func GenerateTracePair(pair NetworkPair, direction string, d time.Duration, seed int64) (data, feedback *Trace) {
	return scenario.GenerateTracePair(pair, direction, d, seed)
}
