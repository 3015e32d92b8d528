// Package scenario turns the paper's evaluation grid into data. It has two
// halves:
//
//   - a scheme registry: every congestion-control or endpoint scheme
//     (Sprout, the Sprout variants, the TCP baselines, the application
//     models) registers a named constructor plus metadata, so the set of
//     runnable schemes is enumerated — not hard-coded in string lists that
//     must be edited in lockstep with a switch statement;
//   - a composable Spec: link/trace selection, direction, Bernoulli loss,
//     CoDel, duration/skip, seed, confidence, and per-scheme flow counts,
//     which compiles to internal/engine jobs and runs deterministically at
//     any worker count.
//
// internal/harness's figure/table entry points are thin builders over this
// package, and cmd/sproutbench's -scenario mode loads Spec files directly,
// so grids the paper never ran (vegas under loss, multi-flow cubic-codel on
// any link) execute without touching harness internals.
package scenario

import (
	"fmt"
	"sort"

	"sprout/internal/network"
	"sprout/internal/sim"
)

// Conn carries packets toward a peer: the one packet-sink interface every
// endpoint package takes.
type Conn = network.Conn

// Endpoint is one flow's pair of packet handlers, as returned by a scheme
// constructor: Data handles packets delivered over the data link (the
// receiver side) and Feedback handles packets delivered over the feedback
// link (the sender side). A handler must not keep the packet or its
// payload after it returns: the network releases the packet to the
// worker's arena right then (DESIGN.md §3.1).
type Endpoint struct {
	Data     network.Handler
	Feedback network.Handler

	// tally, if set, adds the endpoints' counters to a run's Work.
	tally func(*Work)
	// reset, if set, re-arms these endpoints for a new run exactly as
	// construction with cfg would arm fresh ones; a world calls it instead
	// of the constructor when the flow-table row that built them attaches
	// again with the same scheme, confidence and MSS. A scheme registered
	// from outside leaves it nil and is rebuilt every run.
	reset func(cfg AttachConfig)
}

// AttachConfig is what a scheme constructor gets to build one flow's
// endpoints.
type AttachConfig struct {
	// Flow identifies this flow on the shared path.
	Flow uint32
	// Clock supplies virtual time and timers.
	Clock sim.Clock
	// DataConn carries the sender's packets toward the receiver;
	// FeedbackConn carries ACKs, receiver reports and forecasts back.
	DataConn, FeedbackConn Conn
	// Confidence overrides Sprout's forecast confidence (§5.5); zero
	// keeps the scheme default. Non-Sprout schemes ignore it.
	Confidence float64
	// MSS overrides the scheme's wire packet size (the tunnel needs
	// client packets to fit the link MTU after framing); zero keeps the
	// scheme default.
	MSS int
	// Packets, if non-nil, is the worker's packet arena; endpoints that
	// honour it draw every wire packet from the arena instead of the
	// heap. A scheme that ignores it sends heap packets, which the arena
	// adopts when the network releases them.
	Packets *network.Pool
}

// Constructor builds one flow's endpoints on an emulated path. It must be
// deterministic and must not retain shared mutable state across calls:
// each call builds endpoints of their own.
type Constructor func(cfg AttachConfig) (Endpoint, error)

// Scheme is one registered scheme: metadata plus its constructor.
type Scheme struct {
	// Name is the registry key, e.g. "sprout-ewma" or "cubic-codel".
	Name string
	// Description is a one-line summary for -list-schemes output.
	Description string
	// Extra marks schemes beyond the paper's ten (they build and run but
	// are excluded from the default figure/table grids).
	Extra bool
	// UsesCoDel runs the path's queues under CoDel AQM by default
	// (Spec.CoDel can override either way).
	UsesCoDel bool
	// BaseFlow is the flow id assigned to the scheme's first flow when a
	// Spec does not pin one explicitly. It preserves the historical ids
	// (Sprout sessions start at 0, TCP and app flows at 1), which keeps
	// regenerated figures byte-identical.
	BaseFlow uint32
	// New constructs one flow's endpoints.
	New Constructor
}

// registry preserves registration order, which for the built-ins is the
// order the paper's figures list the schemes.
var registry []Scheme

// Register adds a scheme to the registry. It panics on a duplicate or
// empty name or a nil constructor — registration is programmer error
// territory, not runtime input.
func Register(s Scheme) {
	if s.Name == "" {
		panic("scenario: Register with empty scheme name")
	}
	if s.New == nil {
		panic(fmt.Sprintf("scenario: Register(%q) with nil constructor", s.Name))
	}
	if _, ok := Lookup(s.Name); ok {
		panic(fmt.Sprintf("scenario: duplicate scheme %q", s.Name))
	}
	registry = append(registry, s)
}

// Lookup returns the named scheme's registration.
func Lookup(name string) (Scheme, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return Scheme{}, false
}

// Schemes returns every registration in registration order (paper order
// for the built-ins, extras after).
func Schemes() []Scheme {
	out := make([]Scheme, len(registry))
	copy(out, registry)
	return out
}

// PaperSchemes returns the names of the paper's schemes in figure order.
func PaperSchemes() []string {
	var names []string
	for _, s := range registry {
		if !s.Extra {
			names = append(names, s.Name)
		}
	}
	return names
}

// ExtraSchemes returns the names of registered schemes beyond the paper's
// set, in registration order.
func ExtraSchemes() []string {
	var names []string
	for _, s := range registry {
		if s.Extra {
			names = append(names, s.Name)
		}
	}
	return names
}

// AllSchemes returns every registered name, paper schemes first.
func AllSchemes() []string { return append(PaperSchemes(), ExtraSchemes()...) }

// unknownSchemeError formats the error for an unregistered name, listing
// what is available (sorted, so the message is stable).
func unknownSchemeError(name string) error {
	avail := AllSchemes()
	sort.Strings(avail)
	return fmt.Errorf("scenario: unknown scheme %q (registered: %v)", name, avail)
}
