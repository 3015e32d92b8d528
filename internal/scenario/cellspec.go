package scenario

import (
	"fmt"
	"math"
	"strings"

	"sprout/internal/cell"
)

// churnFlowBase is the first wire flow id assigned to churned cell flows;
// the spec's static groups must keep their ids below it so the two
// populations can never collide.
const churnFlowBase uint32 = 1 << 20

// CellGroup is one homogeneous set of statically attached cell users:
// Flows flows of one scheme starting on one cell and living for the whole
// run.
type CellGroup struct {
	// Scheme names a registered scheme.
	Scheme string `json:"scheme"`
	// Flows is the number of users; it must be positive (a cell group is
	// always written explicitly, so a defaulted count would only hide
	// typos).
	Flows int `json:"flows"`
	// Cell is the tower the group starts on (default 0).
	Cell int `json:"cell,omitempty"`
	// BaseFlow pins the first flow's wire id; zero auto-assigns (the
	// scheme's historical base for a lone group, sequential otherwise).
	BaseFlow uint32 `json:"base_flow,omitempty"`
}

// ChurnSpec declares Poisson flow arrival/departure churn: new users
// arrive at ArrivalRate per second, each picks a cell uniformly and stays
// for an exponential lifetime of the given mean.
type ChurnSpec struct {
	ArrivalRate  float64  `json:"arrival_rate"`
	MeanLifetime Duration `json:"mean_lifetime"`
	// Scheme drives the churned flows; empty inherits the first group's.
	Scheme string `json:"scheme,omitempty"`
}

// CellSpec is the Spec "cell" grammar: instead of a private link per flow,
// ONE shared delivery process per cell is apportioned across every
// attached flow by an opportunity scheduler, with optional churn and
// handover. The spec's process/feedback_process pair drives every cell
// (seed-derived per cell), and prop_delay/loss/confidence apply as on the
// dedicated path.
type CellSpec struct {
	// Scheduler names the opportunity scheduler ("round-robin",
	// "proportional-fair"); empty means round-robin.
	Scheduler string `json:"scheduler,omitempty"`
	// Cells is the number of towers (default 1).
	Cells int `json:"cells,omitempty"`
	// Groups lists the statically attached users.
	Groups []CellGroup `json:"groups"`
	// Churn, if set, adds Poisson arrival/departure churn.
	Churn *ChurnSpec `json:"churn,omitempty"`
	// HandoverRate, if positive, moves a uniformly-picked active flow to
	// another cell at this Poisson intensity (events/second). Requires
	// Cells > 1.
	HandoverRate float64 `json:"handover_rate,omitempty"`
}

// label summarizes the cell layout for derived spec names.
func (c *CellSpec) label() string {
	var parts []string
	for _, g := range c.Groups {
		name := g.Scheme
		if g.Flows > 1 {
			name = fmt.Sprintf("%dx %s", g.Flows, name)
		}
		parts = append(parts, name)
	}
	sched := c.Scheduler
	if sched == "" {
		sched = "round-robin"
	}
	l := "cell[" + sched
	if c.Cells > 1 {
		l += fmt.Sprintf(" x%d", c.Cells)
	}
	l += "] " + strings.Join(parts, " + ")
	if c.Churn != nil {
		l += " +churn"
	}
	return l
}

// normalizeCell validates the spec's cell grammar and resolves its
// defaults in place. Every rejection is a one-line error naming the bad
// field.
func (s *Spec) normalizeCell() error {
	c := *s.Cell // normalize a copy; the caller's spec stays untouched
	s.Cell = &c
	if s.Tunnel {
		return fmt.Errorf("scenario: cell and tunnel are mutually exclusive")
	}
	if s.CoDel != nil && *s.CoDel {
		return fmt.Errorf("scenario: CoDel on a cell is not supported (the tower's per-user queues have no AQM)")
	}
	if s.Process == nil {
		return fmt.Errorf("scenario: cell worlds stream their opportunities; declare a process")
	}
	if c.Scheduler == "" {
		c.Scheduler = "round-robin"
	}
	if cell.NewScheduler(c.Scheduler) == nil {
		return fmt.Errorf("scenario: unknown cell scheduler %q (have %v)", c.Scheduler, cell.SchedulerNames())
	}
	if c.Cells == 0 {
		c.Cells = 1
	}
	if c.Cells < 0 {
		return fmt.Errorf("scenario: negative cell count %d", c.Cells)
	}
	if len(c.Groups) == 0 {
		return fmt.Errorf("scenario: cell spec needs at least one flow group")
	}
	next := uint32(autoFlowStart)
	for i := range c.Groups {
		g := &c.Groups[i]
		scheme, ok := Lookup(g.Scheme)
		if !ok {
			return unknownSchemeError(g.Scheme)
		}
		if g.Flows <= 0 {
			return fmt.Errorf("scenario: cell group %s: flow count %d must be positive", g.Scheme, g.Flows)
		}
		if g.Cell < 0 || g.Cell >= c.Cells {
			return fmt.Errorf("scenario: cell group %s: cell %d outside [0, %d)", g.Scheme, g.Cell, c.Cells)
		}
		if uint64(g.BaseFlow)+uint64(g.Flows) > math.MaxUint32 {
			return fmt.Errorf("scenario: cell group %s: flow ids %d+%d overflow", g.Scheme, g.BaseFlow, g.Flows)
		}
		if g.BaseFlow == 0 {
			if len(c.Groups) == 1 {
				g.BaseFlow = scheme.BaseFlow
			} else {
				g.BaseFlow = next
			}
		}
		if end := g.BaseFlow + uint32(g.Flows); end > next {
			next = end
		}
		if g.BaseFlow+uint32(g.Flows) > churnFlowBase {
			return fmt.Errorf("scenario: cell group %s: flow ids must stay below %d (reserved for churned flows)", g.Scheme, churnFlowBase)
		}
	}
	for i, g := range c.Groups {
		for j := 0; j < i; j++ {
			p := c.Groups[j]
			if g.BaseFlow < p.BaseFlow+uint32(p.Flows) && p.BaseFlow < g.BaseFlow+uint32(g.Flows) {
				return fmt.Errorf("scenario: cell flow-id ranges of %s and %s overlap", p.Scheme, g.Scheme)
			}
		}
	}
	if c.Churn != nil {
		ch := *c.Churn
		c.Churn = &ch
		if ch.ArrivalRate < 0 {
			return fmt.Errorf("scenario: negative churn arrival_rate %v", ch.ArrivalRate)
		}
		if ch.ArrivalRate > 0 && ch.MeanLifetime <= 0 {
			return fmt.Errorf("scenario: churn needs a positive mean_lifetime")
		}
		if ch.Scheme == "" {
			c.Churn.Scheme = c.Groups[0].Scheme
		} else if _, ok := Lookup(ch.Scheme); !ok {
			return unknownSchemeError(ch.Scheme)
		}
	}
	if c.HandoverRate < 0 {
		return fmt.Errorf("scenario: negative handover_rate %v", c.HandoverRate)
	}
	if c.HandoverRate > 0 && c.Cells < 2 {
		return fmt.Errorf("scenario: handover needs at least 2 cells")
	}
	return nil
}
