package cell

import (
	"sprout/internal/link"
	"sprout/internal/network"
	"sprout/internal/sim"
)

// Config parameterizes one Tower. It is the link's Config: a cell sets
// Process, Scheduler and whichever impairments it wants.
type Config = link.Config

// Scheduler apportions a tower's delivery opportunities among its
// attached slots; see link.Scheduler for the contract.
type Scheduler = link.Scheduler

// Tower is one shared cell: a link.Link serving one slot per attached
// user (the base station's per-user queues of §2.1) under a Scheduler.
// With one attached slot under round-robin it is the dedicated link, by
// construction.
type Tower struct{ *link.Link }

// NewTower creates a tower on the clock and starts its delivery schedule.
// Users claim slots with Attach. deliver is invoked with each fully
// delivered packet; the caller demuxes on the packet's flow id.
func NewTower(clock sim.Clock, cfg Config, deliver network.Handler) *Tower {
	if cfg.Scheduler == nil {
		panic("cell: Config requires a Scheduler")
	}
	return &Tower{link.New(clock, cfg, deliver)}
}

// Send submits a packet toward slot; see link.Link.SendTo.
func (t *Tower) Send(slot int, pkt *network.Packet) { t.SendTo(slot, pkt) }
