package link

// Scheduler apportions one link's delivery opportunities among its
// attached slots. The link drives it with the slot lifecycle
// (Attach/Detach), queue-occupancy transitions (Backlog), and the grant
// loop (Opportunity, then Pick/Grant until the per-opportunity budget or
// the backlog is exhausted). Implementations must be deterministic: given
// the same call sequence they must produce the same picks, with ties
// broken by ascending slot index. internal/cell holds the multi-user
// schedulers.
type Scheduler interface {
	// Reset clears every slot and restores construction state, keeping
	// buffers (world reuse).
	Reset()
	// Attach introduces slot (growing internal state as needed); the
	// slot starts idle (not backlogged) with no service history.
	Attach(slot int)
	// Detach removes slot; a detached slot is never picked.
	Detach(slot int)
	// Backlog reports slot's transition into (true) or out of (false)
	// the backlogged state. The link only reports transitions, never
	// repeats the current state.
	Backlog(slot int, backlogged bool)
	// Opportunity marks the start of one delivery opportunity (one
	// MTU's worth of budget), before any Pick. Proportional-fair decays
	// every flow's served-throughput EWMA here.
	Opportunity()
	// Pick returns the backlogged slot to serve next, or -1 if none is
	// backlogged (the link keeps count and does not ask then). It may
	// only return a slot the link has reported backlogged: the link
	// panics on any other. Pick does not consume the slot: the link
	// serves it until its queue drains or the budget ends, reporting
	// bytes via Grant.
	Pick() int
	// Grant reports bytes of the current opportunity served to slot.
	Grant(slot int, bytes int)
	// Name returns the registry name ("round-robin", ...).
	Name() string
}

// standing is round-robin over the one standing slot of a dedicated link:
// the slot is served whenever it is backlogged.
type standing struct{ backlogged bool }

func (s *standing) Reset()                 { s.backlogged = false }
func (s *standing) Attach(int)             {}
func (s *standing) Detach(int)             { s.backlogged = false }
func (s *standing) Backlog(_ int, on bool) { s.backlogged = on }
func (s *standing) Opportunity()           {}
func (s *standing) Grant(int, int)         {}
func (s *standing) Name() string           { return "round-robin" }

func (s *standing) Pick() int {
	if s.backlogged {
		return 0
	}
	return -1
}
