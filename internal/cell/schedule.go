package cell

import (
	"math/rand"
	"sort"
	"time"
)

// EventKind tags one churn-timeline event.
type EventKind uint8

const (
	// EvArrive attaches a churned flow to its cell.
	EvArrive EventKind = iota
	// EvDepart detaches a churned flow at the end of its lifetime.
	EvDepart
	// EvHandover moves an active flow to another cell.
	EvHandover
)

// Event is one precomputed churn-timeline entry. Flow is the flow INDEX in
// the run's flat flow table (initial flows first, churned flows after, in
// arrival order), not a wire flow id.
type Event struct {
	At   time.Duration
	Kind EventKind
	Flow int32
	Cell int32 // arrival cell, or handover destination; unused for departs
}

// Span is one churned flow's lifetime: the flow exists on [Start, End)
// and initially attaches to Cell.
type Span struct {
	Start, End time.Duration
	Cell       int32
}

// ScheduleConfig parameterizes one run's churn/handover timeline.
type ScheduleConfig struct {
	// Seed drives every timeline draw.
	Seed int64
	// Duration bounds the run; arrivals past it are not generated and
	// lifetimes are clipped to it.
	Duration time.Duration
	// Cells is the number of towers; arrivals pick one uniformly.
	Cells int
	// ArrivalRate is the Poisson flow-arrival intensity in flows/second;
	// zero disables churn.
	ArrivalRate float64
	// MeanLifetime is the mean of each churned flow's exponential
	// lifetime. Required when ArrivalRate > 0.
	MeanLifetime time.Duration
	// HandoverRate is the Poisson intensity, in events/second, at which a
	// uniformly-picked active flow moves to a uniformly-picked other
	// cell; zero disables handover.
	HandoverRate float64
	// InitialCells lists the initial cell of each statically attached
	// flow (the spec's flow groups, in attach order); these flows span
	// the whole run and participate in handover.
	InitialCells []int32
}

// Schedule is the fully precomputed churn/handover timeline of one run.
// Building it up front — before any flow attaches — is the determinism
// argument for churn: every arrival instant, lifetime, cell choice and
// handover pick is drawn from one dedicated RNG in a fixed order, so the
// complete flow roster and event order are known at run start and are
// byte-identical at any engine worker or shard count (events then execute
// on the virtual clock, which orders them the same way everywhere).
//
// All storage is retained across Build calls for warm world reuse.
type Schedule struct {
	// Spans lists the churned flows in arrival order; flow index
	// len(InitialCells)+i corresponds to Spans[i].
	Spans []Span
	// Events is the merged timeline in execution order.
	Events []Event

	rng      *rand.Rand
	handoffs []time.Duration // scratch: handover instants
	active   []int32         // scratch: active flow indices, roster order
	cellNow  []int32         // scratch: current cell per flow index
}

// Build (re)computes the timeline. The same config always yields the same
// schedule, regardless of what the Schedule held before.
func (s *Schedule) Build(cfg ScheduleConfig) {
	s.Spans = s.Spans[:0]
	s.Events = s.Events[:0]
	s.handoffs = s.handoffs[:0]
	handover := cfg.HandoverRate > 0 && cfg.Cells > 1
	if cfg.ArrivalRate <= 0 && !handover {
		return // a static roster draws nothing: spare it the seeding
	}
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		s.rng.Seed(cfg.Seed)
	}

	// Draw order is frozen: all arrivals (gap, lifetime, cell per flow),
	// then all handover instants, then the handover picks in time order.
	if cfg.ArrivalRate > 0 {
		t := time.Duration(0)
		for {
			t += time.Duration(s.rng.ExpFloat64() / cfg.ArrivalRate * float64(time.Second))
			if t >= cfg.Duration {
				break
			}
			life := time.Duration(s.rng.ExpFloat64() * float64(cfg.MeanLifetime))
			cell := int32(s.rng.Intn(cfg.Cells))
			end := t + life
			if end > cfg.Duration {
				end = cfg.Duration
			}
			s.Spans = append(s.Spans, Span{Start: t, End: end, Cell: cell})
		}
	}
	for i, sp := range s.Spans {
		fi := int32(len(cfg.InitialCells) + i)
		s.Events = append(s.Events, Event{At: sp.Start, Kind: EvArrive, Flow: fi, Cell: sp.Cell})
		if sp.End < cfg.Duration {
			s.Events = append(s.Events, Event{At: sp.End, Kind: EvDepart, Flow: fi})
		}
	}
	sort.Stable((*eventsByTime)(&s.Events))

	if handover {
		t := time.Duration(0)
		for {
			t += time.Duration(s.rng.ExpFloat64() / cfg.HandoverRate * float64(time.Second))
			if t >= cfg.Duration {
				break
			}
			s.handoffs = append(s.handoffs, t)
		}
		s.resolveHandoffs(cfg)
		sort.Stable((*eventsByTime)(&s.Events))
	}
}

// resolveHandoffs replays the arrive/depart timeline against the handover
// instants, maintaining the active roster in deterministic order (initial
// flows, then churned flows by arrival), and appends one EvHandover per
// instant that finds a non-empty roster.
func (s *Schedule) resolveHandoffs(cfg ScheduleConfig) {
	n := len(cfg.InitialCells) + len(s.Spans)
	if cap(s.cellNow) < n {
		s.cellNow = make([]int32, n)
	}
	s.cellNow = s.cellNow[:n]
	s.active = s.active[:0]
	for i, c := range cfg.InitialCells {
		s.cellNow[i] = c
		s.active = append(s.active, int32(i))
	}
	ei := 0
	for _, t := range s.handoffs {
		for ei < len(s.Events) && s.Events[ei].At <= t {
			ev := s.Events[ei]
			switch ev.Kind {
			case EvArrive:
				s.cellNow[ev.Flow] = ev.Cell
				s.active = append(s.active, ev.Flow)
			case EvDepart:
				for j, f := range s.active {
					if f == ev.Flow {
						s.active = append(s.active[:j], s.active[j+1:]...)
						break
					}
				}
			}
			ei++
		}
		if len(s.active) == 0 {
			continue
		}
		fi := s.active[s.rng.Intn(len(s.active))]
		cur := s.cellNow[fi]
		d := int32(s.rng.Intn(cfg.Cells - 1))
		if d >= cur {
			d++
		}
		s.cellNow[fi] = d
		s.Events = append(s.Events, Event{At: t, Kind: EvHandover, Flow: fi, Cell: d})
	}
}

// eventsByTime sorts events by instant; the stable sort preserves
// generation order at exact ties (arrive/depart before handover). Methods
// are on the pointer so sort.Stable boxes no slice header.
type eventsByTime []Event

func (e *eventsByTime) Len() int           { return len(*e) }
func (e *eventsByTime) Less(i, j int) bool { return (*e)[i].At < (*e)[j].At }
func (e *eventsByTime) Swap(i, j int)      { (*e)[i], (*e)[j] = (*e)[j], (*e)[i] }
