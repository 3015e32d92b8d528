package cell

import (
	"testing"
	"time"

	"sprout/internal/linktest"
)

// TestTowerAdmitMatchesPerArrivalEvents: a six-user tower that admits
// arrivals when its queues are next looked at is indistinguishable from
// one that schedules an event per arrival — down to the order of calls the
// built-in schedulers see, around users leaving and arriving with packets
// queued and in flight (linktest.AdmitMatchesPerArrivalEvents).
func TestTowerAdmitMatchesPerArrivalEvents(t *testing.T) {
	rr := func() Scheduler { return NewRoundRobin() }
	pf := func() Scheduler { return NewPropFair(0) }
	cases := []linktest.Case{
		{Name: "round-robin, no delay", Scheduler: rr},
		{Name: "round-robin, 3 ms", Scheduler: rr, Prop: 3 * time.Millisecond},
		{Name: "proportional-fair, no delay", Scheduler: pf},
		{Name: "proportional-fair, 2 ms", Scheduler: pf, Prop: 2 * time.Millisecond},
	}
	for _, c := range cases {
		c.Loss, c.Slots = 0.1, 6
		t.Run(c.Name, func(t *testing.T) {
			if end := linktest.AdmitMatchesPerArrivalEvents(t, c, 4); end.Loss == 0 || end.Stale == 0 {
				t.Errorf("want a lossy cell whose handovers catch packets in flight: %+v", end)
			}
		})
	}
}

func TestTowerAccessorsAdmitFirst(t *testing.T) { linktest.AccessorsAdmitFirst(t, NewRoundRobin()) }

func TestTowerSendSchedulesNoEvent(t *testing.T) {
	linktest.SendSchedulesNoEvent(t, func() Scheduler { return NewPropFair(0) }, 3)
}
