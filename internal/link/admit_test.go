package link_test

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"sprout/internal/linktest"
	"sprout/internal/network"
)

// linkCases are the dedicated link's shapes: every traffic fate a one-slot
// link has (random loss, the tail-drop bound, CoDel) with and without a
// propagation delay.
var linkCases = []linktest.Case{
	{Name: "no delay, loss, bound", Loss: 0.2, Bound: 6 * network.MTU},
	{Name: "3 ms, loss, bound", Prop: 3 * time.Millisecond, Loss: 0.2, Bound: 6 * network.MTU},
	{Name: "no delay, codel", CoDel: true},
	{Name: "2 ms, codel, loss", Prop: 2 * time.Millisecond, Loss: 0.1, CoDel: true},
	{Name: "1 ms, unbounded", Prop: time.Millisecond},
}

// TestLinkAdmitMatchesPerArrivalEvents: a link that admits arrivals when
// its queue is next looked at is indistinguishable from one that schedules
// an event per arrival (linktest.AdmitMatchesPerArrivalEvents).
func TestLinkAdmitMatchesPerArrivalEvents(t *testing.T) {
	for _, c := range linkCases {
		t.Run(c.Name, func(t *testing.T) {
			end := linktest.AdmitMatchesPerArrivalEvents(t, c, 8)
			if (end.Loss > 0) != (c.Loss > 0) || (end.Tail > 0) != (c.Bound > 0) || (end.AQM > 0) != c.CoDel || end.Stale != 0 {
				t.Errorf("traffic did not exercise the case: %+v", end)
			}
		})
	}
}

func TestLinkAccessorsAdmitFirst(t *testing.T)  { linktest.AccessorsAdmitFirst(t, nil) }
func TestLinkSendSchedulesNoEvent(t *testing.T) { linktest.SendSchedulesNoEvent(t, nil, 1) }

// parentLinkLogs pins, per case, the SHA-256 of the driver's log over
// seeds 1 to 8 as the dedicated Link produced it before it and the tower
// became one type (commit acc6156, the same driver calling Send,
// QueueBytes and QueueLen).
var parentLinkLogs = map[string]string{
	"no delay, loss, bound": "5eed1be1585663155634ee1aca1524c89cf34ca51bdc943f23ddbd4ee209b6e1",
	"3 ms, loss, bound":     "b5b4dfcaa46af37fbaaf86cb4f88a03d6587f64b8896c02b0543719d64977a66",
	"no delay, codel":       "04dae31cc89afa8dc0f7256dfc104836de71c25e0fd8e10320d08b88921d6039",
	"2 ms, codel, loss":     "99de711624fb741b5994b691d223a263d99f7eb24bffb76c17bc82ed85667070",
	"1 ms, unbounded":       "739ca0827142206a9ff696da7842ff00b28e7d8122aeead0f1e6521e92060c00",
}

// TestLinkLogMatchesParent: the one-slot case of the shared queue core —
// standing slot, round-robin Pick/Grant loop — leaves the log the
// dedicated Link left on the same traffic: every delivery with its
// EnqueuedAt, every accessor reading and counter, the next loss draw and
// the pool's live count after the drain.
func TestLinkLogMatchesParent(t *testing.T) {
	for _, c := range linkCases {
		h := sha256.New()
		for seed := int64(1); seed <= 8; seed++ {
			log, _ := linktest.Run(c, seed, false)
			h.Write([]byte(strings.Join(log, "\n")))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != parentLinkLogs[c.Name] {
			t.Errorf("%s: log hash %s, want the parent's %s", c.Name, got, parentLinkLogs[c.Name])
		}
	}
}
