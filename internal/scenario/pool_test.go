package scenario

import (
	"context"
	"testing"
	"time"

	"sprout/internal/engine"
	"sprout/internal/network"
)

// poolHighWater runs the spec on a fresh world and returns the most
// packets it had live at once.
func poolHighWater(t *testing.T, spec Spec) int {
	t.Helper()
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	w := newWorld()
	if _, err := compile(norm).run(nil, w); err != nil {
		t.Fatal(err)
	}
	return w.pool.HighWater()
}

// TestPoolHighWaterIndependentOfDuration pins the arena's contract: it
// holds what is in flight, so a fixed-roster run's high-water mark does
// not grow with its duration. A release site that is missed (a CoDel head
// drop, a random loss) leaks one packet per drop and shows up here as
// growth between the 30 s and the 300 s run.
//
// What bounds the packets in flight differs by scheme. A TCP flow is
// bounded by its window (Cubic on the unbounded queue: MaxWindow, 2 800
// segments) or by the AQM, whatever the link does. Sprout and the
// open-loop app senders are bounded by the longest outage they meet, and a
// longer run gets more draws at a long one; their specs therefore force
// one 6 s outage inside the first 30 s, which both runs share (a run's
// first 30 s do not depend on its duration), and the test asks that
// nothing after it pushes the arena further.
func TestPoolHighWaterIndependentOfDuration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight 300-second simulations")
	}
	cases := []struct {
		scheme string
		loss   float64
		outage bool
		bound  int // packets; 0 = none
	}{
		{scheme: "cubic", bound: 4096},
		{scheme: "cubic-codel"},
		{scheme: "cubic", loss: 0.02},
		{scheme: "cubic-codel", loss: 0.02},
		{scheme: "sprout", outage: true},
		{scheme: "skype", outage: true},
		{scheme: "sprout", loss: 0.02, outage: true},
		{scheme: "skype", loss: 0.02, outage: true},
	}
	for _, c := range cases {
		spec := func(d time.Duration) Spec {
			s := streamSpec(c.scheme, d, d/4, 1)
			s.Loss = c.loss
			if c.outage {
				s.Process.Outages = []OutageWindow{{Start: Duration(10 * time.Second), End: Duration(16 * time.Second)}}
			}
			return s
		}
		short := poolHighWater(t, spec(30*time.Second))
		long := poolHighWater(t, spec(300*time.Second))
		t.Logf("%-11s loss %-4v forced outage %-5v 30 s: %4d packets   300 s: %4d packets",
			c.scheme, c.loss, c.outage, short, long)
		if long != short {
			t.Errorf("%s (loss %v): pool high-water %d packets after 30 s, %d after 300 s; want equal",
				c.scheme, c.loss, short, long)
		}
		if c.bound > 0 && long > c.bound {
			t.Errorf("%s: pool high-water %d packets, want <= %d", c.scheme, long, c.bound)
		}
	}
}

// TestPoolHighWaterCrowdPinned pins the arena's exact high-water mark in
// one small crowded two-cell run: Facetime senders filling their queues,
// window-bound TCP, churn and handover. Packets in flight are simulated, so the count
// repeats exactly on every machine; a change that leaks a packet per drop
// or per handover, or holds packets longer than the queue does, moves it.
func TestPoolHighWaterCrowdPinned(t *testing.T) {
	spec := cellSpec(&CellSpec{
		Scheduler: "proportional-fair",
		Cells:     2,
		Groups: []CellGroup{
			{Scheme: "vegas", Flows: 32, Cell: 0},
			{Scheme: "ledbat", Flows: 16, Cell: 1},
			{Scheme: "facetime", Flows: 16, Cell: 1},
		},
		Churn:        &ChurnSpec{ArrivalRate: 2, MeanLifetime: Duration(30 * time.Second)},
		HandoverRate: 2,
	}, 6*time.Second, 1500*time.Millisecond, 23)
	const want = 1233
	if got := poolHighWater(t, spec); got != want {
		t.Errorf("pool high-water %d packets, want exactly %d", got, want)
	}
}

// scribbleAfter is the delivery tap of TestHandlersDoNotRetainPackets:
// once the real handler has returned, the packet's metadata and every byte
// of its payload buffer are overwritten. A handler that kept the packet,
// or a slice of its payload, reads garbage from then on.
func scribbleAfter(h network.Handler) network.Handler {
	return func(p *network.Packet) {
		h(p)
		p.Flow, p.Seq, p.Size = 0xdeadbeef, -0x5a5a5a5a, 0x5a5a5a
		p.SentAt, p.EnqueuedAt = -time.Hour, -time.Hour
		buf := p.Payload[:cap(p.Payload)]
		for i := range buf {
			buf[i] = 0xa5
		}
	}
}

// TestHandlersDoNotRetainPackets enforces the ownership rule from the
// handlers' side: a delivery handler may not keep pkt or pkt.Payload after
// it returns, because the network releases the packet for reuse right
// then. Every registered scheme, a tunnel spec and a churning two-cell
// spec run once plainly and once with every delivered packet scribbled
// over as its handler returns; the results must be equal field for field.
func TestHandlersDoNotRetainPackets(t *testing.T) {
	type tc struct {
		name string
		spec Spec
	}
	var cases []tc
	for _, name := range AllSchemes() {
		cases = append(cases, tc{name, Spec{
			Scheme:   name,
			Link:     "Verizon LTE",
			Duration: Duration(30 * time.Second),
			Skip:     Duration(8 * time.Second),
		}})
	}
	cases = append(cases,
		tc{"tunnel", Spec{
			Link:     "Verizon LTE",
			Tunnel:   true,
			Groups:   []FlowGroup{{Scheme: "cubic", Count: 1}, {Scheme: "skype", Count: 1}},
			Duration: Duration(20 * time.Second),
			Skip:     Duration(5 * time.Second),
			Loss:     0.01,
			Seed:     2,
		}},
		tc{"cell", cellSpec(&CellSpec{
			Scheduler:    "proportional-fair",
			Cells:        2,
			Groups:       []CellGroup{{Scheme: "sprout", Flows: 3}, {Scheme: "cubic", Flows: 3, Cell: 1}, {Scheme: "skype", Flows: 2}},
			Churn:        &ChurnSpec{Scheme: "vegas", ArrivalRate: 1, MeanLifetime: Duration(3 * time.Second)},
			HandoverRate: 0.5,
		}, 12*time.Second, 3*time.Second, 4)},
	)
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			norm, err := c.spec.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			plain, err := compile(norm).run(nil, newWorld())
			if err != nil {
				t.Fatal(err)
			}
			w := newWorld()
			w.tap = scribbleAfter
			scribbled, err := compile(norm).run(nil, w)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, scribbled, plain)
			if len(plain.Flows) == 0 || plain.Delay95 == 0 {
				t.Errorf("run delivered nothing: %+v", plain)
			}
		})
	}
}

// TestArenaBlocksMoveBetweenWorkers: a two-worker engine runs a grid that
// alternates the crowded two-cell shape on Verizon-3G-down, whose queues
// stand about 1 700 packets deep, with light direct runs, so arena blocks
// pass between the workers' worlds through network.Pool's stock on almost
// every job. Each record must equal a one-worker run's byte for byte, on
// cold worlds and warm ones; under -race, a component that reads a packet
// after its world's Pool.Reset handed the block on shows up as a race.
func TestArenaBlocksMoveBetweenWorkers(t *testing.T) {
	crowd := func(sched string, seed int64) Spec {
		return Spec{
			Process:         &ProcessSpec{Model: "Verizon-3G-down", Scale: 4},
			FeedbackProcess: &ProcessSpec{Model: "Verizon-3G-up", Scale: 4},
			Cell: &CellSpec{
				Scheduler: sched,
				Cells:     2,
				Groups: []CellGroup{
					{Scheme: "vegas", Flows: 32, Cell: 0},
					{Scheme: "ledbat", Flows: 16, Cell: 1},
					{Scheme: "facetime", Flows: 16, Cell: 1},
				},
				Churn:        &ChurnSpec{ArrivalRate: 2, MeanLifetime: Duration(30 * time.Second)},
				HandoverRate: 2,
			},
			Duration: Duration(6 * time.Second),
			Skip:     Duration(1500 * time.Millisecond),
			Seed:     seed,
		}
	}
	var specs []Spec
	for i, scheme := range []string{"cubic", "skype", "sprout", "vegas"} {
		sched := []string{"proportional-fair", "round-robin"}[i%2]
		specs = append(specs, crowd(sched, int64(2*i+1)), streamSpec(scheme, 2*time.Second, 500*time.Millisecond, int64(2*i+2)))
	}
	records := func(eng *engine.Engine) []string {
		t.Helper()
		results, _, err := RunOn(context.Background(), eng, specs, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(results))
		for i, r := range results {
			rec, err := EncodeResult(i, r)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = string(rec.Data)
		}
		return out
	}
	want := records(engine.New(1))
	two := engine.New(2)
	for pass := 0; pass < 2; pass++ {
		for i, got := range records(two) {
			if got != want[i] {
				t.Errorf("pass %d, job %d (%s): two workers' record differs from one worker's:\n%s\n%s",
					pass, i, specs[i].Label(), got, want[i])
			}
		}
	}
}
