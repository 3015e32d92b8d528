package cell

import (
	"math/rand"
	"testing"
	"time"

	"sprout/internal/network"
	"sprout/internal/sim"
)

// drainPicks returns the scheduler's pick order by repeatedly picking and
// un-backlogging, without serving bytes.
func drainPicks(s Scheduler) []int {
	var order []int
	for {
		slot := s.Pick()
		if slot < 0 {
			return order
		}
		order = append(order, slot)
		s.Backlog(slot, false)
	}
}

func TestRoundRobinCycle(t *testing.T) {
	r := NewRoundRobin()
	for i := 0; i < 4; i++ {
		r.Attach(i)
		r.Backlog(i, true)
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i, w := range want {
		if got := r.Pick(); got != w {
			t.Fatalf("pick %d = %d, want %d", i, got, w)
		}
	}
	// Un-backlogged and detached slots are skipped; the cursor wraps.
	r.Backlog(1, false)
	r.Detach(2)
	want = []int{0, 3, 0, 3}
	for i, w := range want {
		if got := r.Pick(); got != w {
			t.Fatalf("after detach: pick %d = %d, want %d", i, got, w)
		}
	}
}

func TestRoundRobinSparse(t *testing.T) {
	r := NewRoundRobin()
	for i := 0; i < 200; i++ {
		r.Attach(i)
	}
	for _, s := range []int{5, 70, 199} {
		r.Backlog(s, true)
	}
	want := []int{5, 70, 199, 5, 70, 199}
	for i, w := range want {
		if got := r.Pick(); got != w {
			t.Fatalf("sparse pick %d = %d, want %d", i, got, w)
		}
	}
	if r.Backlog(5, false); r.Pick() != 70 {
		t.Fatal("cursor did not resume past the cleared slot")
	}
}

// TestPropFairEqualizes: under equal backlog, the flow with less service
// history is always picked, so long-run grants alternate.
func TestPropFairEqualizes(t *testing.T) {
	p := NewPropFair(0)
	for i := 0; i < 2; i++ {
		p.Attach(i)
		p.Backlog(i, true)
	}
	counts := [2]int{}
	for op := 0; op < 1000; op++ {
		p.Opportunity()
		slot := p.Pick()
		p.Grant(slot, network.MTU)
		counts[slot]++
	}
	if counts[0] != counts[1] {
		t.Errorf("equal-backlog grants diverged: %v", counts)
	}

	// A flow with a head start on service yields until the other catches
	// up.
	p.Reset()
	for i := 0; i < 2; i++ {
		p.Attach(i)
		p.Backlog(i, true)
	}
	p.Opportunity()
	for i := 0; i < 50; i++ {
		p.Grant(0, network.MTU)
	}
	for i := 0; i < 10; i++ {
		p.Opportunity()
		if got := p.Pick(); got != 1 {
			t.Fatalf("pick after uneven history = %d, want 1", got)
		}
		p.Grant(1, 1) // tiny grants: slot 1 stays behind slot 0
	}
}

// TestPropFairRenormalization drives the global decay scale through its
// floor and checks the relative key order (the observable behaviour)
// survives renormalization.
func TestPropFairRenormalization(t *testing.T) {
	p := NewPropFair(0)
	for i := 0; i < 3; i++ {
		p.Attach(i)
		p.Backlog(i, true)
	}
	// Distinct histories: slot 2 most served, then 1, then 0.
	p.Opportunity()
	p.Grant(1, 500)
	p.Grant(2, 1500)
	// (15/16)^k underflows pfFloor around k ≈ 4300; 20000 opportunities
	// force several renormalizations (without them g would be (15/16)^20000,
	// far below the floor).
	for i := 0; i < 20000; i++ {
		p.Opportunity()
	}
	if p.g < pfFloor {
		t.Fatalf("decay scale %v below floor: renormalization never triggered", p.g)
	}
	if got := drainPicks(p); got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("post-renormalization pick order %v, want [0 1 2]", got)
	}
}

// TestPropFairDetachReattach: a detached slot is never picked, and a slot
// reused after Detach starts with a clean history.
func TestPropFairDetachReattach(t *testing.T) {
	p := NewPropFair(0)
	for i := 0; i < 3; i++ {
		p.Attach(i)
		p.Backlog(i, true)
	}
	p.Opportunity()
	p.Grant(0, 10)
	p.Detach(1)
	for _, got := range drainPicks(p) {
		if got == 1 {
			t.Fatal("picked a detached slot")
		}
	}
	p.Attach(1) // slot reuse after handover
	p.Backlog(1, true)
	if got := p.Pick(); got != 1 {
		t.Errorf("reattached slot with zero history picked %d, want 1", got)
	}
}

func scheduleConfig(seed int64) ScheduleConfig {
	return ScheduleConfig{
		Seed:         seed,
		Duration:     60 * time.Second,
		Cells:        3,
		ArrivalRate:  0.5,
		MeanLifetime: 8 * time.Second,
		HandoverRate: 0.3,
		InitialCells: []int32{0, 1},
	}
}

// TestScheduleDeterministic: the same config always builds the same
// timeline, including on a reused Schedule; a different seed diverges.
func TestScheduleDeterministic(t *testing.T) {
	var a, b Schedule
	a.Build(scheduleConfig(11))
	b.Build(scheduleConfig(99)) // dirty b with another timeline first
	b.Build(scheduleConfig(11))
	if len(a.Spans) == 0 || len(a.Events) == 0 {
		t.Fatalf("config produced no churn: %d spans, %d events", len(a.Spans), len(a.Events))
	}
	if len(a.Spans) != len(b.Spans) || len(a.Events) != len(b.Events) {
		t.Fatalf("rebuilt schedule sizes differ: %d/%d spans, %d/%d events",
			len(a.Spans), len(b.Spans), len(a.Events), len(b.Events))
	}
	for i := range a.Spans {
		if a.Spans[i] != b.Spans[i] {
			t.Fatalf("span %d differs: %+v vs %+v", i, a.Spans[i], b.Spans[i])
		}
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	b.Build(scheduleConfig(12))
	same := len(a.Events) == len(b.Events)
	if same {
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical timelines")
	}
}

// TestScheduleWellFormed: events are time-ordered; every churned flow
// arrives before it departs; handovers target a valid, different cell and
// only flows alive at that instant.
func TestScheduleWellFormed(t *testing.T) {
	cfg := scheduleConfig(5)
	var s Schedule
	s.Build(cfg)
	nInit := len(cfg.InitialCells)
	n := nInit + len(s.Spans)
	cellNow := make([]int32, n)
	alive := make([]bool, n)
	for i, c := range cfg.InitialCells {
		cellNow[i], alive[i] = c, true
	}
	var last time.Duration
	for _, ev := range s.Events {
		if ev.At < last {
			t.Fatalf("events out of order at %v after %v", ev.At, last)
		}
		last = ev.At
		if int(ev.Flow) < 0 || int(ev.Flow) >= n {
			t.Fatalf("event references flow %d outside [0, %d)", ev.Flow, n)
		}
		switch ev.Kind {
		case EvArrive:
			if alive[ev.Flow] {
				t.Fatalf("flow %d arrived twice", ev.Flow)
			}
			alive[ev.Flow], cellNow[ev.Flow] = true, ev.Cell
		case EvDepart:
			if !alive[ev.Flow] {
				t.Fatalf("flow %d departed while not alive", ev.Flow)
			}
			alive[ev.Flow] = false
		case EvHandover:
			if !alive[ev.Flow] {
				t.Fatalf("handover of dead flow %d at %v", ev.Flow, ev.At)
			}
			if ev.Cell < 0 || int(ev.Cell) >= cfg.Cells || ev.Cell == cellNow[ev.Flow] {
				t.Fatalf("handover of flow %d to cell %d (from %d)", ev.Flow, ev.Cell, cellNow[ev.Flow])
			}
			cellNow[ev.Flow] = ev.Cell
		}
	}
}

// periodicProc is a deterministic delivery process: one opportunity every
// period, forever.
type periodicProc struct {
	period time.Duration
	t      time.Duration
}

func (p *periodicProc) Next() (time.Duration, bool) {
	p.t += p.period
	return p.t, true
}

func (p *periodicProc) Reset(int64) { p.t = 0 }

// TestTowerFIFOAndCounters: a two-slot tower under round-robin delivers
// both flows' packets, counts bytes, and drops in-flight packets whose
// slot detached (the handover/departure semantics).
func TestTowerFIFOAndCounters(t *testing.T) {
	loop := sim.New()
	var tw *Tower
	var got []uint32
	tw = NewTower(loop, Config{
		Process:          &periodicProc{period: time.Millisecond},
		PropagationDelay: time.Millisecond,
		Scheduler:        NewRoundRobin(),
	}, func(p *network.Packet) { got = append(got, p.Flow) })
	s0, s1 := tw.Attach(), tw.Attach()
	pkts := make([]network.Packet, 4)
	for i := range pkts {
		pkts[i] = network.Packet{Flow: uint32(i % 2), Size: network.MTU}
	}
	tw.Send(s0, &pkts[0])
	tw.Send(s1, &pkts[1])
	tw.Send(s0, &pkts[2])
	loop.Run(10 * time.Millisecond)
	if len(got) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(got))
	}
	if tw.DeliveredBytes() != int64(3*network.MTU) {
		t.Errorf("DeliveredBytes = %d, want %d", tw.DeliveredBytes(), 3*network.MTU)
	}
	// A packet in flight toward a detached slot is dropped as stale.
	tw.Send(s1, &pkts[3])
	tw.Detach(s1)
	loop.Run(20 * time.Millisecond)
	if loss, _ := tw.Drops(); loss != 0 || tw.StaleDrops() != 1 {
		t.Errorf("drops = (%d, %d), want (0, 1)", loss, tw.StaleDrops())
	}
	if len(got) != 3 {
		t.Errorf("stale packet was delivered: %v", got)
	}
}

// TestTowerReleasesEveryPacket is the tower's half of the ownership rule:
// delivered packets, random losses, arrivals to a vacated slot and the
// queue a Detach flushes (including a half-transmitted head) all go back
// to the pool exactly once — a second release would panic.
func TestTowerReleasesEveryPacket(t *testing.T) {
	loop := sim.New()
	var pool network.Pool
	delivered := 0
	tw := NewTower(loop, Config{
		Process:          &periodicProc{period: time.Millisecond},
		PropagationDelay: time.Millisecond,
		LossRate:         0.2,
		Rand:             rand.New(rand.NewSource(2)),
		Scheduler:        NewRoundRobin(),
		Pool:             &pool,
	}, func(p *network.Packet) {
		if p.Size != 1000 {
			t.Fatalf("handler got a released packet: %+v", p)
		}
		delivered++
	})
	send := func(slot, n int) {
		for i := 0; i < n; i++ {
			p := pool.Get()
			p.Flow, p.Size = uint32(slot), 1000
			tw.Send(slot, p)
		}
	}
	s0, s1 := tw.Attach(), tw.Attach()
	send(s0, 40)
	send(s1, 40)
	// 1000-byte packets on 1500-byte opportunities: by now one slot holds
	// a half-transmitted head, and both still have a backlog.
	loop.Run(10*time.Millisecond + 500*time.Microsecond)
	if tw.SlotBytes(s1) == 0 {
		t.Fatal("slot 1 drained before the detach; nothing to flush")
	}
	send(s1, 5) // in flight when the slot goes: stale on arrival
	tw.Detach(s1)
	loop.Run(200 * time.Millisecond)

	loss, _ := tw.Drops()
	stale := tw.StaleDrops()
	if loss == 0 || stale != 5 || delivered == 0 {
		t.Fatalf("want every fate exercised: %d lost, %d stale, %d delivered", loss, stale, delivered)
	}
	if got := pool.InUse(); got != 0 {
		t.Errorf("%d packets still live after the tower drained, want 0", got)
	}

	// Reset forgets what is queued without releasing it.
	send(s0, 3)
	loop.Run(loop.Now() + 1500*time.Microsecond)
	live := pool.InUse()
	loop.Reset()
	tw.Reset(Config{Process: &periodicProc{period: time.Millisecond}, Scheduler: NewRoundRobin(), Pool: &pool}, nil)
	if got := pool.InUse(); got != live || live == 0 {
		t.Errorf("tower Reset released packets: %d live before, %d after", live, got)
	}
}

// TestTowerSteadyStateAllocs is the ISSUE's hot-path gate: a 1024-flow
// cell in steady state (every flow backlogged, packets recycled closed-
// loop) runs entire event-loop windows with zero allocations.
func TestTowerSteadyStateAllocs(t *testing.T) {
	const slots = 1024
	loop := sim.New()
	var tw *Tower
	tw = NewTower(loop, Config{
		Process:          &periodicProc{period: 100 * time.Microsecond},
		PropagationDelay: time.Millisecond,
		Scheduler:        NewPropFair(0),
	}, func(p *network.Packet) { tw.Send(int(p.Flow), p) })
	pkts := make([]network.Packet, slots)
	for i := 0; i < slots; i++ {
		slot := tw.Attach()
		pkts[i] = network.Packet{Flow: uint32(slot), Size: network.MTU}
		tw.Send(slot, &pkts[i])
	}
	end := 500 * time.Millisecond
	loop.Run(end) // warm up: rings, heap and scheduler arrays reach steady size
	if avg := testing.AllocsPerRun(10, func() {
		end += 100 * time.Millisecond
		loop.Run(end)
	}); avg > 0 {
		t.Errorf("steady-state tick allocates %.1f times per window, want 0", avg)
	}
	if tw.DeliveredBytes() == 0 {
		t.Fatal("closed loop delivered nothing")
	}
}
