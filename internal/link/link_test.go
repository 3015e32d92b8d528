package link

import (
	"math/rand"
	"testing"
	"time"

	"sprout/internal/network"
	"sprout/internal/sim"
	"sprout/internal/trace"
)

func mkTrace(ops ...time.Duration) *trace.Trace {
	return &trace.Trace{Name: "test", Opportunities: ops}
}

func pkt(size int, seq int64) *network.Packet {
	return &network.Packet{Seq: seq, Size: size, SentAt: 0}
}

func TestFIFO(t *testing.T) {
	var f FIFO
	if f.Pop() != nil {
		t.Error("empty FIFO should return nil")
	}
	a, b := pkt(100, 1), pkt(200, 2)
	f.Push(a)
	f.Push(b)
	if f.Len() != 2 || f.Bytes() != 300 {
		t.Errorf("Len=%d Bytes=%d, want 2/300", f.Len(), f.Bytes())
	}
	if f.Pop() != a || f.Pop() != b || f.Pop() != nil {
		t.Error("Pop order wrong")
	}
	if f.Bytes() != 0 {
		t.Errorf("Bytes=%d after drain", f.Bytes())
	}
}

func TestLinkDeliversAtOpportunity(t *testing.T) {
	loop := sim.New()
	var got []time.Duration
	l := New(loop, Config{
		Trace:            mkTrace(10*time.Millisecond, 30*time.Millisecond),
		PropagationDelay: 5 * time.Millisecond,
	}, func(p *network.Packet) { got = append(got, loop.Now()) })
	p := pkt(network.MTU, 1)
	p.SentAt = loop.Now()
	l.Send(p) // enqueued at 5ms, delivered at 10ms opportunity
	loop.Run(50 * time.Millisecond)
	if len(got) != 1 || got[0] != 10*time.Millisecond {
		t.Errorf("deliveries = %v, want [10ms]", got)
	}
}

func TestLinkWaitsForEnqueue(t *testing.T) {
	loop := sim.New()
	var got []time.Duration
	l := New(loop, Config{
		Trace:            mkTrace(10*time.Millisecond, 30*time.Millisecond),
		PropagationDelay: 15 * time.Millisecond,
	}, func(p *network.Packet) { got = append(got, loop.Now()) })
	l.Send(pkt(network.MTU, 1)) // enqueued at 15ms, misses 10ms opportunity
	loop.Run(35 * time.Millisecond)
	if len(got) != 1 || got[0] != 30*time.Millisecond {
		t.Errorf("deliveries = %v, want [30ms]", got)
	}
	if l.WastedOpportunities() != 1 {
		t.Errorf("wasted = %d, want 1", l.WastedOpportunities())
	}
}

func TestLinkPerByteAccounting(t *testing.T) {
	// Fifteen 100-byte packets all leave on a single MTU opportunity
	// (paper footnote 6).
	loop := sim.New()
	n := 0
	l := New(loop, Config{Trace: mkTrace(10 * time.Millisecond)},
		func(p *network.Packet) { n++ })
	for i := 0; i < 15; i++ {
		l.Send(pkt(100, int64(i)))
	}
	loop.Run(15 * time.Millisecond)
	if n != 15 {
		t.Errorf("delivered %d packets on one opportunity, want 15", n)
	}
}

func TestLinkPartialTransmission(t *testing.T) {
	// A 1500-byte packet behind a 1000-byte packet: opportunity 1 sends
	// the 1000B packet and 500B of the MTU packet; opportunity 2
	// completes it.
	loop := sim.New()
	var got []struct {
		seq int64
		at  time.Duration
	}
	l := New(loop, Config{Trace: mkTrace(10*time.Millisecond, 20*time.Millisecond)},
		func(p *network.Packet) {
			got = append(got, struct {
				seq int64
				at  time.Duration
			}{p.Seq, loop.Now()})
		})
	l.Send(pkt(1000, 1))
	l.Send(pkt(network.MTU, 2))
	loop.Run(30 * time.Millisecond)
	if len(got) != 2 {
		t.Fatalf("delivered %d, want 2", len(got))
	}
	if got[0].seq != 1 || got[0].at != 10*time.Millisecond {
		t.Errorf("first delivery = %+v", got[0])
	}
	if got[1].seq != 2 || got[1].at != 20*time.Millisecond {
		t.Errorf("second delivery = %+v (partial transmission should complete on 2nd opportunity)", got[1])
	}
}

func TestLinkWastedOpportunityDoesNotBank(t *testing.T) {
	// An opportunity with an empty queue is wasted: a packet arriving
	// later still waits for the next opportunity.
	loop := sim.New()
	var at time.Duration
	l := New(loop, Config{Trace: mkTrace(10*time.Millisecond, 40*time.Millisecond)},
		func(p *network.Packet) { at = loop.Now() })
	loop.After(20*time.Millisecond, func() { l.enqueue(0, 0, pkt(network.MTU, 1), loop.Now()) })
	loop.Run(45 * time.Millisecond)
	if at != 40*time.Millisecond {
		t.Errorf("delivered at %v, want 40ms", at)
	}
	if l.WastedOpportunities() != 1 {
		t.Errorf("wasted = %d, want 1", l.WastedOpportunities())
	}
}

func TestLinkTraceRepeats(t *testing.T) {
	loop := sim.New()
	var got []time.Duration
	l := New(loop, Config{Trace: mkTrace(0, 10*time.Millisecond, 20*time.Millisecond)},
		func(p *network.Packet) { got = append(got, loop.Now()) })
	// Packet enqueued at 25ms: first wrap gives opportunities at
	// 30ms (=20+10) and 40ms.
	loop.After(25*time.Millisecond, func() { l.enqueue(0, 0, pkt(network.MTU, 1), loop.Now()) })
	loop.After(35*time.Millisecond, func() { l.enqueue(0, 0, pkt(network.MTU, 2), loop.Now()) })
	loop.Run(60 * time.Millisecond)
	if len(got) != 2 || got[0] != 30*time.Millisecond || got[1] != 40*time.Millisecond {
		t.Errorf("deliveries = %v, want [30ms 40ms]", got)
	}
}

func TestLinkLoss(t *testing.T) {
	loop := sim.New()
	n := 0
	l := New(loop, Config{
		Trace:    mkTrace(times(1000, time.Millisecond)...),
		LossRate: 0.5,
		Rand:     rand.New(rand.NewSource(1)),
	}, func(p *network.Packet) { n++ })
	for i := 0; i < 1000; i++ {
		l.Send(pkt(network.MTU, int64(i)))
	}
	loop.Run(2 * time.Second)
	loss, _ := l.Drops()
	if loss < 400 || loss > 600 {
		t.Errorf("loss drops = %d, want ~500", loss)
	}
	if n+int(loss) != 1000 {
		t.Errorf("delivered %d + dropped %d != 1000", n, loss)
	}
}

// keepDeliveries returns the log an OnDelivery observer on l appends to.
func keepDeliveries(l *Link) *[]Delivery {
	log := new([]Delivery)
	l.OnDelivery(func(d Delivery) { *log = append(*log, d) })
	return log
}

// TestLinkDeliveryLog: a log kept through OnDelivery sees each delivery
// once, at the instant the packet crosses, before the delivery handler
// runs; Reset removes the observer.
func TestLinkDeliveryLog(t *testing.T) {
	loop := sim.New()
	handled := 0
	var log *[]Delivery
	cfg := Config{
		Trace:            mkTrace(10 * time.Millisecond),
		PropagationDelay: 2 * time.Millisecond,
	}
	l := New(loop, cfg, func(*network.Packet) {
		if len(*log) != handled+1 {
			t.Errorf("handler ran with %d deliveries observed, want %d", len(*log), handled+1)
		}
		handled++
	})
	log = keepDeliveries(l)
	p := pkt(network.MTU, 42)
	p.SentAt = loop.Now()
	p.Flow = 7
	l.Send(p)
	loop.Run(20 * time.Millisecond)
	if len(*log) != 1 || handled != 1 {
		t.Fatalf("observed %d deliveries, handled %d; want 1 each", len(*log), handled)
	}
	d := (*log)[0]
	if d.Seq != 42 || d.Flow != 7 || d.SentAt != 0 || d.DeliveredAt != 10*time.Millisecond || d.Size != network.MTU {
		t.Errorf("delivery = %+v", d)
	}
	if l.DeliveredBytes() != network.MTU {
		t.Errorf("DeliveredBytes = %d", l.DeliveredBytes())
	}

	loop.Reset()
	l.Reset(cfg, nil)
	l.Send(pkt(network.MTU, 43))
	loop.Run(20 * time.Millisecond)
	if len(*log) != 1 || l.DeliveredBytes() != network.MTU {
		t.Errorf("after Reset the observer saw %d deliveries (want it removed), link delivered %d bytes", len(*log), l.DeliveredBytes())
	}
}

func TestLinkQueueOccupancyWithPartial(t *testing.T) {
	loop := sim.New()
	l := New(loop, Config{Trace: mkTrace(10*time.Millisecond, 50*time.Millisecond)}, nil)
	l.Send(pkt(1000, 1))
	l.Send(pkt(network.MTU, 2))
	loop.Run(20 * time.Millisecond)
	// After the first opportunity: packet 1 gone, packet 2 sent 500 of
	// 1500 bytes.
	if got := l.QueueBytes(); got != 1000 {
		t.Errorf("QueueBytes = %d, want 1000 (remaining of partial)", got)
	}
}

func times(n int, step time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i+1) * step
	}
	return out
}

func TestLinkPanicsWithoutTrace(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for missing trace")
		}
	}()
	New(sim.New(), Config{}, nil)
}

func TestLinkPanicsLossWithoutRand(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for loss without rand")
		}
	}()
	New(sim.New(), Config{Trace: mkTrace(time.Millisecond), LossRate: 0.1}, nil)
}

// idlePick is a scheduler that picks slot 0 whether or not the link ever
// reported it backlogged.
type idlePick struct{ standing }

func (*idlePick) Pick() int { return 0 }

// TestLinkPanicsOnIdlePick: a scheduler may only pick a slot the link
// reported backlogged; one that picks an idle slot fails loudly instead of
// being papered over on the per-packet path.
func TestLinkPanicsOnIdlePick(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for a pick of an idle slot")
		}
	}()
	loop := sim.New()
	l := New(loop, Config{Trace: mkTrace(time.Millisecond), Scheduler: &idlePick{}}, nil)
	l.Attach()
	l.SendTo(l.Attach(), pkt(network.MTU, 1)) // slot 1 has the backlog
	loop.Run(time.Millisecond)
}

// TestLinkReleasesEveryPacket is the link's half of the ownership rule:
// every packet it takes — delivered or lost at random — goes back to the pool exactly once (a second release would panic), and
// delivered packets are still live while their handler runs.
func TestLinkReleasesEveryPacket(t *testing.T) {
	ops := make([]time.Duration, 2000)
	for i := range ops {
		ops[i] = time.Duration(i+1) * time.Millisecond
	}
	loop := sim.New()
	var pool network.Pool
	var sent, delivered int64
	l := New(loop, Config{
		Trace:            mkTrace(ops...),
		PropagationDelay: 5 * time.Millisecond,
		LossRate:         0.2,
		Rand:             rand.New(rand.NewSource(3)),
		Pool:             &pool,
	}, func(p *network.Packet) {
		if p.Size != 700 || len(p.Payload) != 4 {
			t.Fatalf("handler got a released or foreign packet: %+v", p)
		}
		delivered++
	})
	// Bursts of 60 packets every 25 ms: 700-byte packets leave two per
	// opportunity, so a queue stands behind each burst.
	var burst func()
	burst = func() {
		for i := 0; i < 60; i++ {
			p := pool.Get()
			p.Size, p.Seq, p.SentAt = 700, sent, loop.Now()
			p.Payload = append(p.Payload, "data"...)
			sent++
			l.Send(p)
		}
		if loop.Now() < time.Second {
			loop.After(25*time.Millisecond, burst)
		}
	}
	burst()
	loop.Run(1900 * time.Millisecond) // the last burst has long drained

	loss, _ := l.Drops()
	if loss == 0 || delivered == 0 {
		t.Fatalf("want both fates exercised: %d lost, %d delivered", loss, delivered)
	}
	if loss+delivered != sent {
		t.Errorf("%d sent != %d lost + %d delivered", sent, loss, delivered)
	}
	if got := pool.InUse(); got != 0 {
		t.Errorf("%d packets still live after the link drained, want 0", got)
	}
	if got := pool.HighWater(); got > 60+43 {
		t.Errorf("%d packets live at once of %d sent; at most 60 in flight + 43 queued are ever live", got, sent)
	}
}

// TestLinkResetDoesNotRelease: Reset forgets queued and in-flight packets
// without releasing them, leaving the arena to Pool.Reset — after both,
// every packet is handed out exactly once.
func TestLinkResetDoesNotRelease(t *testing.T) {
	loop := sim.New()
	var pool network.Pool
	cfg := Config{Trace: mkTrace(time.Hour), PropagationDelay: 5 * time.Millisecond, Pool: &pool}
	l := New(loop, cfg, nil)
	for i := 0; i < 10; i++ {
		p := pool.Get()
		p.Size = network.MTU
		l.Send(p)
		if i == 4 {
			loop.Run(10 * time.Millisecond) // five queued, five to stay in flight
		}
	}
	if l.QueueLen() != 5 {
		t.Fatalf("QueueLen = %d, want 5", l.QueueLen())
	}
	loop.Reset()
	l.Reset(cfg, nil)
	if got := pool.InUse(); got != 10 {
		t.Errorf("link Reset released packets: %d live, want 10", got)
	}
	pool.Reset()
	seen := map[*network.Packet]bool{}
	for i := 0; i < 64; i++ {
		p := pool.Get()
		if seen[p] {
			t.Fatalf("packet handed out twice after the world boundary")
		}
		seen[p] = true
	}
}
