package tunnel

import (
	"math/rand"
	"testing"
	"time"

	"sprout/internal/link"
	"sprout/internal/network"
	"sprout/internal/sim"
	"sprout/internal/trace"
)

func steadyTrace(rate float64, d time.Duration, seed int64) *trace.Trace {
	m := trace.LinkModel{Name: "steady", MeanRate: rate, Sigma: 0.001, Reversion: 1, MaxRate: rate * 2}
	return m.Generate(d, rand.New(rand.NewSource(seed)))
}

func TestFrameRoundTrip(t *testing.T) {
	pkt := &network.Packet{
		Flow: 7, Seq: 123, Size: 1300,
		SentAt:  42 * time.Millisecond,
		Payload: []byte("hello client packet"),
	}
	got, ok := unmarshalFrame(nil, marshalFrame(pkt))
	if !ok {
		t.Fatal("unmarshal failed")
	}
	if got.Flow != 7 || got.Seq != 123 || got.Size != 1300 || got.SentAt != 42*time.Millisecond {
		t.Errorf("frame fields: %+v", got)
	}
	if string(got.Payload) != "hello client packet" {
		t.Errorf("payload = %q", got.Payload)
	}
	if _, ok := unmarshalFrame(nil, []byte{1, 2, 3}); ok {
		t.Error("short frame accepted")
	}
}

func TestIngressRoundRobin(t *testing.T) {
	in := newIngress(nil)
	mk := func(flow uint32, seq int64) *network.Packet {
		return &network.Packet{Flow: flow, Seq: seq, Size: 500, Payload: []byte{byte(seq)}}
	}
	// Flow 1 has 3 packets, flow 2 has 3: service must alternate.
	for i := 0; i < 3; i++ {
		in.Submit(mk(1, int64(i)))
		in.Submit(mk(2, int64(10+i)))
	}
	var order []uint32
	for {
		frame, n := in.NextPayload(1400)
		if n == 0 {
			break
		}
		pkt, _ := unmarshalFrame(nil, frame)
		order = append(order, pkt.Flow)
	}
	want := []uint32{1, 2, 1, 2, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("served %d frames, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("service order = %v, want %v", order, want)
			break
		}
	}
}

func TestIngressBacklogLimitDropsLongestHead(t *testing.T) {
	in := newIngress(nil)
	// No sender bound: limit floor is 8 MTU = 12000 bytes.
	for i := 0; i < 10; i++ {
		in.Submit(&network.Packet{Flow: 1, Seq: int64(i), Size: 1300, Payload: nil})
	}
	// 10*1300 = 13000 > 12000: one head drop.
	if in.HeadDrops() != 1 {
		t.Errorf("head drops = %d, want 1", in.HeadDrops())
	}
	// The head (seq 0) is gone: first served frame must be seq 1.
	frame, n := in.NextPayload(1400)
	if n == 0 {
		t.Fatal("no frame")
	}
	pkt, _ := unmarshalFrame(nil, frame)
	if pkt.Seq != 1 {
		t.Errorf("first served seq = %d, want 1 (head dropped)", pkt.Seq)
	}
}

func TestIngressDropsFromLongestQueue(t *testing.T) {
	in := newIngress(nil)
	// Flow 1: small; flow 2: huge. Overflow must hit flow 2 only.
	in.Submit(&network.Packet{Flow: 1, Seq: 100, Size: 1000})
	for i := 0; i < 12; i++ {
		in.Submit(&network.Packet{Flow: 2, Seq: int64(i), Size: 1400})
	}
	if in.HeadDrops() == 0 {
		t.Fatal("no drops")
	}
	// Flow 1's packet must survive.
	found := false
	for {
		frame, n := in.NextPayload(1400)
		if n == 0 {
			break
		}
		pkt, _ := unmarshalFrame(nil, frame)
		if pkt.Flow == 1 && pkt.Seq == 100 {
			found = true
		}
	}
	if !found {
		t.Error("short flow's packet was dropped; drops must target the longest queue")
	}
}

func TestIngressOversizedFrameDropped(t *testing.T) {
	in := newIngress(nil)
	in.Submit(&network.Packet{Flow: 1, Seq: 1, Size: 1450, Payload: make([]byte, 1450)})
	in.Submit(&network.Packet{Flow: 1, Seq: 2, Size: 100, Payload: nil})
	frame, n := in.NextPayload(1400) // 1450+26 > 1400: dropped
	if n == 0 {
		t.Fatal("expected the second frame")
	}
	pkt, _ := unmarshalFrame(nil, frame)
	if pkt.Seq != 2 {
		t.Errorf("served seq %d, want 2 (oversized dropped)", pkt.Seq)
	}
}

func TestEgressRecordsDeliveries(t *testing.T) {
	loop := sim.New()
	var handled []*network.Packet
	var dl []link.Delivery
	eg := newEgress(loop, func(p *network.Packet) { handled = append(handled, p) }, nil)
	eg.OnDelivery(func(d link.Delivery) { dl = append(dl, d) })
	pkt := &network.Packet{Flow: 3, Seq: 9, Size: 800, SentAt: 5 * time.Millisecond}
	loop.After(50*time.Millisecond, func() { eg.deliver(marshalFrame(pkt)) })
	loop.Run(time.Second)
	if len(handled) != 1 {
		t.Fatalf("handler got %d packets", len(handled))
	}
	if len(dl) != 1 || dl[0].Flow != 3 || dl[0].Seq != 9 || dl[0].SentAt != 5*time.Millisecond ||
		dl[0].DeliveredAt != 50*time.Millisecond || dl[0].Size != 800 {
		t.Errorf("delivery log = %+v", dl)
	}
	eg.deliver([]byte{1})
	if eg.BadFrames() != 1 {
		t.Errorf("bad frames = %d", eg.BadFrames())
	}
}

// TestTunnelReleasesPackets: the ingress releases each client packet once
// it is copied into a frame; the egress draws the reconstructed packet
// from the pool and releases it when the handler returns.
func TestTunnelReleasesPackets(t *testing.T) {
	var pool network.Pool
	in := newIngress(&pool)
	for i := 0; i < 3; i++ {
		p := pool.Get()
		p.Flow, p.Seq, p.Size = 5, int64(i), 1200
		p.Payload = append(p.Payload, "client header"...)
		in.Submit(p)
	}
	if got := pool.InUse(); got != 0 {
		t.Errorf("%d client packets live after Submit, want 0 (their bytes travel on as frames)", got)
	}

	loop := sim.New()
	eg := newEgress(loop, func(p *network.Packet) {
		if p.Flow != 5 || p.Size != 1200 || string(p.Payload) != "client header" {
			t.Errorf("reconstructed packet = %+v", p)
		}
		if pool.InUse() != 1 {
			t.Errorf("%d packets live inside the handler, want the one it was given", pool.InUse())
		}
	}, &pool)
	for {
		frame, _ := in.NextPayload(network.MTU)
		if frame == nil {
			break
		}
		eg.deliver(frame)
	}
	if got := pool.InUse(); got != 0 {
		t.Errorf("%d packets live after the egress handlers returned, want 0", got)
	}
	if got := pool.HighWater(); got != 1 {
		t.Errorf("%d packets were live at once, want 1: each is released before the next is drawn", got)
	}
}

// TestTunnelEndToEnd runs the two endpoints of a tunnel across emulated
// links: side A carries two client flows to side B, and each side routes
// what arrives by Sprout session id. Both flows must arrive, interactively.
func TestTunnelEndToEnd(t *testing.T) {
	loop := sim.New()
	var a, b *Endpoint
	fwd := link.New(loop, link.Config{
		Trace:            steadyTrace(300, 35*time.Second, 1),
		PropagationDelay: 20 * time.Millisecond,
	}, func(p *network.Packet) { b.Receive(p) })
	rev := link.New(loop, link.Config{
		Trace:            steadyTrace(100, 35*time.Second, 2),
		PropagationDelay: 20 * time.Millisecond,
	}, func(p *network.Packet) { a.Receive(p) })
	a = New(Config{Clock: loop, Conn: fwd, Send: 1, Recv: 2})
	b = New(Config{Clock: loop, Conn: rev, Send: 2, Recv: 1})
	var deliveries []link.Delivery
	b.Egress.OnDelivery(func(d link.Delivery) { deliveries = append(deliveries, d) })

	// Two client flows submit packets periodically.
	var submit func()
	seq := int64(0)
	submit = func() {
		for flow := uint32(10); flow <= 11; flow++ {
			a.Ingress.Submit(&network.Packet{
				Flow: flow, Seq: seq, Size: 1200,
				SentAt: loop.Now(),
			})
			seq++
		}
		loop.After(20*time.Millisecond, submit)
	}
	loop.After(0, submit)
	loop.Run(30 * time.Second)

	byFlow := map[uint32]int{}
	var worstDelay time.Duration
	for _, d := range deliveries {
		byFlow[d.Flow]++
		if delay := d.DeliveredAt - d.SentAt; delay > worstDelay && d.DeliveredAt > 10*time.Second {
			worstDelay = delay
		}
	}
	if byFlow[10] < 500 || byFlow[11] < 500 {
		t.Errorf("flow deliveries = %v, want both flows served", byFlow)
	}
	// Offered load: 2 flows × 1200B / 20ms = 960 kb/s, well under the
	// 3.6 Mb/s link: tunnel delay must stay interactive.
	if worstDelay > 500*time.Millisecond {
		t.Errorf("worst steady-state tunnel delay = %v", worstDelay)
	}
	if n := a.Sender.FeedbacksReceived(); n == 0 {
		t.Error("A's sender heard no forecast from B: the sessions did not cross")
	}
}
