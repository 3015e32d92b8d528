// Package tunnel implements SproutTunnel (§4.3 of the paper): a tunnel that
// carries arbitrary client flows (TCP, videoconference traffic, ...) across
// a cellular link over a single Sprout session.
//
// The ingress endpoint keeps one FIFO per client flow and fills the Sprout
// window in round-robin order among flows with pending data. The total
// buffered backlog across all flows is limited to the receiver's most
// recent estimate of how many bytes can be delivered over the life of the
// forecast; when the backlog exceeds that, packets are dropped from the
// head of the longest queue. This turns the forecast into a dynamic
// traffic-shaping/AQM policy that isolates interactive flows from bulk
// transfers.
package tunnel

import (
	"encoding/binary"
	"time"

	"sprout/internal/link"
	"sprout/internal/network"
	"sprout/internal/sim"
	"sprout/internal/transport"
)

// Frame header: flow(4) + seq(8) + wireSize(4) + sentAt(8) + payloadLen(2).
const frameHeaderSize = 26

func marshalFrame(pkt *network.Packet) []byte {
	buf := make([]byte, frameHeaderSize+len(pkt.Payload))
	binary.BigEndian.PutUint32(buf[0:], pkt.Flow)
	binary.BigEndian.PutUint64(buf[4:], uint64(pkt.Seq))
	binary.BigEndian.PutUint32(buf[12:], uint32(pkt.Size))
	binary.BigEndian.PutUint64(buf[16:], uint64(pkt.SentAt))
	binary.BigEndian.PutUint16(buf[24:], uint16(len(pkt.Payload)))
	copy(buf[frameHeaderSize:], pkt.Payload)
	return buf
}

func unmarshalFrame(pool *network.Pool, b []byte) (*network.Packet, bool) {
	if len(b) < frameHeaderSize {
		return nil, false
	}
	plen := int(binary.BigEndian.Uint16(b[24:]))
	if len(b) < frameHeaderSize+plen {
		return nil, false
	}
	pkt := pool.Get()
	pkt.Flow = binary.BigEndian.Uint32(b[0:])
	pkt.Seq = int64(binary.BigEndian.Uint64(b[4:]))
	pkt.Size = int(binary.BigEndian.Uint32(b[12:]))
	pkt.SentAt = time.Duration(binary.BigEndian.Uint64(b[16:]))
	pkt.Payload = append(pkt.Payload[:0], b[frameHeaderSize:frameHeaderSize+plen]...)
	return pkt, true
}

// minBacklog is the backlog floor (bytes) applied before the first forecast
// arrives, so the tunnel can bootstrap.
const minBacklog = 8 * network.MTU

// Ingress is the tunnel's sending side: per-flow queues feeding a Sprout
// sender in round-robin order. It implements transport.Source.
type Ingress struct {
	queues  map[uint32]*flowQueue
	order   []uint32
	rrNext  int
	backlog int // total queued bytes (frame sizes)

	sender *transport.Sender
	pool   *network.Pool

	dropsHead int64
	submitted int64
}

type flowQueue struct {
	frames [][]byte
	bytes  int
}

// NewIngress creates an empty ingress. Bind must be called with the Sprout
// sender before traffic flows (the sender needs the ingress as its Source
// at construction, hence the two-step wiring).
func NewIngress() *Ingress {
	return &Ingress{queues: make(map[uint32]*flowQueue)}
}

// Bind attaches the Sprout sender whose forecast bounds the backlog.
func (in *Ingress) Bind(s *transport.Sender) { in.sender = s }

// UsePool names the arena client packets come from: Submit copies each
// packet into a frame and releases it there. nil leaves submitted packets
// to the garbage collector.
func (in *Ingress) UsePool(p *network.Pool) { in.pool = p }

// HeadDrops returns how many client packets were dropped from queue heads.
func (in *Ingress) HeadDrops() int64 { return in.dropsHead }

// Backlog returns the total queued bytes.
func (in *Ingress) Backlog() int { return in.backlog }

// Submit enqueues a client packet for carriage through the tunnel.
// The client packet's wire size (pkt.Size) is what the tunnel accounts and
// what the egress reproduces. The packet leaves the client's network here:
// its bytes travel on as a frame, and the packet itself is released to the
// pool.
func (in *Ingress) Submit(pkt *network.Packet) {
	q := in.queues[pkt.Flow]
	if q == nil {
		q = &flowQueue{}
		in.queues[pkt.Flow] = q
		in.order = append(in.order, pkt.Flow)
	}
	frame := marshalFrame(pkt)
	q.frames = append(q.frames, frame)
	q.bytes += pkt.Size
	in.backlog += pkt.Size
	in.submitted++
	in.pool.Put(pkt)
	in.enforceLimit()
	// Wake the sender: client arrivals may fill a currently open window.
	if in.sender != nil {
		in.sender.Poke()
	}
}

// enforceLimit applies the forecast-bounded backlog policy: drop from the
// head of the longest queue while the backlog exceeds the receiver's
// estimate of deliverable bytes over the forecast horizon.
func (in *Ingress) enforceLimit() {
	limit := minBacklog
	if in.sender != nil {
		if fc := int(in.sender.ForecastTotal()); fc > limit {
			limit = fc
		}
	}
	for in.backlog > limit {
		var longest *flowQueue
		for _, f := range in.order {
			q := in.queues[f]
			if longest == nil || q.bytes > longest.bytes {
				longest = q
			}
		}
		if longest == nil || len(longest.frames) == 0 {
			return
		}
		in.dropHead(longest)
	}
}

func (in *Ingress) dropHead(q *flowQueue) {
	frame := q.frames[0]
	q.frames = q.frames[1:]
	size := int(binary.BigEndian.Uint32(frame[12:]))
	q.bytes -= size
	in.backlog -= size
	in.dropsHead++
}

// NextPayload implements transport.Source: round-robin over flows with
// pending frames. One tunnel frame rides in each Sprout packet. The wire
// length charged to the Sprout window (and consumed on the emulated link)
// is the client packet's full wire size plus the frame header, so the
// tunnel occupies exactly what the client traffic would, plus overhead.
func (in *Ingress) NextPayload(max int) ([]byte, int) {
	n := len(in.order)
	for i := 0; i < n; i++ {
		f := in.order[(in.rrNext+i)%n]
		q := in.queues[f]
		if len(q.frames) == 0 {
			continue
		}
		frame := q.frames[0]
		size := int(binary.BigEndian.Uint32(frame[12:]))
		wireLen := size + frameHeaderSize
		if len(frame) > wireLen {
			wireLen = len(frame)
		}
		if wireLen > max {
			// The client's packet exceeds the tunnel MTU. Drop it
			// (clients are configured with a reduced MTU, as with
			// any real tunnel).
			in.dropHead(q)
			i--
			continue
		}
		q.frames = q.frames[1:]
		q.bytes -= size
		in.backlog -= size
		in.rrNext = (in.rrNext + i + 1) % n
		return frame, wireLen
	}
	return nil, 0
}

// Egress is the tunnel's receiving side: it unwraps frames delivered by the
// Sprout receiver and hands the reconstructed client packets to a handler,
// recording a delivery log for metrics.
type Egress struct {
	clock   sim.Clock
	handler network.Handler
	pool    *network.Pool

	deliveries []link.Delivery
	record     bool
	onDelivery func(link.Delivery)
	badFrames  int64
}

// NewEgress creates the egress; attach its Deliver method as the Sprout
// receiver's Deliver callback. handler receives reconstructed client
// packets (may be nil).
func NewEgress(clock sim.Clock, handler network.Handler) *Egress {
	if clock == nil {
		panic("tunnel: Egress requires a clock")
	}
	return &Egress{clock: clock, handler: handler}
}

// RecordDeliveries enables the per-client-packet delivery log.
func (e *Egress) RecordDeliveries(on bool) { e.record = on }

// OnDelivery registers fn to observe each client-packet Delivery record as
// it is reconstructed (the streaming-metrics hook, mirroring
// link.OnDelivery). nil removes the observer.
func (e *Egress) OnDelivery(fn func(link.Delivery)) { e.onDelivery = fn }

// UsePool directs reconstructed client packets to the given arena (world
// reuse); nil reverts to heap allocation. Each packet is released again
// once the handler returns, so the handler must not keep it.
func (e *Egress) UsePool(p *network.Pool) { e.pool = p }

// Deliveries returns the recorded client-packet delivery log.
func (e *Egress) Deliveries() []link.Delivery { return e.deliveries }

// TakeDeliveries returns the recorded log and transfers ownership to the
// caller (mirroring link.TakeDeliveries).
func (e *Egress) TakeDeliveries() []link.Delivery {
	d := e.deliveries
	e.deliveries = nil
	return d
}

// BadFrames counts undecodable frames.
func (e *Egress) BadFrames() int64 { return e.badFrames }

// Deliver consumes one Sprout payload (a tunnel frame).
func (e *Egress) Deliver(payload []byte) {
	pkt, ok := unmarshalFrame(e.pool, payload)
	if !ok {
		e.badFrames++
		return
	}
	if e.record || e.onDelivery != nil {
		d := link.Delivery{
			SentAt:      pkt.SentAt,
			DeliveredAt: e.clock.Now(),
			Size:        pkt.Size,
			Seq:         pkt.Seq,
			Flow:        pkt.Flow,
		}
		if e.record {
			e.deliveries = append(e.deliveries, d)
		}
		if e.onDelivery != nil {
			e.onDelivery(d)
		}
	}
	if e.handler != nil {
		e.handler(pkt)
	}
	e.pool.Put(pkt)
}
