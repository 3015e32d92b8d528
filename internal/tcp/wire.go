package tcp

import (
	"encoding/binary"
	"errors"
	"time"

	"sprout/internal/network"
)

// Wire format: a compact fixed-size header, marshaled big-endian.
// kind(1) + flow(4) + seq(8) + ack(8) = 21 bytes; data segments pad to the
// MSS on the wire, ACKs travel as 40-byte packets (IP+TCP header weight).
const (
	kindData = 1
	kindAck  = 2

	wireHeaderSize = 21
	// AckSize is the on-wire size of a pure ACK.
	AckSize = 40
)

type wireHeader struct {
	kind byte
	flow uint32
	seq  segnum // data: segment number; ack: cumulative ack (next expected)
	ack  segnum
}

func (h *wireHeader) marshal(dst []byte) []byte {
	var buf [wireHeaderSize]byte
	buf[0] = h.kind
	binary.BigEndian.PutUint32(buf[1:], h.flow)
	binary.BigEndian.PutUint64(buf[5:], uint64(h.seq))
	binary.BigEndian.PutUint64(buf[13:], uint64(h.ack))
	return append(dst, buf[:]...)
}

var errShortTCP = errors.New("tcp: short header")

func (h *wireHeader) unmarshal(src []byte) error {
	if len(src) < wireHeaderSize {
		return errShortTCP
	}
	h.kind = src[0]
	h.flow = binary.BigEndian.Uint32(src[1:])
	h.seq = segnum(binary.BigEndian.Uint64(src[5:]))
	h.ack = segnum(binary.BigEndian.Uint64(src[13:]))
	return nil
}

func dataPacket(pool *network.Pool, flow uint32, seq segnum, mss int, now time.Duration) *network.Packet {
	h := wireHeader{kind: kindData, flow: flow, seq: seq}
	pkt := pool.Get()
	pkt.Flow = flow
	pkt.Seq = seq
	pkt.Size = mss
	pkt.Payload = h.marshal(pkt.Payload[:0])
	pkt.SentAt = now
	return pkt
}

func ackPacket(pool *network.Pool, flow uint32, ack segnum, now time.Duration) *network.Packet {
	h := wireHeader{kind: kindAck, ack: ack}
	h.flow = flow
	pkt := pool.Get()
	pkt.Flow = flow
	pkt.Seq = ack
	pkt.Size = AckSize
	pkt.Payload = h.marshal(pkt.Payload[:0])
	pkt.SentAt = now
	return pkt
}
