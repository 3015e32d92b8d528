// Package protocol defines Sprout's wire format (§3.4 of the paper).
//
// Every Sprout packet carries, in both directions:
//
//   - a byte-granularity sequence number counting bytes sent so far;
//   - a "throwaway number": the sequence number of the most recent packet
//     sent more than 10 ms before this one, below which the receiver may
//     write off all unseen bytes as lost (the network is assumed never to
//     reorder packets sent more than 10 ms apart);
//   - a "time-to-next" marking: the sender's declared delay until its next
//     transmission, which lets the receiver distinguish an idle sender
//     (queue underflow) from a link outage;
//   - piggybacked receiver feedback: the received-or-lost byte total and
//     the cautious cumulative delivery forecast for the next eight ticks.
//
// Headers marshal to a fixed HeaderSize bytes with encoding/binary in
// big-endian (network) order.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Version identifies the wire format.
const Version = 1

// MaxForecastTicks is the maximum forecast length carried on the wire.
const MaxForecastTicks = 8

// HeaderSize is the fixed marshaled size in bytes:
// version(1) + flags(1) + flow(4) + seq(8) + payloadLen(4) + throwaway(8) +
// timeToNext(4) + recvTotal(8) + tickUS(4) + forecastLen(1) + forecast(8*4)
// + reserved(1) = 76.
const HeaderSize = 76

// Flag bits.
const (
	// FlagHeartbeat marks a keepalive sent by an idle sender (§3.2).
	FlagHeartbeat = 1 << iota
	// FlagForecast marks that the feedback fields (RecvTotal, Forecast)
	// are meaningful.
	FlagForecast
)

// Header is the Sprout per-packet header.
type Header struct {
	Flags uint8
	// Flow distinguishes Sprout sessions sharing a path.
	Flow uint32
	// Seq is the number of bytes sent on this flow before this packet
	// (i.e. the sequence number of the packet's first byte). Sequence
	// numbers count wire bytes, headers included, so the receiver's
	// byte totals line up with what the link delivers.
	Seq uint64
	// PayloadLen is the number of bytes this packet occupies on the
	// wire beyond the header (padding included).
	PayloadLen uint32
	// Throwaway is the sequence-number offset of the most recent packet
	// sent more than 10 ms before this one (§3.4).
	Throwaway uint64
	// TimeToNext is the sender's expected delay to its next packet; zero
	// for all but the last packet of a flight (§3.2).
	TimeToNext time.Duration
	// RecvTotal is the receiver's count of bytes received or written
	// off as lost (valid when FlagForecast is set).
	RecvTotal uint64
	// TickDuration is the receiver's inference tick (valid with
	// FlagForecast); the sender needs it to walk the forecast.
	TickDuration time.Duration
	// Forecast holds the cumulative cautious delivery forecast in bytes
	// for each of the next len(Forecast) ticks (valid with
	// FlagForecast).
	Forecast []uint32
}

// HasForecast reports whether the feedback fields are meaningful.
func (h *Header) HasForecast() bool { return h.Flags&FlagForecast != 0 }

var (
	errShort    = errors.New("protocol: buffer shorter than header")
	errVersion  = errors.New("protocol: unknown version")
	errForecast = errors.New("protocol: forecast length exceeds maximum")
)

// Marshal appends the fixed-size header encoding to dst and returns the
// extended slice.
func (h *Header) Marshal(dst []byte) ([]byte, error) {
	if len(h.Forecast) > MaxForecastTicks {
		return nil, errForecast
	}
	var buf [HeaderSize]byte
	buf[0] = Version
	buf[1] = h.Flags
	binary.BigEndian.PutUint32(buf[2:], h.Flow)
	binary.BigEndian.PutUint64(buf[6:], h.Seq)
	binary.BigEndian.PutUint32(buf[14:], h.PayloadLen)
	binary.BigEndian.PutUint64(buf[18:], h.Throwaway)
	binary.BigEndian.PutUint32(buf[26:], uint32(h.TimeToNext/time.Microsecond))
	binary.BigEndian.PutUint64(buf[30:], h.RecvTotal)
	binary.BigEndian.PutUint32(buf[38:], uint32(h.TickDuration/time.Microsecond))
	buf[42] = uint8(len(h.Forecast))
	off := 43
	for _, f := range h.Forecast {
		binary.BigEndian.PutUint32(buf[off:], f)
		off += 4
	}
	// Remaining bytes (unused forecast slots + reserved) stay zero.
	return append(dst, buf[:]...), nil
}

// Unmarshal parses a header from the front of src.
func (h *Header) Unmarshal(src []byte) error {
	if len(src) < HeaderSize {
		return errShort
	}
	if src[0] != Version {
		return fmt.Errorf("%w: %d", errVersion, src[0])
	}
	h.Flags = src[1]
	h.Flow = binary.BigEndian.Uint32(src[2:])
	h.Seq = binary.BigEndian.Uint64(src[6:])
	h.PayloadLen = binary.BigEndian.Uint32(src[14:])
	h.Throwaway = binary.BigEndian.Uint64(src[18:])
	h.TimeToNext = time.Duration(binary.BigEndian.Uint32(src[26:])) * time.Microsecond
	h.RecvTotal = binary.BigEndian.Uint64(src[30:])
	h.TickDuration = time.Duration(binary.BigEndian.Uint32(src[38:])) * time.Microsecond
	n := int(src[42])
	if n > MaxForecastTicks {
		return errForecast
	}
	h.Forecast = h.Forecast[:0]
	off := 43
	for i := 0; i < n; i++ {
		h.Forecast = append(h.Forecast, binary.BigEndian.Uint32(src[off:]))
		off += 4
	}
	return nil
}

// FlowOf reads the session id from the front of a marshaled header without
// parsing the rest, so a demux can route a packet before its endpoint
// unmarshals it. It reports false for bytes that hold no header.
func FlowOf(b []byte) (uint32, bool) {
	if len(b) < HeaderSize || b[0] != Version {
		return 0, false
	}
	return binary.BigEndian.Uint32(b[2:]), true
}
