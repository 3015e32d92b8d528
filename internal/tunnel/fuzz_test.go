package tunnel

import (
	"bytes"
	"testing"

	"sprout/internal/network"
)

// FuzzUnmarshalFrame drives the egress's frame decoder — the bytes inside
// a received Sprout payload — with arbitrary input: it never panics, and a
// frame it accepts marshals back to exactly the bytes it was read from,
// the 26-byte header and its declared payload, whatever trails them.
func FuzzUnmarshalFrame(f *testing.F) {
	frame := marshalFrame(&network.Packet{Flow: 7, Seq: 1 << 40, Size: 1300, SentAt: 123456789, Payload: []byte("client bytes")})
	f.Add(frame)
	f.Add(frame[:frameHeaderSize-1])
	f.Add(frame[:len(frame)-1])
	f.Add(append(append([]byte(nil), frame...), 0xde, 0xad))
	f.Add(marshalFrame(&network.Packet{Seq: -1, Size: -1, SentAt: -1}))

	f.Fuzz(func(t *testing.T, b []byte) {
		pkt, ok := unmarshalFrame(nil, b)
		if !ok {
			return
		}
		n := frameHeaderSize + len(pkt.Payload)
		if got := marshalFrame(pkt); n > len(b) || !bytes.Equal(got, b[:n]) {
			t.Fatalf("frame %x decoded to %+v, which marshals to %x", b, pkt, got)
		}
	})
}
