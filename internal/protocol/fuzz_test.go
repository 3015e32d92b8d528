package protocol

import (
	"bytes"
	"testing"
	"time"
)

// FuzzUnmarshal exercises the header parser with arbitrary bytes: it must
// never panic, every successfully parsed header must re-marshal to an
// equivalent wire image (parse → marshal → parse is a fixed point), and
// FlowOf must read the parsed header's flow.
//
// Run with `go test -fuzz FuzzUnmarshal ./internal/protocol` for live
// fuzzing; the seed corpus below runs as a normal test.
func FuzzUnmarshal(f *testing.F) {
	// Seed corpus: a valid header, a heartbeat, a truncated buffer,
	// wrong version, oversize forecast count, trailing garbage.
	valid, _ := (&Header{
		Flags: FlagForecast, Flow: 3, Seq: 999, PayloadLen: 1424,
		Throwaway: 500, TimeToNext: 20 * time.Millisecond,
		RecvTotal: 1 << 40, TickDuration: 20 * time.Millisecond,
		Forecast: []uint32{1, 2, 3, 4, 5, 6, 7, 8},
	}).Marshal(nil)
	f.Add(valid)
	hb, _ := (&Header{Flags: FlagHeartbeat}).Marshal(nil)
	f.Add(hb)
	f.Add(valid[:HeaderSize-1])
	bad := append([]byte(nil), valid...)
	bad[0] = 99
	f.Add(bad)
	over := append([]byte(nil), valid...)
	over[42] = MaxForecastTicks + 1
	f.Add(over)
	f.Add(append(append([]byte(nil), valid...), 0xDE, 0xAD))

	f.Fuzz(func(t *testing.T, data []byte) {
		var h Header
		h.Forecast = make([]uint32, 0, MaxForecastTicks)
		flow, ok := FlowOf(data)
		if err := h.Unmarshal(data); err != nil {
			return // rejected input is fine; panics are not
		}
		if !ok || flow != h.Flow {
			t.Fatalf("FlowOf = %d, %v on a header of flow %d", flow, ok, h.Flow)
		}
		// Round-trip stability.
		out, err := h.Marshal(nil)
		if err != nil {
			t.Fatalf("parsed header failed to marshal: %v (%+v)", err, h)
		}
		var h2 Header
		h2.Forecast = make([]uint32, 0, MaxForecastTicks)
		if err := h2.Unmarshal(out); err != nil {
			t.Fatalf("re-marshaled header failed to parse: %v", err)
		}
		out2, err := h2.Marshal(nil)
		if err != nil {
			t.Fatalf("second marshal failed: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("marshal not a fixed point:\n%x\n%x", out, out2)
		}
	})
}
