package protocol

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		Flags:        FlagForecast,
		Flow:         7,
		Seq:          1234567890123,
		PayloadLen:   1424,
		Throwaway:    1234560000000,
		TimeToNext:   20 * time.Millisecond,
		RecvTotal:    999999,
		TickDuration: 20 * time.Millisecond,
		Forecast:     []uint32{1500, 3000, 4500, 6000, 7500, 9000, 10500, 12000},
	}
	buf, err := h.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != HeaderSize {
		t.Fatalf("marshaled size = %d, want %d", len(buf), HeaderSize)
	}
	var got Header
	if err := got.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, h)
	}
}

func TestHeaderRoundTripEmptyForecast(t *testing.T) {
	h := Header{Flags: FlagHeartbeat, Seq: 42, TimeToNext: time.Millisecond}
	buf, err := h.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got Header
	if err := got.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if got.Flags&FlagHeartbeat == 0 || got.HasForecast() {
		t.Errorf("flags wrong: %+v", got)
	}
	if got.Seq != 42 || got.TimeToNext != time.Millisecond {
		t.Errorf("fields wrong: %+v", got)
	}
	if len(got.Forecast) != 0 {
		t.Errorf("forecast should be empty: %v", got.Forecast)
	}
}

func TestHeaderUnmarshalErrors(t *testing.T) {
	var h Header
	if err := h.Unmarshal(make([]byte, HeaderSize-1)); err == nil {
		t.Error("expected error for short buffer")
	}
	buf := make([]byte, HeaderSize)
	buf[0] = 99 // bad version
	if err := h.Unmarshal(buf); err == nil {
		t.Error("expected error for bad version")
	}
	buf[0] = Version
	buf[42] = MaxForecastTicks + 1
	if err := h.Unmarshal(buf); err == nil {
		t.Error("expected error for oversized forecast")
	}
}

func TestHeaderMarshalOversizedForecast(t *testing.T) {
	h := Header{Forecast: make([]uint32, MaxForecastTicks+1)}
	if _, err := h.Marshal(nil); err == nil {
		t.Error("expected error for oversized forecast")
	}
}

func TestHeaderMarshalAppends(t *testing.T) {
	prefix := []byte{0xAA, 0xBB}
	h := Header{Seq: 5}
	buf, err := h.Marshal(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 2+HeaderSize || buf[0] != 0xAA || buf[1] != 0xBB {
		t.Errorf("append semantics broken: len=%d", len(buf))
	}
	var got Header
	if err := got.Unmarshal(buf[2:]); err != nil {
		t.Fatal(err)
	}
	if got.Seq != 5 {
		t.Errorf("Seq = %d", got.Seq)
	}
}

func TestHeaderUnmarshalReusesForecastSlice(t *testing.T) {
	h := Header{Flags: FlagForecast, Forecast: []uint32{1, 2, 3}}
	buf, _ := h.Marshal(nil)
	got := Header{Forecast: make([]uint32, 0, 8)}
	base := &got.Forecast[:1][0]
	if err := got.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if &got.Forecast[0] != base {
		t.Error("Unmarshal reallocated the forecast slice")
	}
}

func TestHeaderQuickRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	f := func(flags uint8, flow uint32, seq, throwaway, recvTotal uint64,
		payloadLen uint32, ttnUS, tickUS uint32, fc []uint32) bool {
		if len(fc) > MaxForecastTicks {
			fc = fc[:MaxForecastTicks]
		}
		h := Header{
			Flags: flags, Flow: flow, Seq: seq, Throwaway: throwaway,
			PayloadLen: payloadLen, RecvTotal: recvTotal,
			TimeToNext:   time.Duration(ttnUS) * time.Microsecond,
			TickDuration: time.Duration(tickUS) * time.Microsecond,
			Forecast:     fc,
		}
		buf, err := h.Marshal(nil)
		if err != nil {
			return false
		}
		var got Header
		if err := got.Unmarshal(buf); err != nil {
			return false
		}
		if len(fc) == 0 && len(got.Forecast) == 0 {
			got.Forecast = fc // normalize nil vs empty
		}
		return reflect.DeepEqual(h, got)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkHeaderMarshal(b *testing.B) {
	h := Header{
		Flags:    FlagForecast,
		Seq:      1 << 40,
		Forecast: []uint32{1, 2, 3, 4, 5, 6, 7, 8},
	}
	buf := make([]byte, 0, HeaderSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = h.Marshal(buf[:0])
	}
}

func BenchmarkHeaderUnmarshal(b *testing.B) {
	h := Header{Flags: FlagForecast, Forecast: []uint32{1, 2, 3, 4, 5, 6, 7, 8}}
	buf, _ := h.Marshal(nil)
	got := Header{Forecast: make([]uint32, 0, 8)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := got.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}
