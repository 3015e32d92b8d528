package transport

import (
	"sort"
	"testing"
	"time"

	"sprout/internal/link"
	"sprout/internal/network"
	"sprout/internal/protocol"
	"sprout/internal/sim"
	"sprout/internal/trace"
)

// inWorldSlots are the forecast slots TestInWorldCalibration scores.
var inWorldSlots = [3]int{1, 4, 8}

// inWorldBands pins, per data link, where the band [P(actual < forecast),
// P(actual ≤ forecast)] of the 95 % forecasts a receiver sends lies at
// slots 1, 4 and 8: {lowest P(<), highest P(<), highest P(≤)} per slot,
// each a little outside what seeds 1–10 give. The highest P(<) is the
// calibration loss itself, so it has its own ceiling. Three LTE links
// stay within §3.3's 5 % at every slot; at slot 4 the AT&T LTE uplink and
// the 3G links are undercut up to 9–14 % of the time, the measured price
// of censored observations (DESIGN.md §6.1).
var inWorldBands = map[string][3][3]float64{
	"Verizon-LTE-down": {{0.021, 0.044, 0.21}, {0.020, 0.051, 0.18}, {0.014, 0.041, 0.16}},
	"Verizon-LTE-up":   {{0.021, 0.043, 0.25}, {0.021, 0.049, 0.17}, {0.010, 0.029, 0.12}},
	"Verizon-3G-down":  {{0.037, 0.074, 0.57}, {0.082, 0.122, 0.32}, {0.027, 0.057, 0.18}},
	"Verizon-3G-up":    {{0.044, 0.082, 0.56}, {0.083, 0.138, 0.32}, {0.029, 0.075, 0.17}},
	"ATT-LTE-down":     {{0.021, 0.039, 0.23}, {0.020, 0.049, 0.15}, {0.008, 0.034, 0.12}},
	"ATT-LTE-up":       {{0.037, 0.061, 0.45}, {0.059, 0.098, 0.24}, {0.019, 0.041, 0.12}},
	"TMobile-3G-down":  {{0.034, 0.067, 0.38}, {0.031, 0.104, 0.22}, {0.011, 0.057, 0.12}},
	"TMobile-3G-up":    {{0.042, 0.066, 0.43}, {0.052, 0.096, 0.24}, {0.012, 0.044, 0.12}},
}

// inWorld is one run's score: how many forecasts were scored, and at each
// of inWorldSlots how many the deliveries fell under and how many they
// did not exceed.
type inWorld struct {
	forecasts     int
	under, atMost [len(inWorldSlots)]int
}

func (c *inWorld) rate(n int) float64 { return float64(n) / float64(c.forecasts) }

// scoreInWorld runs a Sprout flow (infinite backlog) for dur with data on
// data and feedback on fb, 20 ms propagation each way, on the streams a
// scenario spec of this seed draws (seed·31+7 and seed·31+8). A tap on the
// receiver's feedback keeps each forecast and when it was sent; the data
// link's observer keeps every opportunity. After 1 s of warm-up, slot i
// of a forecast sent at t is scored against MTU × the opportunities in
// (t, t + i·tick].
func scoreInWorld(data, fb trace.LinkModel, seed int64, dur time.Duration, literalSkip bool) inWorld {
	const prop, warmup = 20 * time.Millisecond, time.Second
	loop := sim.New()
	var snd *Sender
	var rcv *Receiver
	fwd := link.New(loop, link.Config{Process: data.Process(), ProcessSeed: seed*31 + 7, PropagationDelay: prop},
		func(p *network.Packet) { rcv.Receive(p) })
	rev := link.New(loop, link.Config{Process: fb.Process(), ProcessSeed: seed*31 + 8, PropagationDelay: prop},
		func(p *network.Packet) { snd.Receive(p) })
	var opportunities []time.Duration
	fwd.OnOpportunity(func(at time.Duration) { opportunities = append(opportunities, at) })

	type sent struct {
		at, tick time.Duration
		forecast [protocol.MaxForecastTicks]uint32
	}
	var forecasts []sent
	h := protocol.Header{Forecast: make([]uint32, 0, protocol.MaxForecastTicks)}
	tap := network.ConnFunc(func(p *network.Packet) {
		h.Forecast = h.Forecast[:0]
		if h.Unmarshal(p.Payload) == nil && h.HasForecast() && len(h.Forecast) >= inWorldSlots[len(inWorldSlots)-1] {
			f := sent{at: loop.Now(), tick: h.TickDuration}
			copy(f.forecast[:], h.Forecast)
			forecasts = append(forecasts, f)
		}
		rev.Send(p)
	})
	rcv = NewReceiver(ReceiverConfig{Clock: loop, Conn: tap, LiteralSkip: literalSkip})
	snd = NewSender(SenderConfig{Clock: loop, Conn: fwd})
	loop.Run(dur)

	// after returns how many opportunities fall after t.
	after := func(t time.Duration) int {
		return len(opportunities) - sort.Search(len(opportunities), func(i int) bool { return opportunities[i] > t })
	}
	var c inWorld
	for _, f := range forecasts {
		last := f.at + time.Duration(inWorldSlots[len(inWorldSlots)-1])*f.tick
		if f.at < warmup || last > dur {
			continue
		}
		c.forecasts++
		from := after(f.at)
		for k, slot := range inWorldSlots {
			actual := uint32(network.MTU * (from - after(f.at+time.Duration(slot)*f.tick)))
			if actual < f.forecast[slot-1] {
				c.under[k]++
			}
			if actual <= f.forecast[slot-1] {
				c.atMost[k]++
			}
		}
	}
	return c
}

// TestInWorldCalibration scores the forecasts Sprout's receiver actually
// sends, inside a running flow, against the link it forecasts: eight
// canonical links by seeds 1–10 at 60 s (seed 1 under -short).
// TestForecastCalibration (internal/core) scores the forecaster under
// exact observations; here the receiver observes censored ticks (§3.2,
// DESIGN.md §6.1), and that costs calibration on the slow links — the
// price of the throughput the censored update buys, measured, not
// retuned. Gates:
//   - on at least 9 of 10 seeds, each link's band at slots 1, 4 and 8 lies
//     within inWorldBands;
//   - under LiteralSkip (the paper's rule) the deliveries fall under the
//     forecast at most 5 % of the time on every link, seed and slot.
func TestInWorldCalibration(t *testing.T) {
	const dur = 60 * time.Second
	seeds := int64(10)
	if testing.Short() {
		seeds = 1
	}
	links := trace.CanonicalLinks()
	for li, data := range links {
		fb := links[li^1] // the other direction of the same network
		pins, ok := inWorldBands[data.Name]
		if !ok {
			t.Fatalf("%s: no pinned band", data.Name)
		}
		held := 0
		for seed := int64(1); seed <= seeds; seed++ {
			c := scoreInWorld(data, fb, seed, dur, false)
			lit := scoreInWorld(data, fb, seed, dur, true)
			if c.forecasts == 0 || lit.forecasts == 0 {
				t.Fatalf("%s seed %d: no forecast scored", data.Name, seed)
			}
			in := true
			for k, slot := range inWorldSlots {
				under, atMost := c.rate(c.under[k]), c.rate(c.atMost[k])
				in = in && under >= pins[k][0] && under <= pins[k][1] && atMost <= pins[k][2]
				if r := lit.rate(lit.under[k]); r > 0.05 {
					t.Errorf("%s seed %d slot %d: under LiteralSkip deliveries fell under the forecast %.2f%% of the time",
						data.Name, seed, slot, 100*r)
				}
			}
			if in {
				held++
			}
			t.Logf("%s seed %d: %d forecasts, slot 1 [%.4f, %.4f], slot 4 [%.4f, %.4f], slot 8 [%.4f, %.4f]; LiteralSkip P(<) %.4f %.4f %.4f",
				data.Name, seed, c.forecasts,
				c.rate(c.under[0]), c.rate(c.atMost[0]), c.rate(c.under[1]), c.rate(c.atMost[1]),
				c.rate(c.under[2]), c.rate(c.atMost[2]),
				lit.rate(lit.under[0]), lit.rate(lit.under[1]), lit.rate(lit.under[2]))
		}
		t.Logf("%s: pinned band held on %d of %d seeds", data.Name, held, seeds)
		if 10*held < 9*int(seeds) {
			t.Errorf("%s: pinned band held on only %d of %d seeds", data.Name, held, seeds)
		}
	}
}
