package probes

import (
	"math/rand"
	"time"

	"sprout/internal/cell"
	"sprout/internal/core"
	"sprout/internal/link"
	"sprout/internal/metrics"
	"sprout/internal/network"
	"sprout/internal/sim"
	"sprout/internal/trace"
)

// lteModel is the link every single-flow probe uses: the Verizon LTE
// downlink, the fastest canonical link and so the one with the most
// packets per simulated second.
func lteModel() trace.LinkModel {
	m, ok := trace.CanonicalLink("Verizon-LTE-down")
	if !ok {
		panic("probes: canonical link Verizon-LTE-down missing")
	}
	return m
}

// tickObservations is what a Sprout receiver on a saturated Verizon LTE
// downlink observes: MTU-packets delivered in each 20 ms tick of a 30 s
// trace (outages included), the input shape of paper_suite's solo Sprout
// jobs.
func tickObservations() []float64 {
	tr := lteModel().Generate(30*time.Second, rand.New(rand.NewSource(1)))
	obs := make([]float64, 30*time.Second/core.DefaultTick)
	for _, at := range tr.Opportunities {
		if i := int(at / core.DefaultTick); i < len(obs) {
			obs[i]++
		}
	}
	return obs
}

// coreProbes copy paper_suite (one forecaster, a tick then a forecast
// every 20 ms) and cell_sprout (24 forecasters answered by one
// ForecastBatch call per tick).
func coreProbes(c Config) ([]Result, error) {
	obs := tickObservations()
	f := core.NewDeliveryForecaster(core.NewModel(core.Params{}))
	at := 0
	tick := func(f *core.DeliveryForecaster) {
		f.Tick(obs[at%len(obs)], core.ObsExact)
		at++
	}
	for i := 0; i < 200; i++ {
		tick(f)
	}
	var buf []float64
	// forecastAfterTick advances the filter untimed, then times fn: the
	// posterior a forecast starts from keeps moving as it does in a run.
	forecastAfterTick := func(fn func()) func(n int) time.Duration {
		return func(n int) time.Duration {
			var d time.Duration
			for i := 0; i < n; i++ {
				tick(f)
				t0 := time.Now()
				fn()
				d += time.Since(t0)
			}
			return d
		}
	}
	confidences := []float64{0.95, 0.75, 0.50, 0.25, 0.05} // Fig. 9's sweep

	out := []Result{
		c.micro("core.tick_us", "us", perUS, func(n int) time.Duration {
			return timed(n, func() { tick(f) })
		}),
		c.micro("core.forecast_us", "us", perUS, forecastAfterTick(func() { buf = f.Forecast(buf[:0]) })),
		c.micro("core.forecast_all5_us", "us", perUS, forecastAfterTick(func() { buf = f.ForecastAll(buf[:0], confidences) })),
	}

	const flows = 24 // cell_sprout's flows per cell
	fs := make([]*core.DeliveryForecaster, flows)
	for i := range fs {
		fs[i] = core.NewDeliveryForecaster(core.NewModel(core.Params{}))
	}
	share := func(i int) float64 { return obs[(at+i*61)%len(obs)] / flows * 4 }
	tickAll := func() {
		for i, bf := range fs {
			bf.Tick(share(i), core.ObsExact)
		}
		at++
	}
	for i := 0; i < 200; i++ {
		tickAll()
	}
	out = append(out, c.micro("core.batch_us_per_flow", "us", perUS/flows, func(n int) time.Duration {
		var d time.Duration
		for i := 0; i < n; i++ {
			tickAll()
			t0 := time.Now()
			buf = core.ForecastBatch(buf[:0], fs)
			d += time.Since(t0)
		}
		return d
	}))

	// An uncached parameter set per build: what the first Sprout job of a
	// process pays inside setup_s. MaxRate shapes the table key; the
	// offsets are too small to change the table's size.
	builds := 0
	out = append(out, c.heavy("core.table_build_ms", "ms", perMS, func(n int) time.Duration {
		return timed(n, func() {
			builds++
			core.NewDeliveryForecaster(core.NewModel(core.Params{MaxRate: core.DefaultMaxRate + float64(builds)*1e-6}))
		})
	}))

	out = append(out, allocsPer("core.allocs_per_forecast", 500, func() {
		tick(f)
		buf = f.Forecast(buf[:0])
	}))
	return out, nil
}

// eventLoop returns a loop holding depth self-rearming timers with
// distinct periods, so every fired event pushes a new one to a different
// heap position, and a counter of fired events.
func eventLoop(depth int) (*sim.Loop, *int) {
	loop := sim.New()
	fired := new(int)
	for i := 0; i < depth; i++ {
		period := time.Duration(1000+7*i) * time.Microsecond
		var fn func()
		fn = func() {
			*fired++
			loop.After(period, fn)
		}
		loop.After(period, fn)
	}
	return loop, fired
}

// simProbes time the event heap at the depth a one-to-four-flow
// transport_grid job keeps (64 pending events) and at the depth a
// 512-flow cell_crowd job keeps (4096).
func simProbes(c Config) ([]Result, error) {
	events := func(depth int) func(n int) time.Duration {
		loop, fired := eventLoop(depth)
		return func(n int) time.Duration {
			t0 := time.Now()
			for target := *fired + n; *fired < target; {
				loop.Step()
			}
			return time.Since(t0)
		}
	}
	// Rescheduling a pending timer in place is how endpoints push back
	// retransmission and pacing timers, once or more per packet.
	loop, _ := eventLoop(64)
	tm := loop.After(time.Second, func() {})
	k := 0
	return []Result{
		c.micro("sim.event_ns", "ns", perNS, events(64)),
		c.micro("sim.event_ns_deep", "ns", perNS, events(4096)),
		c.micro("sim.reschedule_ns", "ns", perNS, func(n int) time.Duration {
			return timed(n, func() {
				k++
				tm = loop.Reschedule(tm, time.Duration(1+k%97)*time.Millisecond, func() {})
			})
		}),
	}, nil
}

// linkCarry returns a body that times packets of the given size across a
// streaming LTE link at twice the canonical rate (transport_grid's
// shape): a window of packets stays in flight, each delivery re-sends its
// packet, and one operation is one delivered packet.
func linkCarry(size int) (body func(n int) time.Duration, step func()) {
	proc, err := trace.NewScale(lteModel().Process(), 2)
	if err != nil {
		panic(err) // constant factor; cannot fail
	}
	loop := sim.New()
	delivered := 0
	var l *link.Link
	l = link.New(loop, link.Config{Process: proc, ProcessSeed: 7, PropagationDelay: 20 * time.Millisecond},
		func(p *network.Packet) {
			delivered++
			p.SentAt = loop.Now()
			l.Send(p)
		})
	pkts := make([]network.Packet, 64)
	for i := range pkts {
		pkts[i] = network.Packet{Flow: 1, Size: size}
		l.Send(&pkts[i])
	}
	step = func() {
		for before := delivered; delivered == before; {
			loop.Step()
		}
	}
	for i := 0; i < 4000; i++ { // warm rings, arena and model-step buffers
		step()
	}
	return func(n int) time.Duration { return timed(n, step) }, step
}

func linkProbes(c Config) ([]Result, error) {
	mtu, mtuStep := linkCarry(network.MTU)
	// 100-byte packets: fifteen leave per opportunity, the shape of the
	// app schemes' small frames and of every ACK on the feedback link.
	small, _ := linkCarry(100)
	return []Result{
		c.micro("link.pkt_ns", "ns", perNS, mtu),
		c.micro("link.small_pkt_ns", "ns", perNS, small),
		allocsPer("link.allocs_per_pkt", 2000, mtuStep),
	}, nil
}

// steadyProcess offers one opportunity every period, forever, so a tower
// with backlogged flows serves a full MTU on each.
type steadyProcess struct{ period, t time.Duration }

func (p *steadyProcess) Next() (time.Duration, bool) {
	p.t += p.period
	return p.t, true
}

func (p *steadyProcess) Reset(int64) { p.t = 0 }

// crowdedTower returns a tower with n backlogged flows in a closed loop
// (every delivered packet re-enters its own slot's queue) and a function
// that advances it by one delivered packet, that is one scheduler grant.
func crowdedTower(sched cell.Scheduler, n int) (tw *cell.Tower, loop *sim.Loop, pkts []network.Packet, step func()) {
	loop = sim.New()
	delivered := 0
	tw = cell.NewTower(loop, cell.Config{
		Process:          &steadyProcess{period: 100 * time.Microsecond},
		PropagationDelay: time.Millisecond,
		Scheduler:        sched,
	}, func(p *network.Packet) {
		delivered++
		tw.Send(int(p.Flow), p)
	})
	pkts = make([]network.Packet, n)
	for i := range pkts {
		slot := tw.Attach()
		pkts[i] = network.Packet{Flow: uint32(slot), Size: network.MTU}
		tw.Send(slot, &pkts[i])
	}
	step = func() {
		for before := delivered; delivered == before; {
			loop.Step()
		}
	}
	for i := 0; i < 4*n+2000; i++ { // rings, heap and scheduler arrays reach steady size
		step()
	}
	return tw, loop, pkts, step
}

// cellProbes time one grant at cell_sprout's width (16 is the nearest
// power of two to its 24 flows) and at cell_crowd's (two towers sharing
// 512 static flows plus churn: up to 1024 slots), the handover path
// cell_crowd takes twice a simulated second, and a 100 ms window's
// allocations.
func cellProbes(c Config) ([]Result, error) {
	grant := func(sched cell.Scheduler, n int) func(int) time.Duration {
		_, _, _, step := crowdedTower(sched, n)
		return func(k int) time.Duration { return timed(k, step) }
	}
	const width = 1024
	tw, loop, pkts, _ := crowdedTower(cell.NewPropFair(0), width)
	// A handover detaches a backlogged flow and attaches it elsewhere.
	// Groups of 64 slots are moved under the clock; re-sending their
	// packets and letting them land (2 ms covers the propagation delay)
	// is untimed, so every detach finds its slot backlogged again.
	slot := 0
	handovers := func(n int) time.Duration {
		var d time.Duration
		for done := 0; done < n; done += 64 {
			first := slot
			t0 := time.Now()
			for j := 0; j < 64; j++ {
				tw.Detach(slot)
				tw.Attach() // LIFO free list: the same slot comes back
				slot = (slot + 1) % width
			}
			d += time.Since(t0)
			for j := 0; j < 64; j++ {
				s := (first + j) % width
				tw.Send(s, &pkts[s])
			}
			loop.Run(loop.Now() + 2*time.Millisecond)
		}
		return d / 64 * time.Duration(min(n, 64)) // n < 64 still moved a whole group
	}
	end := loop.Now()
	return []Result{
		c.micro("cell.pf_grant_ns_n16", "ns", perNS, grant(cell.NewPropFair(0), 16)),
		c.micro("cell.pf_grant_ns_n1024", "ns", perNS, grant(cell.NewPropFair(0), 1024)),
		c.micro("cell.rr_grant_ns_n1024", "ns", perNS, grant(cell.NewRoundRobin(), 1024)),
		c.micro("cell.attach_detach_ns", "ns", perNS, handovers),
		allocsPer("cell.allocs_per_window", 20, func() {
			end = max(end, loop.Now()) + 100*time.Millisecond
			loop.Run(end)
		}),
	}, nil
}

// traceProbes time the streaming model (every opportunity of
// transport_grid and shard_sweep is one Next; every shard_sweep job
// builds and resets two processes) and the materialized generator
// (paper_suite builds one 160 s pair per network and seed).
func traceProbes(c Config) ([]Result, error) {
	m := lteModel()
	proc := m.Process()
	proc.Reset(1)
	seed := int64(0)
	rng := rand.New(rand.NewSource(1))
	return []Result{
		c.micro("trace.next_ns", "ns", perNS, func(n int) time.Duration {
			return timed(n, func() { proc.Next() })
		}),
		c.micro("trace.reset_us", "us", perUS, func(n int) time.Duration {
			return timed(n, func() {
				seed++
				p := m.Process()
				p.Reset(seed)
				p.Next()
			})
		}),
		c.heavy("trace.generate_ms_150s", "ms", perMS, func(n int) time.Duration {
			// 150 s plus the 10 s margin GenerateTracePair adds.
			return timed(n, func() { m.Generate(160*time.Second, rng) })
		}),
	}, nil
}

// metricsProbes feed the accumulator one minute of LTE-rate deliveries
// with a sawtooth queueing delay (a bufferbloated TCP flow's shape, which
// makes every delivery its own delay segment), then evaluate.
func metricsProbes(c Config) ([]Result, error) {
	const (
		deliveries = 25_000
		gap        = 2400 * time.Microsecond // ≈ 420 packets/s
		skip       = 12 * time.Second
	)
	run := deliveries * gap
	var acc metrics.Accumulator
	flows := []uint32{1}
	cycle := func() (observe, evaluate time.Duration) {
		acc.Start(skip, run, flows)
		acc.TrackOpportunities(20 * time.Millisecond)
		t0 := time.Now()
		for i := 0; i < deliveries; i++ {
			at := time.Duration(i) * gap
			acc.ObserveOpportunity(at)
			delay := 20*time.Millisecond + time.Duration(i%500)*200*time.Microsecond
			acc.Observe(link.Delivery{SentAt: at - delay, DeliveredAt: at, Size: network.MTU, Seq: int64(i), Flow: 1})
		}
		t1 := time.Now()
		acc.EvaluateStreaming()
		return t1.Sub(t0), time.Since(t1)
	}
	obs := c.fixed("metrics.observe_ns", "ns", perNS/deliveries, c.Batches, func(n int) time.Duration {
		var d time.Duration
		for i := 0; i < n; i++ {
			o, _ := cycle()
			d += o
		}
		return d
	})
	eval := c.fixed("metrics.evaluate_us_per_kdeliv", "us", perUS/(deliveries/1000), c.Batches, func(n int) time.Duration {
		var d time.Duration
		for i := 0; i < n; i++ {
			_, e := cycle()
			d += e
		}
		return d
	})
	return []Result{obs, eval}, nil
}
