// Command cellsim is a real-time, trace-driven UDP network emulator — the
// live counterpart of the paper's Cellsim (§4.2). It relays datagrams
// between two UDP endpoints, shaping each direction with a cellular trace:
// packets are delayed by the propagation delay, queued, and released only
// at the trace's delivery opportunities (per-byte accounting), with
// optional Bernoulli loss and CoDel queue management.
//
// Each endpoint sends its first datagram to one of cellsim's two ports to
// register; thereafter everything arriving on port A is shaped by the
// downlink trace and forwarded to the endpoint on port B, and vice versa.
//
// Usage:
//
//	cellsim -a :9001 -b :9002 -down vzw-down.trace -up vzw-up.trace
//	cellsim -a :9001 -b :9002 -gen "Verizon LTE" -loss 0.05 -codel
//
// With -gen, each direction is shaped by the canonical network's §3.1 link
// model itself, streamed: the opportunities are the ones the generated
// trace at the same seed would hold, never looped, so the emulator runs
// indefinitely at O(1) trace memory.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sprout/internal/codel"
	"sprout/internal/engine"
	"sprout/internal/link"
	"sprout/internal/network"
	"sprout/internal/realtime"
	"sprout/internal/trace"
	"sprout/internal/udp"
)

func main() {
	addrA := flag.String("a", ":9001", "UDP listen address for side A")
	addrB := flag.String("b", ":9002", "UDP listen address for side B")
	downFile := flag.String("down", "", "mahimahi trace for A->B (downlink)")
	upFile := flag.String("up", "", "mahimahi trace for B->A (uplink)")
	gen := flag.String("gen", "", "shape by a canonical network's streamed link model instead (e.g. \"Verizon LTE\")")
	prop := flag.Duration("prop", 20*time.Millisecond, "one-way propagation delay per direction")
	loss := flag.Float64("loss", 0, "Bernoulli loss probability per direction")
	useCodel := flag.Bool("codel", false, "apply CoDel on both queues")
	seed := flag.Int64("seed", 1, "seed for the -gen model and loss (each direction derives its own stream)")
	stats := flag.Duration("stats", 5*time.Second, "statistics reporting interval (0 disables)")
	flag.Parse()

	downSrc, upSrc, err := resolveShaping(shapingArgs{Gen: *gen, DownFile: *downFile, UpFile: *upFile, Seed: *seed})
	if err != nil {
		// One-line diagnosis, non-zero exit: malformed arguments are a
		// usage error, never a panic.
		fmt.Fprintln(os.Stderr, "cellsim:", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	clock := realtime.New(ctx)
	connA, err := udp.Listen(clock, *addrA)
	exitOn(err)
	connB, err := udp.Listen(clock, *addrB)
	exitOn(err)
	mode := ""
	if downSrc.process != nil {
		mode = ", streaming"
	}
	fmt.Fprintf(os.Stderr, "cellsim: A=%s (downlink %s, %.0f kbps%s) B=%s (uplink %s, %.0f kbps%s)\n",
		connA.LocalAddr(), downSrc.name, downSrc.meanBps/1000, mode,
		connB.LocalAddr(), upSrc.name, upSrc.meanBps/1000, mode)

	mkLink := func(src shaping, out *udp.Conn, seedOff int64) *link.Link {
		cfg := link.Config{
			Trace:            src.trace,
			Process:          src.process,
			ProcessSeed:      src.seed,
			PropagationDelay: *prop,
			LossRate:         *loss,
		}
		if *loss > 0 {
			cfg.Rand = rand.New(rand.NewSource(*seed + seedOff))
		}
		if *useCodel {
			cfg.Dequeuer = codel.New()
		}
		return link.New(clock, cfg, func(p *network.Packet) { out.Send(p) })
	}
	// Links are built on the clock's driver, which fires their
	// opportunities. udp.Conn.Serve stamps each datagram with its arrival
	// instant before handing it to its link.
	var downLink, upLink *link.Link
	clock.Do(func() {
		downLink = mkLink(downSrc, connB, 1)
		upLink = mkLink(upSrc, connA, 2)
	})
	go func() { exitOn(connA.Serve(downLink.Send)) }()
	go func() { exitOn(connB.Serve(upLink.Send)) }()

	if *stats > 0 {
		go reportLoop(clock, *stats, downLink, upLink)
	}
	<-ctx.Done() // run until interrupted
}

// shaping is one direction's opportunity source: a trace file, or (with
// -gen) the canonical model pulled on demand.
type shaping struct {
	name    string
	meanBps float64
	trace   *trace.Trace
	process trace.DeliveryProcess
	seed    int64
}

// shapingArgs is the flag subset that selects the opportunity sources.
type shapingArgs struct {
	Gen              string
	DownFile, UpFile string
	Seed             int64
}

// resolveShaping validates the source flags and builds both directions'
// shaping, returning a one-line error on any malformed combination so
// main can exit non-zero without a stack trace. -gen wins over trace
// files. Each -gen direction is seeded with DeriveSeed(seed, network,
// direction), so it emits the opportunities of the trace LinkModel.Generate
// draws from that seed.
func resolveShaping(a shapingArgs) (downSrc, upSrc shaping, err error) {
	if a.Gen != "" {
		pair, ok := findNetwork(a.Gen)
		if !ok {
			return shaping{}, shaping{}, fmt.Errorf("unknown network %q (see sproutbench -list-schemes for canonical links)", a.Gen)
		}
		downSrc = shaping{name: pair.Down.Name, meanBps: pair.Down.MeanRate * trace.MTU * 8,
			process: pair.Down.Process(), seed: engine.DeriveSeed(a.Seed, pair.Name, "down")}
		upSrc = shaping{name: pair.Up.Name, meanBps: pair.Up.MeanRate * trace.MTU * 8,
			process: pair.Up.Process(), seed: engine.DeriveSeed(a.Seed, pair.Name, "up")}
		return downSrc, upSrc, nil
	}
	if a.DownFile == "" || a.UpFile == "" {
		return shaping{}, shaping{}, fmt.Errorf("need -down and -up trace files, or -gen")
	}
	down, err := readTrace(a.DownFile)
	if err != nil {
		return shaping{}, shaping{}, err
	}
	up, err := readTrace(a.UpFile)
	if err != nil {
		return shaping{}, shaping{}, err
	}
	return shaping{name: down.Name, meanBps: down.MeanRateBps(), trace: down},
		shaping{name: up.Name, meanBps: up.MeanRateBps(), trace: up}, nil
}

func findNetwork(name string) (trace.NetworkPair, bool) {
	for _, p := range trace.CanonicalNetworks() {
		if p.Name == name {
			return p, true
		}
	}
	return trace.NetworkPair{}, false
}

func readTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Parse(f, path)
}

func reportLoop(clock *realtime.Clock, every time.Duration, down, up *link.Link) {
	var lastDown, lastUp int64
	for range time.Tick(every) {
		clock.Do(func() {
			d, u := down.DeliveredBytes(), up.DeliveredBytes()
			fmt.Fprintf(os.Stderr,
				"cellsim: down %7.0f kbps (queue %6d B)  up %7.0f kbps (queue %6d B)\n",
				float64(d-lastDown)*8/every.Seconds()/1000, down.QueueBytes(),
				float64(u-lastUp)*8/every.Seconds()/1000, up.QueueBytes())
			lastDown, lastUp = d, u
		})
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cellsim:", err)
		os.Exit(1)
	}
}
