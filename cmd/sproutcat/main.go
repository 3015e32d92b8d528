// Command sproutcat runs a live Sprout session over real UDP: a bulk
// sender on one side and a receiver on the other, printing per-second
// throughput and the receiver's rate inference. Point two instances at each
// other — optionally through cmd/cellsim to shape the path with a cellular
// trace — to watch the forecast-driven window react to link variation.
//
// Usage:
//
//	sproutcat -listen :9000                 # receiver
//	sproutcat -connect host:9000            # bulk sender
//	sproutcat -listen :9000 -ewma           # Sprout-EWMA receiver model
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sprout/internal/core"
	"sprout/internal/realtime"
	"sprout/internal/transport"
	"sprout/internal/udp"
)

func main() {
	listen := flag.String("listen", "", "run the receiver, bound to this address")
	connect := flag.String("connect", "", "run the bulk sender toward this address")
	ewma := flag.Bool("ewma", false, "use the Sprout-EWMA forecaster (receiver side)")
	confidence := flag.Float64("confidence", 0, "forecast confidence override, e.g. 0.75 (receiver side)")
	stats := flag.Duration("stats", time.Second, "statistics interval")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	clock := realtime.New(ctx)
	var report func()
	switch {
	case *listen != "" && *connect == "":
		report = runReceiver(clock, *listen, *ewma, *confidence, *stats)
	case *connect != "" && *listen == "":
		report = runSender(clock, *connect, *stats)
	default:
		fmt.Fprintln(os.Stderr, "sproutcat: need exactly one of -listen or -connect")
		os.Exit(2)
	}
	tick := time.Tick(*stats)
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick:
			clock.Do(report)
		}
	}
}

func runReceiver(clock *realtime.Clock, addr string, ewma bool, confidence float64, statsEvery time.Duration) func() {
	conn, err := udp.Listen(clock, addr)
	exitOn(err)
	fmt.Fprintf(os.Stderr, "sproutcat: receiving on %s\n", conn.LocalAddr())

	var fc core.Forecaster
	if ewma {
		fc = core.NewEWMAForecaster()
	} else {
		p := core.Params{}
		if confidence != 0 {
			p.Confidence = confidence
		}
		fc = core.NewDeliveryForecaster(core.NewModel(p))
	}
	var rcv *transport.Receiver
	clock.Do(func() {
		rcv = transport.NewReceiver(transport.ReceiverConfig{
			Clock: clock, Conn: conn, Forecaster: fc,
		})
	})
	go func() { exitOn(conn.Serve(rcv.Receive)) }()

	var lastBytes int64
	return func() {
		b := rcv.BytesReceived()
		rate := float64(b-lastBytes) * 8 / statsEvery.Seconds() / 1000
		lastBytes = b
		var est string
		if df, ok := fc.(*core.DeliveryForecaster); ok {
			est = fmt.Sprintf("posterior mean %4.0f pkt/s, P(outage) %.3f",
				df.Model().Mean(), df.Model().OutageProbability())
		} else if ew, ok := fc.(*core.EWMAForecaster); ok {
			est = fmt.Sprintf("ewma rate %5.1f pkt/tick", ew.Rate())
		}
		obs, cens, skip := rcv.TickStats()
		fmt.Printf("recv %8.0f kbps  %s  ticks(e/c/s)=%d/%d/%d\n", rate, est, obs, cens, skip)
	}
}

func runSender(clock *realtime.Clock, addr string, statsEvery time.Duration) func() {
	conn, err := udp.Dial(clock, addr)
	exitOn(err)
	fmt.Fprintf(os.Stderr, "sproutcat: sending to %s from %s\n", addr, conn.LocalAddr())

	var snd *transport.Sender
	clock.Do(func() {
		snd = transport.NewSender(transport.SenderConfig{Clock: clock, Conn: conn})
	})
	go func() { exitOn(conn.Serve(snd.Receive)) }()

	var lastBytes uint64
	return func() {
		b := snd.BytesSent()
		rate := float64(b-lastBytes) * 8 / statsEvery.Seconds() / 1000
		lastBytes = b
		fmt.Printf("send %8.0f kbps  window %7d B  queueEst %7d B  fb %d\n",
			rate, snd.Window(), snd.QueueEstimate(), snd.FeedbacksReceived())
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sproutcat:", err)
		os.Exit(1)
	}
}
