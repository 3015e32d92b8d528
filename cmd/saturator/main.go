// Command saturator measures a network path's delivery schedule over real
// UDP, reproducing the paper's trace-capture tool (§4.1). Run the recorder
// on one side of the link under test and the sender on the other; the
// recorder writes a mahimahi-format trace of ground-truth packet delivery
// times, ready for cmd/cellsim.
//
// The sender adjusts its packets-in-flight window to keep the observed RTT
// between 750 ms and 3000 ms, proving the bottleneck queue never starves
// while avoiding carrier throttling. As in the paper, echoes ideally
// travel a separate low-delay path; over a single path the recorded trace
// is still the delivery schedule of the loaded direction.
//
// Usage:
//
//	saturator -record :9000 -o link.trace -for 5m   # on the far side
//	saturator -send host:9000                       # behind the link under test
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sprout/internal/realtime"
	"sprout/internal/saturator"
	"sprout/internal/udp"
)

func main() {
	record := flag.String("record", "", "record arrivals: UDP listen address")
	send := flag.String("send", "", "saturate toward this address")
	out := flag.String("o", "-", "trace output file (record mode)")
	dur := flag.Duration("for", 5*time.Minute, "recording duration")
	stats := flag.Duration("stats", 2*time.Second, "statistics interval")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	clock := realtime.New(ctx)
	var report, finish func()
	var deadline <-chan time.Time
	switch {
	case *record != "" && *send == "":
		report, finish = runRecorder(clock, *record, *out, *dur, *stats)
		deadline = time.After(*dur)
	case *send != "" && *record == "":
		report = runSender(clock, *send)
	default:
		fmt.Fprintln(os.Stderr, "saturator: need exactly one of -record or -send")
		os.Exit(2)
	}
	tick := time.Tick(*stats)
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick:
			clock.Do(report)
		case <-deadline:
			clock.Do(finish)
			return
		}
	}
}

// runRecorder starts recording and returns its statistics report and the
// function that writes the trace.
func runRecorder(clock *realtime.Clock, addr, out string, dur, statsEvery time.Duration) (report, finish func()) {
	conn, err := udp.Listen(clock, addr)
	exitOn(err)
	fmt.Fprintf(os.Stderr, "saturator: recording on %s for %v\n", conn.LocalAddr(), dur)
	var rcv *saturator.Receiver
	clock.Do(func() { rcv = saturator.NewReceiver(1, clock, conn) })
	go conn.Serve(rcv.Receive)

	var last int64
	report = func() {
		n := rcv.Received()
		fmt.Fprintf(os.Stderr, "saturator: %6.0f kbps (%d probes)\n",
			float64(n-last)*1500*8/statsEvery.Seconds()/1000, n)
		last = n
	}
	finish = func() {
		tr := rcv.Trace("measured")
		w := os.Stdout
		if out != "-" {
			f, err := os.Create(out)
			exitOn(err)
			defer f.Close()
			w = f
		}
		exitOn(tr.Write(w))
		fmt.Fprintf(os.Stderr, "saturator: wrote %d opportunities over %v\n",
			tr.Count(), tr.Duration().Round(time.Second))
	}
	return report, finish
}

func runSender(clock *realtime.Clock, addr string) (report func()) {
	conn, err := udp.Dial(clock, addr)
	exitOn(err)
	fmt.Fprintf(os.Stderr, "saturator: saturating %s\n", addr)
	var snd *saturator.Sender
	clock.Do(func() {
		snd = saturator.NewSender(saturator.SenderConfig{Clock: clock, Conn: conn, Flow: 1})
	})
	go conn.Serve(snd.Receive)
	return func() {
		sent, echoes := snd.Stats()
		fmt.Fprintf(os.Stderr, "saturator: window %5d  rtt %8v  sent %d  echoed %d\n",
			snd.Window(), snd.RTT().Round(time.Millisecond), sent, echoes)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "saturator:", err)
		os.Exit(1)
	}
}
