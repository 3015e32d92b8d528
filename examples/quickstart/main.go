// Quickstart: run a Sprout session over a synthetic Verizon LTE downlink
// in the deterministic simulator and print the paper's metrics.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"sprout"
)

func main() {
	// 1. Synthesize a cellular link trace with the paper's stochastic
	//    model (or load a real mahimahi trace with trace.Parse).
	down, _ := sprout.CanonicalLink("Verizon-LTE-down")
	up, _ := sprout.CanonicalLink("Verizon-LTE-up")
	const dur = 60 * time.Second
	dataTrace := down.Generate(dur+5*time.Second, rand.New(rand.NewSource(1)))
	feedbackTrace := up.Generate(dur+5*time.Second, rand.New(rand.NewSource(2)))

	// 2. Build the emulated path: two one-way links with 20 ms
	//    propagation each, exactly like the paper's Cellsim.
	loop := sprout.NewSimulation()
	var rcv *sprout.Receiver
	var snd *sprout.Sender
	fwd := sprout.NewLink(loop, sprout.LinkConfig{
		Trace:            dataTrace,
		PropagationDelay: 20 * time.Millisecond,
	}, func(p *sprout.Packet) { rcv.Receive(p) })
	var deliveries []sprout.Delivery
	fwd.OnDelivery(func(d sprout.Delivery) { deliveries = append(deliveries, d) })
	rev := sprout.NewLink(loop, sprout.LinkConfig{
		Trace:            feedbackTrace,
		PropagationDelay: 20 * time.Millisecond,
	}, func(p *sprout.Packet) { snd.Receive(p) })

	// 3. Attach the Sprout endpoints: the receiver runs the Bayesian
	//    inference every 20 ms and feeds forecasts back; the sender
	//    turns them into a window.
	rcv = sprout.NewReceiver(sprout.ReceiverConfig{Clock: loop, Conn: rev})
	snd = sprout.NewSender(sprout.SenderConfig{Clock: loop, Conn: fwd})

	// 4. Run one virtual minute and evaluate.
	loop.Run(dur)
	m := sprout.Evaluate(deliveries, dataTrace, 20*time.Millisecond, 10*time.Second, dur)

	fmt.Printf("Sprout over %s (%.1f Mbps average capacity):\n",
		dataTrace.Name, dataTrace.MeanRateBps()/1e6)
	fmt.Printf("  throughput:            %8.0f kbps (%.0f%% of capacity)\n",
		m.ThroughputBps/1000, m.Utilization*100)
	fmt.Printf("  95%% end-to-end delay:  %8v\n", m.Delay95.Round(time.Millisecond))
	fmt.Printf("  omniscient bound:      %8v\n", m.Omniscient95.Round(time.Millisecond))
	fmt.Printf("  self-inflicted delay:  %8v\n", m.SelfInflicted95.Round(time.Millisecond))
	if m.SelfInflicted95 > 300*time.Millisecond {
		log.Fatal("unexpectedly high delay; this should not happen with default parameters")
	}
}
