// Measure: the full paper pipeline in one program (§4). A Saturator
// characterizes an unknown cellular link by keeping it backlogged and
// recording ground-truth delivery instants; the recorded trace then drives
// Cellsim, and Sprout runs over the *measured* link — exactly how the
// paper's testbed turned drives around Boston into reproducible
// experiments.
//
//	go run ./examples/measure
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"sprout"
)

func main() {
	// The "unknown" link: a T-Mobile-3G-like model the measurement
	// pipeline is not told about.
	secret, _ := sprout.CanonicalLink("TMobile-3G-down")
	ground := secret.Generate(100*time.Second, rand.New(rand.NewSource(11)))

	// Phase 1 — Saturator: backlog the link, record deliveries.
	loop := sprout.NewSimulation()
	var rcv *sprout.SaturatorReceiver
	var snd *sprout.SaturatorSender
	linkUnderTest := sprout.NewLink(loop, sprout.LinkConfig{
		Trace:            ground,
		PropagationDelay: 20 * time.Millisecond,
	}, func(p *sprout.Packet) { rcv.Receive(p) })
	// Feedback path: fast and unloaded (the paper's second "feedback
	// phone" on a separate carrier).
	fbModel := sprout.LinkModel{Name: "feedback", MeanRate: 2000, Sigma: 1, Reversion: 1, MaxRate: 3000}
	feedback := sprout.NewLink(loop, sprout.LinkConfig{
		Trace:            fbModel.Generate(100*time.Second, rand.New(rand.NewSource(12))),
		PropagationDelay: 10 * time.Millisecond,
	}, func(p *sprout.Packet) { snd.Receive(p) })
	rcv = sprout.NewSaturatorReceiver(1, loop, feedback)
	snd = sprout.NewSaturatorSender(sprout.SaturatorConfig{Clock: loop, Conn: linkUnderTest, Flow: 1})
	loop.Run(90 * time.Second)

	measured := rcv.Trace("measured-TMobile-3G-down")
	fmt.Printf("Saturator: window settled at %d packets, RTT %v\n",
		snd.Window(), snd.RTT().Round(time.Millisecond))
	fmt.Printf("Ground truth: %5.0f kbps mean   Measured: %5.0f kbps mean (%d opportunities)\n",
		ground.MeanRateBps()/1000, measured.MeanRateBps()/1000, measured.Count())

	// Phase 2 — replay the measured trace in Cellsim and run Sprout on it.
	dur := 60 * time.Second
	loop2 := sprout.NewSimulation()
	var sproutRcv *sprout.Receiver
	var sproutSnd *sprout.Sender
	fwd := sprout.NewLink(loop2, sprout.LinkConfig{
		Trace:            measured,
		PropagationDelay: 20 * time.Millisecond,
	}, func(p *sprout.Packet) { sproutRcv.Receive(p) })
	var deliveries []sprout.Delivery
	fwd.OnDelivery(func(d sprout.Delivery) { deliveries = append(deliveries, d) })
	upModel, _ := sprout.CanonicalLink("TMobile-3G-up")
	rev := sprout.NewLink(loop2, sprout.LinkConfig{
		Trace:            upModel.Generate(dur+5*time.Second, rand.New(rand.NewSource(13))),
		PropagationDelay: 20 * time.Millisecond,
	}, func(p *sprout.Packet) { sproutSnd.Receive(p) })
	sproutRcv = sprout.NewReceiver(sprout.ReceiverConfig{Clock: loop2, Conn: rev})
	sproutSnd = sprout.NewSender(sprout.SenderConfig{Clock: loop2, Conn: fwd})
	loop2.Run(dur)

	m := sprout.Evaluate(deliveries, measured, 20*time.Millisecond, 10*time.Second, dur)
	fmt.Printf("\nSprout over the measured link:\n")
	fmt.Printf("  throughput:           %6.0f kbps (%.0f%% of measured capacity)\n",
		m.ThroughputBps/1000, m.Utilization*100)
	fmt.Printf("  self-inflicted delay: %6v\n", m.SelfInflicted95.Round(time.Millisecond))
	if m.ThroughputBps == 0 {
		log.Fatal("pipeline produced no throughput")
	}
}
