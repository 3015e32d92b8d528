// Tunnel: SproutTunnel isolating a videoconference from a bulk download
// (§5.7 of the paper). A TCP Cubic bulk transfer and a Skype-like call
// share one cellular downlink — first directly (commingled in the same
// bufferbloated queue), then through SproutTunnel with per-flow queues and
// forecast-bounded head drops.
//
//	go run ./examples/tunnel
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"sprout"
)

func main() {
	// The same two-group spec twice: once on the link, once with Tunnel
	// set. Flow ids 10 and 20 are the ones sproutbench's §5.7 table pins.
	spec := sprout.ScenarioSpec{
		Link:     "Verizon LTE",
		Duration: sprout.ScenarioDuration(90 * time.Second),
		Skip:     sprout.ScenarioDuration(20 * time.Second),
		Groups: []sprout.ScenarioFlowGroup{
			{Scheme: "cubic", Count: 1, BaseFlow: 10},
			{Scheme: "skype", Count: 1, BaseFlow: 20},
		},
	}
	tunneled := spec
	tunneled.Tunnel = true
	results, err := sprout.RunScenarios(context.Background(), []sprout.ScenarioSpec{spec, tunneled}, 0)
	if err != nil {
		log.Fatal(err)
	}
	// Flows come back in roster (declaration) order: Cubic, then Skype.
	kbps := func(run, flow int) float64 { return results[run].Flows[flow].ThroughputBps / 1000 }
	delay := func(run int) float64 { return results[run].Flows[1].Delay95.Seconds() }

	fmt.Println("TCP Cubic download + Skype call over the Verizon LTE downlink:")
	fmt.Println()
	fmt.Printf("%-22s %12s %14s\n", "", "direct", "via sprout")
	fmt.Printf("%-22s %12.0f %14.0f\n", "cubic tput (kbps)", kbps(0, 0), kbps(1, 0))
	fmt.Printf("%-22s %12.0f %14.0f\n", "skype tput (kbps)", kbps(0, 1), kbps(1, 1))
	fmt.Printf("%-22s %12.2f %14.2f\n", "skype 95% delay (s)", delay(0), delay(1))
	fmt.Println()
	fmt.Println("Direct, Cubic fills the shared per-user queue and the call is destroyed;")
	fmt.Println("through the tunnel, the forecast bounds total buffering and round-robin")
	fmt.Println("service isolates the flows — interactivity restored at some cost to bulk")
	fmt.Printf("throughput (%d head drops signalled Cubic to back off).\n", results[1].HeadDrops)
}
