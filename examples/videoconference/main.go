// Videoconference: the paper's motivating scenario (Figure 1). A Skype-like
// reactive rate controller and Sprout each run over the same Verizon LTE
// downlink; the table shows how Skype overshoots capacity drops and builds
// multi-second standing queues while Sprout tracks the link.
//
//	go run ./examples/videoconference
package main

import (
	"fmt"
	"log"
	"time"

	"sprout"
)

func main() {
	const link = "Verizon LTE"

	run := func(scheme string) sprout.Metrics {
		res, err := sprout.RunScenario(sprout.ScenarioSpec{
			Scheme:   scheme,
			Link:     link,
			Duration: sprout.ScenarioDuration(60 * time.Second),
			Skip:     sprout.ScenarioDuration(10 * time.Second),
			Seed:     7,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res.Metrics
	}

	fmt.Printf("One minute on the %s downlink:\n\n", link)
	fmt.Printf("%-10s %14s %22s %12s\n", "scheme", "tput (kbps)", "self-delay p95 (ms)", "utilization")
	for _, scheme := range []string{"sprout", "sprout-ewma", "skype", "facetime", "hangout"} {
		r := run(scheme)
		fmt.Printf("%-10s %14.0f %22.0f %11.0f%%\n",
			scheme, r.ThroughputBps/1000,
			float64(r.SelfInflicted95)/float64(time.Millisecond),
			r.Utilization*100)
	}
	fmt.Println("\nSprout keeps packets' queueing delay under ~100 ms with 95% probability,")
	fmt.Println("while the reactive apps lag the link's swings by seconds (paper §5.2).")
}
