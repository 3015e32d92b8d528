// Command tracegen generates synthetic cellular link traces in the
// mahimahi format (one delivery-opportunity timestamp in milliseconds per
// line), using the paper's own stochastic link model parameterized for the
// eight canonical links of the evaluation.
//
// Usage:
//
//	tracegen -list
//	tracegen -link Verizon-LTE-down -duration 5m -seed 1 -o vzw-lte-down.trace
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"sprout/internal/trace"
)

func main() {
	list := flag.Bool("list", false, "list canonical link names and exit")
	info := flag.String("info", "", "analyze an existing trace file and exit")
	linkName := flag.String("link", "Verizon-LTE-down", "canonical link model name")
	duration := flag.Duration("duration", 5*time.Minute, "trace duration")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("o", "-", "output file (- for stdout)")
	flag.Parse()

	if *info != "" {
		analyze(*info)
		return
	}
	if *list {
		for _, m := range trace.CanonicalLinks() {
			fmt.Printf("%-20s mean %6.0f pkt/s (%5.1f Mbps)  sigma %5.0f  outage every ~%3.0fs\n",
				m.Name, m.MeanRate, m.MeanRate*trace.MTU*8/1e6, m.Sigma, 1/m.OutageRate)
		}
		return
	}
	model, ok := trace.CanonicalLink(*linkName)
	if !ok {
		fmt.Fprintf(os.Stderr, "tracegen: unknown link %q (use -list)\n", *linkName)
		os.Exit(2)
	}
	tr := model.Generate(*duration, rand.New(rand.NewSource(*seed)))
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := tr.Write(w); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %d opportunities over %v (mean %.0f kbps)\n",
		tr.Count(), tr.Duration().Round(time.Second), tr.MeanRateBps()/1000)
}

// analyze prints Figure 2-style statistics for a trace file.
func analyze(path string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	defer f.Close()
	tr, err := trace.Parse(f, path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	s := tr.ComputeStats()
	fmt.Printf("trace:                   %s\n", path)
	fmt.Printf("opportunities:           %d over %v\n", s.Opportunities, s.Duration.Round(time.Second))
	fmt.Printf("mean rate:               %.0f kbps\n", s.MeanRateBps/1000)
	fmt.Printf("interarrival p50 / p99:  %v / %v\n",
		s.InterarrivalP50.Round(time.Microsecond), s.InterarrivalP99.Round(time.Microsecond))
	fmt.Printf("within 20 ms:            %.4f\n", s.FracWithin20ms)
	fmt.Printf("tail exponent (>20ms):   %.2f\n", s.TailExponent)
	fmt.Printf("longest gap:             %v\n", s.MaxGap.Round(time.Millisecond))
	fmt.Printf("per-second p10 / p90:    %.0f / %.0f pkt\n", s.PerSecondP10, s.PerSecondP90)
}
