// Command bench is the repository's end-to-end benchmark: five workloads,
// each run in a fresh child process of this binary, measured closed-loop
// on min(nproc, 4) engine workers, checked for correctness, and broken
// down by layer probes and one traced run per workload. README.md in this
// directory says what every number means.
//
// Usage (from the repository root; the package is sprout/bench):
//
//	go run ./bench -seed 1          # every workload: 3 runs, probes, traces
//	go run ./bench -probes          # the layer probes alone
//	go run ./bench -selfcheck       # two full sets must agree within bounds
//	go run ./bench -workload cell_sprout -seed 3 -seconds 10 -trace 0
//
// The last form is what BENCHMARK.json's command runs through run.sh: one
// workload, end-to-end metrics (-trace 0) or per-layer metrics (-trace 1)
// as one JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"sprout/bench/probes"
)

const (
	// runs is how many runs of each workload a full set holds.
	runs = 3
	// minPasses is how many passes a run makes even when -seconds is
	// reached sooner, so its medians are medians.
	minPasses = 3
	// setupSamples is how many cold set-ups one driver run takes setup_s
	// as the median of: the measured child's own plus setup-only children.
	setupSamples = 15
)

func main() {
	var (
		workloadFlag = flag.String("workload", "", "run this one workload and print the result line (driver mode)")
		seed         = flag.Int64("seed", 1, "workload seed: offsets every spec seed")
		seconds      = flag.Float64("seconds", 10, "measured seconds per run")
		trace        = flag.Int("trace", 0, "with -workload: 0 prints end-to-end metrics, 1 per-layer metrics from a traced run and the probes")
		probesOnly   = flag.Bool("probes", false, "run the layer probes alone")
		selfcheck    = flag.Bool("selfcheck", false, "run two full sets and require their medians to agree within each metric's bound")
		outDir       = flag.String("out", "bench/out", "directory for checkpoints, trace files and reports")
		cpuProfile   = flag.String("cpuprofile", "", "with -workload: write the measured passes' CPU profile here")

		child     = flag.Bool("child", false, "internal: run one workload in this process and print its report")
		setupOnly = flag.Bool("setup-only", false, "internal: stop after warm-up")
		spans     = flag.String("spans", "", "internal: traced run, spans written here")
		spawnedAt = flag.Int64("spawned-at", 0, "internal: parent's spawn time, Unix nanoseconds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	runtime.GOMAXPROCS(workers())

	b := bench{seed: *seed, seconds: *seconds, outDir: *outDir, cpuProfile: *cpuProfile}
	switch {
	case *child:
		o := b.opts(*workloadFlag)
		o.setupOnly, o.spans = *setupOnly, *spans
		if *spawnedAt != 0 {
			o.start = time.Unix(0, *spawnedAt)
		}
		os.Exit(childMain(o, *cpuProfile))
	case *probesOnly:
		results, err := probes.All(probes.Full(*outDir, workers()))
		if err != nil {
			fatal(err)
		}
		printManifest(newManifest(*seed, *outDir))
		printProbes(results)
	case *workloadFlag != "":
		if _, ok := workloadByName(*workloadFlag); !ok {
			fatal(fmt.Errorf("unknown workload %q (have %s)", *workloadFlag, strings.Join(workloadNames(), ", ")))
		}
		os.Exit(b.driverRun(*workloadFlag, *trace != 0))
	case *selfcheck:
		os.Exit(b.selfcheck())
	default:
		os.Exit(b.fullRun())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// bench carries the settings shared by every mode.
type bench struct {
	seed       int64
	seconds    float64
	outDir     string
	cpuProfile string
	costs      []runCost // every child run so far, for the manifest
}

func (b *bench) opts(workload string) runOpts {
	return runOpts{workload: workload, seed: b.seed, seconds: b.seconds, minPasses: minPasses, outDir: b.outDir}
}

// childMain is the body of a spawned child: run, print the report.
func childMain(o runOpts, cpuProfile string) int {
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	rep, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 2
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 2
	}
	return 0
}

// spawn re-executes this binary as a fresh child for one run and parses
// the report off the last line of its standard output.
func (b *bench) spawn(o runOpts) (runReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return runReport{}, err
	}
	args := []string{
		"-child", "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-out", o.outDir,
	}
	if o.setupOnly {
		args = append(args, "-setup-only")
	}
	if o.spans != "" {
		args = append(args, "-spans", o.spans)
	}
	if b.cpuProfile != "" && !o.setupOnly {
		args = append(args, "-cpuprofile", b.cpuProfile)
	}
	args = append(args, "-spawned-at", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	out, err := cmd.Output()
	if err != nil {
		return runReport{}, fmt.Errorf("%s child: %w", o.workload, err)
	}
	b.costs = append(b.costs, runCost{
		Workload: o.workload,
		Traced:   o.spans != "",
		WallS:    time.Since(t0).Seconds(),
		CPUS:     (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds(),
	})
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep runReport
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return runReport{}, fmt.Errorf("%s child: unreadable report: %w", o.workload, err)
	}
	if w, _ := workloadByName(o.workload); w.sharded && !o.setupOnly {
		failOnMemoryFS(&rep, newManifest(o.seed, o.outDir))
	}
	return rep, nil
}

// endToEndValues reduces one run to the end-to-end metrics: medians over
// its passes for the host-time figures, the run's own values otherwise.
func endToEndValues(r runReport, setups []float64) map[string]float64 {
	walls := make([]float64, len(r.Passes))
	cpus := make([]float64, len(r.Passes))
	for i, p := range r.Passes {
		walls[i], cpus[i] = p.WallS, p.CPUS
	}
	return map[string]float64{
		"sim_rate":    r.SimS / median(walls),
		"cpu_s":       median(cpus),
		"peak_rss_mb": r.PeakRSSMB,
		"setup_s":     median(setups),
	}
}

// resultLine is the driver contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tracePath is where a workload's traced run writes its spans.
func (b *bench) tracePath(workload string) string {
	return filepath.Join(b.outDir, "trace-"+workload+".json")
}

// driverRun measures one workload and prints the result line: the
// end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced run plus the layer probes.
func (b *bench) driverRun(workload string, traced bool) int {
	o := b.opts(workload)
	line := resultLine{Metrics: map[string]metricValue{}}
	var rep runReport
	var err error
	if traced {
		o.spans = b.tracePath(workload)
		if rep, err = b.spawn(o); err != nil {
			fatal(err)
		}
		// The probes run after the child has exited, so neither
		// disturbs the other.
		results, err := probes.All(probes.Quick(b.outDir, workers()))
		if err != nil {
			fatal(err)
		}
		b.printHeader()
		printProbes(results)
		for _, p := range results {
			line.Metrics[p.Name] = metricValue{p.Value, p.Unit}
		}
		printTraced(rep, o.spans)
		for _, m := range tracedLayer {
			line.Metrics[m.name] = metricValue{m.value(rep), m.unit}
		}
	} else {
		var setups []float64
		setup := o
		setup.setupOnly = true
		for i := 1; i < setupSamples; i++ {
			s, err := b.spawn(setup)
			if err != nil {
				fatal(err)
			}
			setups = append(setups, s.SetupS)
		}
		if rep, err = b.spawn(o); err != nil {
			fatal(err)
		}
		setups = append(setups, rep.SetupS)
		values := endToEndValues(rep, setups)
		b.printHeader()
		printRun(rep)
		for _, m := range endToEnd {
			fmt.Printf("  %-16s %12.4f %s\n", m.name, values[m.name], m.unit)
			line.Metrics[m.name] = metricValue{values[m.name], m.unit}
		}
	}
	line.Attempted = rep.Jobs * len(rep.Passes)
	line.Failed = rep.Failed
	line.Correct = rep.Failed == 0 && len(rep.Passes) > 0
	printFailures(rep)
	raw, err := json.Marshal(line)
	if err != nil {
		fatal(fmt.Errorf("result line: %w", err)) // a NaN metric
	}
	fmt.Println(string(raw))
	if !line.Correct {
		return 1
	}
	return 0
}
