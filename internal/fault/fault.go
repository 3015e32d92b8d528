// Package fault injects deterministic failures into shard worker
// processes, so every failure mode of the sharded sweep infrastructure —
// crashes, stalls, torn log tails, corrupt records, abrupt exits, slow
// starts — is reproducible from a seed instead of waiting for a flaky
// machine to produce it.
//
// The model mirrors how real shard children die. A child's visible
// footprint is its append-only checkpoint log (one JSONL record per
// completed job), so every fault is expressed relative to that stream:
// "crash after k records", "tear the (k+1)-th record after j bytes",
// "append a corrupt record and die". The parent supervisor injects a
// fault into a specific child attempt through the SPROUT_FAULT
// environment variable; the child parses it at startup and routes its log
// writes through an Injector that executes the fault at the agreed
// record boundary. Nothing else in the child changes, which is the point:
// the recovery machinery under test (resume, truncation, retry, rescue)
// sees exactly what a genuine failure would have left behind.
//
// Faults and plans serialize to short strings ("torn:after=2,bytes=9"),
// so they cross the process boundary through one env var and read well
// in supervisor logs. One Plan holds both halves of a chaos run — the
// per-attempt faults of each shard child and the pull faults of each
// host — and its generation (NewPlan) is a pure function of a seed,
// which is what lets CI re-run a failing chaos seed locally and get the
// identical failure schedule.
package fault

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Kind names one failure mode a shard child can execute.
type Kind string

const (
	// Crash exits abruptly (no further writes) after After records.
	Crash Kind = "crash"
	// Stall sleeps For between records after After records — the child
	// stays alive but its log stops growing, which is what the
	// supervisor's liveness tracking must detect.
	Stall Kind = "stall"
	// Torn writes only the first Bytes bytes of the record after After,
	// then exits — the torn unterminated tail a mid-write kill leaves.
	Torn Kind = "torn"
	// Corrupt appends a terminated garbage line after After records,
	// then exits — the permanent log damage resume must refuse to
	// append to (engine.ErrCorruptLog).
	Corrupt Kind = "corrupt"
	// Exit completes the record after After records, then exits with
	// Code — a clean-ish failure that loses no data.
	Exit Kind = "exit"
	// Slow sleeps For before the run starts — a laggard the supervisor
	// must tolerate, not kill.
	Slow Kind = "slow"
)

// Network-shaped kinds: faults on the supervisor's side of a remote
// dispatch — the offset-based pull stream that mirrors a remote shard's
// checkpoint log. The supervisor executes them on the pulls they gate,
// not the shard child, so After counts pulls, not records. See
// dispatch.Supervise.
const (
	// ConnDrop fails pull number After outright — a dropped connection
	// the puller must retry, and the host-health scoring must not treat a
	// single drop as a dead host.
	ConnDrop Kind = "conndrop"
	// SlowStream delays pull number After by For before serving it — a
	// congested link, not a dead one.
	SlowStream Kind = "slowstream"
	// PartialPull truncates pull number After to Bytes bytes, typically
	// cutting mid-record — the torn chunk a dropped stream leaves. The
	// puller must hold the fragment back and re-pull it, never mirror it.
	PartialPull Kind = "partialpull"
	// DupRecords rewinds pull number After by Bytes bytes, re-streaming
	// records the puller already has — what a retried pull that restarts
	// from a stale offset produces. The mirror must deduplicate by index.
	DupRecords Kind = "duprecords"
	// HostDown kills the host at pull number After: every process on it
	// dies and every later transport operation against it fails. The
	// supervisor must fail the host's shards over to surviving hosts.
	HostDown Kind = "hostdown"
)

// Exit codes the injector uses for its abrupt terminations. They carry no
// contract — the supervisor classifies them like any other unexpected
// exit (transient) — but distinct values make chaos logs readable.
const (
	ExitCrash   = 101
	ExitTorn    = 102
	ExitCorrupt = 103
)

// EnvVar carries one serialized Fault from the supervisor into a child
// attempt.
const EnvVar = "SPROUT_FAULT"

// Fault is one injectable failure. The zero value means "no fault".
type Fault struct {
	Kind Kind
	// After is how many records the child writes before the fault
	// triggers (Crash/Stall/Torn/Corrupt/Exit). A fault whose boundary
	// is never reached simply does not fire.
	After int
	// Bytes is how much of the triggering record a Torn fault emits
	// (clamped to [1, len(line)-1] so the tail is genuinely torn).
	Bytes int
	// For is the Stall or Slow sleep duration.
	For time.Duration
	// Code is the Exit status, 1…255 (defaults to 1 if unset).
	Code int
}

// IsZero reports whether f is the no-fault zero value.
func (f Fault) IsZero() bool { return f.Kind == "" }

// String renders the fault in the serialized "kind:k=v,k=v" form Parse
// accepts.
func (f Fault) String() string {
	switch f.Kind {
	case Crash:
		return fmt.Sprintf("crash:after=%d", f.After)
	case Stall:
		return fmt.Sprintf("stall:after=%d,for=%s", f.After, f.For)
	case Torn:
		return fmt.Sprintf("torn:after=%d,bytes=%d", f.After, f.Bytes)
	case Corrupt:
		return fmt.Sprintf("corrupt:after=%d", f.After)
	case Exit:
		return fmt.Sprintf("exit:after=%d,code=%d", f.After, f.Code)
	case Slow:
		return fmt.Sprintf("slow:for=%s", f.For)
	case ConnDrop:
		return fmt.Sprintf("conndrop:after=%d", f.After)
	case SlowStream:
		return fmt.Sprintf("slowstream:after=%d,for=%s", f.After, f.For)
	case PartialPull:
		return fmt.Sprintf("partialpull:after=%d,bytes=%d", f.After, f.Bytes)
	case DupRecords:
		return fmt.Sprintf("duprecords:after=%d,bytes=%d", f.After, f.Bytes)
	case HostDown:
		return fmt.Sprintf("hostdown:after=%d", f.After)
	}
	return ""
}

// params lists the parameters each kind reads: exactly the ones String
// writes.
var params = map[Kind][]string{
	Crash:       {"after"},
	Stall:       {"after", "for"},
	Torn:        {"after", "bytes"},
	Corrupt:     {"after"},
	Exit:        {"after", "code"},
	Slow:        {"for"},
	ConnDrop:    {"after"},
	SlowStream:  {"after", "for"},
	PartialPull: {"after", "bytes"},
	DupRecords:  {"after", "bytes"},
	HostDown:    {"after"},
}

// Parse decodes the String form. An empty string is the zero (no-op)
// fault. A parameter the kind does not read is an error, as is an exit
// code a process cannot exit with (outside 1…255), so every fault Parse
// accepts survives String → Parse unchanged.
func Parse(s string) (Fault, error) {
	if s == "" {
		return Fault{}, nil
	}
	kindStr, rest, _ := strings.Cut(s, ":")
	f := Fault{Kind: Kind(kindStr), Code: 1}
	keys, ok := params[f.Kind]
	if !ok {
		return Fault{}, fmt.Errorf("fault: unknown kind in %q", s)
	}
	if rest != "" {
		for _, kv := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return Fault{}, fmt.Errorf("fault: malformed parameter %q in %q", kv, s)
			}
			if !slices.Contains(keys, key) {
				return Fault{}, fmt.Errorf("fault: %s takes no parameter %q in %q", f.Kind, key, s)
			}
			var err error
			switch key {
			case "after":
				f.After, err = strconv.Atoi(val)
			case "bytes":
				f.Bytes, err = strconv.Atoi(val)
			case "code":
				f.Code, err = strconv.Atoi(val)
			case "for":
				f.For, err = time.ParseDuration(val)
			}
			if err != nil {
				return Fault{}, fmt.Errorf("fault: bad %s in %q: %v", key, s, err)
			}
		}
	}
	if f.After < 0 || f.Bytes < 0 || f.For < 0 {
		return Fault{}, fmt.Errorf("fault: negative parameter in %q", s)
	}
	switch f.Kind {
	case Stall, Slow, SlowStream:
		if f.For == 0 {
			return Fault{}, fmt.Errorf("fault: %s needs for=<duration> in %q", f.Kind, s)
		}
	case Torn, PartialPull:
		if f.Bytes == 0 {
			f.Bytes = 1
		}
	case DupRecords:
		if f.Bytes == 0 {
			f.Bytes = 64
		}
	case Exit:
		if f.Code < 1 || f.Code > 255 {
			return Fault{}, fmt.Errorf("fault: exit code must be in 1…255 in %q", s)
		}
	}
	return f, nil
}

// Injector executes one Fault at the agreed record boundary of a shard
// child's log stream. A nil Injector is the common case (no fault
// injected) and every method is a no-op on it, so callers wire it in
// unconditionally.
type Injector struct {
	f     Fault
	n     int  // records fully written so far
	fired bool // Stall triggers once, not on every later record

	// The worker's two process effects, supplied by its caller: a process
	// passes time.Sleep and os.Exit.
	sleep func(time.Duration)
	exit  func(int)
}

// New returns an injector executing f through the given effects, or nil
// for the zero fault. An exit that returns (a worker on a goroutine
// rather than a process) must keep the worker from writing another
// record.
func New(f Fault, sleep func(time.Duration), exit func(int)) *Injector {
	if f.IsZero() {
		return nil
	}
	return &Injector{f: f, sleep: sleep, exit: exit}
}

// Start executes start-of-run faults (Slow). Call once before the shard
// begins computing.
func (in *Injector) Start() {
	if in == nil || in.f.Kind != Slow {
		return
	}
	in.sleep(in.f.For)
}

// Writer wraps a shard log writer with the fault trigger. Each Write is
// one complete record line (the engine.RecordWriter contract), so record
// counting and mid-record tears happen at exactly the layer a real kill
// would produce them. On a nil Injector it returns w unchanged.
func (in *Injector) Writer(w io.Writer) io.Writer {
	if in == nil {
		return w
	}
	return &faultWriter{in: in, w: w}
}

type faultWriter struct {
	in *Injector
	w  io.Writer
}

func (fw *faultWriter) Write(p []byte) (int, error) {
	in := fw.in
	if in.n == in.f.After && !in.fired {
		switch in.f.Kind {
		case Crash:
			in.exit(ExitCrash)
			return 0, nil // exit returned (an in-process worker); skip the record
		case Torn:
			cut := in.f.Bytes
			if cut > len(p)-1 {
				cut = len(p) - 1
			}
			if cut < 1 {
				cut = 1
			}
			fw.w.Write(p[:cut])
			in.exit(ExitTorn)
			return cut, nil
		case Corrupt:
			fw.w.Write([]byte("{\"i\":corrupt!}\n"))
			in.exit(ExitCorrupt)
			return 0, nil
		case Exit:
			n, err := fw.w.Write(p)
			in.exit(in.f.Code)
			return n, err
		case Stall:
			in.fired = true
			in.sleep(in.f.For)
		}
	}
	n, err := fw.w.Write(p)
	if err == nil {
		in.n++
	}
	return n, err
}
