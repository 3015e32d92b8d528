// Package trace represents and generates cellular link traces.
//
// A trace is the ground truth recorded by the paper's Saturator tool (§4.1):
// the sequence of instants at which the link could deliver one MTU-sized
// (1500-byte) packet. Cellsim (internal/link) replays a trace, releasing
// queued bytes at exactly these instants.
//
// Because the commercial traces from the paper are not redistributable,
// this package also includes a synthetic generator driven by the paper's own
// stochastic link model (§3.1): a Poisson packet-delivery process whose rate
// λ varies as Brownian motion with a sticky outage state. The generator is
// parameterized per network to match the capacity ranges in Figure 7. Real
// traces in the mahimahi format (one millisecond timestamp per line) load
// unchanged via Parse.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// MTU is the packet size in bytes represented by one delivery opportunity,
// matching the paper's MTU-sized packets.
const MTU = 1500

// Trace is an ordered sequence of delivery opportunities. Each opportunity
// permits MTU bytes to cross the link (per-byte accounting is done by the
// emulator, per footnote 6 of the paper).
type Trace struct {
	// Name identifies the trace in reports (e.g. "Verizon-LTE-down").
	Name string
	// Opportunities holds the time of each delivery opportunity,
	// nondecreasing, measured from the start of the trace.
	Opportunities []time.Duration
}

// Duration returns the time of the last opportunity (the usable length of
// the trace). An empty trace has duration 0.
func (t *Trace) Duration() time.Duration {
	if len(t.Opportunities) == 0 {
		return 0
	}
	return t.Opportunities[len(t.Opportunities)-1]
}

// Count returns the number of delivery opportunities.
func (t *Trace) Count() int { return len(t.Opportunities) }

// Validate checks that opportunities are nondecreasing.
func (t *Trace) Validate() error {
	for i := 1; i < len(t.Opportunities); i++ {
		if t.Opportunities[i] < t.Opportunities[i-1] {
			return fmt.Errorf("trace %q: opportunity %d at %v precedes %v",
				t.Name, i, t.Opportunities[i], t.Opportunities[i-1])
		}
	}
	return nil
}

// CapacityBits returns the total capacity, in bits, offered by the trace in
// the window [from, to): the number of opportunities in the window times the
// MTU size.
func (t *Trace) CapacityBits(from, to time.Duration) int64 {
	i := sort.Search(len(t.Opportunities), func(i int) bool { return t.Opportunities[i] >= from })
	j := sort.Search(len(t.Opportunities), func(i int) bool { return t.Opportunities[i] >= to })
	return int64(j-i) * MTU * 8
}

// MeanRateBps returns the average offered rate of the whole trace in bits
// per second. An empty or zero-duration trace reports 0.
func (t *Trace) MeanRateBps() float64 {
	d := t.Duration()
	if d <= 0 {
		return 0
	}
	return float64(len(t.Opportunities)) * MTU * 8 / d.Seconds()
}

// Interarrivals returns the gaps between consecutive opportunities.
func (t *Trace) Interarrivals() []time.Duration {
	if len(t.Opportunities) < 2 {
		return nil
	}
	out := make([]time.Duration, 0, len(t.Opportunities)-1)
	for i := 1; i < len(t.Opportunities); i++ {
		out = append(out, t.Opportunities[i]-t.Opportunities[i-1])
	}
	return out
}

// Slice returns a new trace containing the opportunities in [from, to),
// re-based so the window starts at time zero.
func (t *Trace) Slice(from, to time.Duration) *Trace {
	i := sort.Search(len(t.Opportunities), func(i int) bool { return t.Opportunities[i] >= from })
	j := sort.Search(len(t.Opportunities), func(i int) bool { return t.Opportunities[i] >= to })
	out := &Trace{Name: t.Name, Opportunities: make([]time.Duration, j-i)}
	for k := i; k < j; k++ {
		out.Opportunities[k-i] = t.Opportunities[k] - from
	}
	return out
}

// Parse reads a trace in the mahimahi format: one decimal integer per line,
// the time of a delivery opportunity in milliseconds since the start.
// Repeated timestamps mean multiple opportunities in the same millisecond.
// Blank lines and lines starting with '#' are ignored. Files that passed
// through Windows tooling parse unchanged: CRLF line endings, a UTF-8 BOM
// and trailing blank lines are all tolerated.
func Parse(r io.Reader, name string) (*Trace, error) {
	opps, err := collect(func(s *scratch) error {
		sc := bufio.NewScanner(r)
		lineNo := 0
		for sc.Scan() {
			lineNo++
			line := sc.Text() // Scanner already strips \n and a trailing \r
			if lineNo == 1 {
				line = strings.TrimPrefix(line, "\ufeff") // UTF-8 BOM
			}
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			ms, err := strconv.ParseInt(line, 10, 64)
			if err != nil {
				return fmt.Errorf("trace %q line %d: %v", name, lineNo, err)
			}
			if ms < 0 {
				return fmt.Errorf("trace %q line %d: negative timestamp %d", name, lineNo, ms)
			}
			if ms > math.MaxInt64/int64(time.Millisecond) {
				// The ms→Duration conversion below would silently wrap
				// negative.
				return fmt.Errorf("trace %q line %d: timestamp %d ms overflows", name, lineNo, ms)
			}
			s.opps = append(s.opps, time.Duration(ms)*time.Millisecond)
		}
		return sc.Err()
	})
	if err != nil {
		return nil, err
	}
	t := &Trace{Name: name, Opportunities: opps}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Write emits the trace in the mahimahi format (millisecond granularity;
// sub-millisecond timing is truncated).
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, op := range t.Opportunities {
		if _, err := fmt.Fprintf(bw, "%d\n", op.Milliseconds()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// scratch is the working storage in which Generate and Parse build an
// opportunity list before the trace keeps its exact-length copy: the list
// itself, and Generate's per-step delivery offsets.
type scratch struct {
	opps    []time.Duration
	offsets []float64
}

// scratchPool recycles scratch across calls. Traces are generated on
// several engine workers at once, so each call borrows its own; the pool
// drops what sits unused across two garbage collections, so a one-off
// long parse does not pin its buffer.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// collect lends fill a pooled scratch, its list emptied, to append a
// trace's opportunities to, and returns an exact-length copy of them (nil
// when there are none) or fill's error. Grown by append inside the trace,
// the list would copy itself at every doubling and keep up to half its
// capacity unused; built here, a trace allocates only what it keeps.
func collect(fill func(s *scratch) error) ([]time.Duration, error) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.opps = s.opps[:0]
	if err := fill(s); err != nil || len(s.opps) == 0 {
		return nil, err
	}
	out := make([]time.Duration, len(s.opps))
	copy(out, s.opps)
	return out, nil
}
