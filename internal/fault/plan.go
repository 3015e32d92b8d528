package fault

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"sprout/internal/engine"
)

// Plan is a chaos run's whole fault schedule. Shards maps shard index →
// the fault each successive attempt of that shard executes (attempt 1
// runs Shards[shard][0], and so on; attempts past the end run clean).
// Hosts maps host name → the pull faults gating that host's checkpoint
// stream, ordered by ascending After, which counts the host's pulls. The
// zero Plan injects nothing.
type Plan struct {
	Shards map[int][]Fault
	Hosts  map[string][]Fault
}

// For returns the fault shard's attempt (1-based) should execute, if the
// plan schedules one.
func (p Plan) For(shard, attempt int) (Fault, bool) {
	fs := p.Shards[shard]
	if attempt < 1 || attempt > len(fs) {
		return Fault{}, false
	}
	if fs[attempt-1].IsZero() {
		return Fault{}, false
	}
	return fs[attempt-1], true
}

// String renders the plan for supervisor logs: shards in ascending
// order, then hosts in ascending order.
func (p Plan) String() string {
	if len(p.Shards) == 0 && len(p.Hosts) == 0 {
		return "clean (no faults)"
	}
	var b strings.Builder
	for _, s := range slices.Sorted(maps.Keys(p.Shards)) {
		writeSequence(&b, fmt.Sprintf("shard %d:", s), p.Shards[s])
	}
	for _, h := range slices.Sorted(maps.Keys(p.Hosts)) {
		writeSequence(&b, "host "+h+":", p.Hosts[h])
	}
	return b.String()
}

func writeSequence(b *strings.Builder, label string, fs []Fault) {
	if b.Len() > 0 {
		b.WriteString("; ")
	}
	b.WriteString(label)
	for i, f := range fs {
		if i > 0 {
			b.WriteString(" →")
		}
		b.WriteString(" " + f.String())
	}
}

// SlowStart is the fixed Slow-fault duration generated plans use: long
// enough to be a visible laggard, far below any sane stall deadline, so
// a supervisor that kills slow starters fails the chaos suite.
const SlowStart = 300 * time.Millisecond

// slowPull is the fixed SlowStream delay generated plans use: visible in
// a trace, far below any stall deadline.
const slowPull = 50 * time.Millisecond

// Retries is the supervisor's attempt budget per shard. Generated plans
// are drawn against it, so the supervisor reads the same constant.
const Retries = 3

// maxKills bounds how many hosts a generated plan takes down. It is
// also kept below the pool size, so failover, not rescue, is the path
// under test.
const maxKills = 1

// NewPlan derives a reproducible chaos plan for a sweep of the given
// width over the named hosts. Each shard independently draws its
// per-attempt fault sequence from randomness seeded by (seed, shard),
// and each host its pull-fault sequence from (seed, host), so the same
// seed always yields the same schedule, host order independent — a
// failing chaos seed in CI replays exactly locally. No hosts means no
// pull faults.
//
// The shard distribution is tuned for a supervisor with Retries attempts
// per shard: most shards draw either nothing or a short transient
// sequence (strictly fewer faults than Retries, so a later attempt runs
// clean), and a minority draw a "killer" — a permanent corruption, or
// Retries consecutive crashes — that forces the shard to be declared dead
// and its remaining jobs reassigned to the rescue path. stallFor is the
// sleep a Stall fault injects; callers set it comfortably above the
// supervisor's stall deadline (so detection, not patience, ends the
// stall) while keeping the worst case bounded if detection is broken.
//
// Every recoverable pull fault exercises a distinct puller obligation:
// conndrop → retry without declaring the host dead, slowstream →
// patience, partialpull → hold the torn chunk back and re-pull,
// duprecords → deduplicate the replayed records by index. With two or
// more hosts, one of them also draws a HostDown, which exercises
// failover itself.
func NewPlan(seed int64, shards int, hosts []string, stallFor time.Duration) Plan {
	p := Plan{Shards: map[int][]Fault{}, Hosts: map[string][]Fault{}}
	for s := 0; s < shards; s++ {
		r := rand.New(rand.NewSource(engine.DeriveSeed(seed, "chaos", strconv.Itoa(s))))
		if fs := shardFaults(r, stallFor); len(fs) > 0 {
			p.Shards[s] = fs
		}
	}
	for _, h := range hosts {
		r := rand.New(rand.NewSource(engine.DeriveSeed(seed, "netchaos", h)))
		if fs := hostPullFaults(r); len(fs) > 0 {
			p.Hosts[h] = fs
		}
	}
	if kills := min(maxKills, len(hosts)-1); kills > 0 {
		r := rand.New(rand.NewSource(engine.DeriveSeed(seed, "hostkill")))
		perm := r.Perm(len(hosts))
		for _, hi := range perm[:1+r.Intn(kills)] {
			h := hosts[hi]
			p.Hosts[h] = insertByAfter(p.Hosts[h], Fault{Kind: HostDown, After: r.Intn(5)})
		}
	}
	return p
}

func shardFaults(r *rand.Rand, stallFor time.Duration) []Fault {
	switch roll := r.Float64(); {
	case roll < 0.30:
		return nil // this shard runs clean
	case roll < 0.80:
		// Transient: fewer faults than attempts, so the shard recovers
		// by itself (every fault still exercises resume-from-log).
		n := min(1+r.Intn(2), Retries-1)
		fs := make([]Fault, 0, n)
		stalls := 0
		for len(fs) < n {
			fs = append(fs, transientFault(r, stallFor, &stalls))
		}
		return fs
	case roll < 0.90:
		// Permanent: a corrupt record makes the next resume refuse the
		// log — the shard is dead on classification, not on retry count.
		return []Fault{{Kind: Corrupt, After: r.Intn(2)}}
	default:
		// Exhaustion: every attempt crashes, so retries run out and the
		// shard's remaining jobs must be rescued.
		fs := make([]Fault, Retries)
		for i := range fs {
			fs[i] = Fault{Kind: Crash, After: r.Intn(3)}
		}
		return fs
	}
}

// transientFault draws one recoverable fault. At most one stall per shard
// keeps chaos wall-clock bounded (each stall costs a full supervisor
// deadline before the kill).
func transientFault(r *rand.Rand, stallFor time.Duration, stalls *int) Fault {
	for {
		switch r.Intn(5) {
		case 0:
			return Fault{Kind: Crash, After: r.Intn(3)}
		case 1:
			// Transient exit codes deliberately avoid the worker's
			// permanent-failure codes (2 = usage, 3 = data).
			return Fault{Kind: Exit, After: r.Intn(3), Code: 1 + 6*r.Intn(2)}
		case 2:
			return Fault{Kind: Torn, After: r.Intn(3), Bytes: 1 + r.Intn(48)}
		case 3:
			if *stalls >= 1 {
				continue
			}
			*stalls++
			return Fault{Kind: Stall, After: r.Intn(2), For: stallFor}
		default:
			return Fault{Kind: Slow, For: SlowStart}
		}
	}
}

// hostPullFaults draws one host's recoverable pull-fault sequence,
// ordered by ascending After.
func hostPullFaults(r *rand.Rand) []Fault {
	if r.Float64() < 0.35 {
		return nil // this host's stream runs clean
	}
	n := 1 + r.Intn(3)
	fs := make([]Fault, 0, n)
	after := r.Intn(3)
	for len(fs) < n {
		var f Fault
		switch r.Intn(4) {
		case 0:
			f = Fault{Kind: ConnDrop, After: after}
		case 1:
			f = Fault{Kind: SlowStream, After: after, For: slowPull}
		case 2:
			f = Fault{Kind: PartialPull, After: after, Bytes: 1 + r.Intn(48)}
		default:
			f = Fault{Kind: DupRecords, After: after, Bytes: 1 + r.Intn(128)}
		}
		fs = append(fs, f)
		after += 1 + r.Intn(3)
	}
	return fs
}

// insertByAfter inserts f into an After-ordered sequence, keeping it
// ordered so sequential consumption by pull number reaches every fault.
func insertByAfter(fs []Fault, f Fault) []Fault {
	i := sort.Search(len(fs), func(i int) bool { return fs[i].After > f.After })
	fs = append(fs, Fault{})
	copy(fs[i+1:], fs[i:])
	fs[i] = f
	return fs
}
