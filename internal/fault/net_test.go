package fault

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// hostPlan draws only a plan's network half: pull faults over hosts, no
// shards.
func hostPlan(seed int64, hosts []string) Plan {
	return NewPlan(seed, 0, hosts, 0)
}

// kinds returns the distinct fault kinds a plan's network half draws.
func kinds(p Plan) map[Kind]bool {
	out := map[Kind]bool{}
	for _, fs := range p.Hosts {
		for _, f := range fs {
			out[f.Kind] = true
		}
	}
	return out
}

// TestPlanPinsChaosSchedules: the schedules the soaks replay are pinned.
// The shard half for seeds 1–20 (2 shards, 3 retries, 1.5 s stalls) and
// the host half for seeds 1–12 over {h0,h1,h2} hash to the values
// recorded when the two halves were drawn by separate generators, and
// drawing both at once changes neither half.
func TestPlanPinsChaosSchedules(t *testing.T) {
	hosts := []string{"h0", "h1", "h2"}
	h := sha256.New()
	for seed := int64(1); seed <= 20; seed++ {
		fmt.Fprintln(h, NewPlan(seed, 2, nil, 1500*time.Millisecond).String())
	}
	if got, want := fmt.Sprintf("%x", h.Sum(nil)), "9609ea6abfa93b33cec3c38a33c41966e5430b5a2fe1cd8bc9c8d6ec4ad0fc83"; got != want {
		t.Fatalf("shard schedules hash %s, want %s", got, want)
	}
	h = sha256.New()
	for seed := int64(1); seed <= 12; seed++ {
		fmt.Fprintln(h, hostPlan(seed, hosts).String())
	}
	if got, want := fmt.Sprintf("%x", h.Sum(nil)), "257c16fe2f42ba1f45b88bff30cca0f85a8ffe7c5fcf9297f4c918f85efd7d6e"; got != want {
		t.Fatalf("host schedules hash %s, want %s", got, want)
	}
	for seed := int64(1); seed <= 12; seed++ {
		both := NewPlan(seed, 2, hosts, 1500*time.Millisecond)
		if shards := NewPlan(seed, 2, nil, 1500*time.Millisecond).Shards; !reflect.DeepEqual(both.Shards, shards) {
			t.Fatalf("seed %d: naming hosts moved the shard half:\n%v\n%v", seed, both.Shards, shards)
		}
		if !reflect.DeepEqual(both.Hosts, hostPlan(seed, hosts).Hosts) {
			t.Fatalf("seed %d: drawing shards moved the host half", seed)
		}
	}
}

// TestNetPlanDeterminism: the network half is a pure function of the
// seed — the CI-replay property — and different seeds genuinely vary.
func TestNetPlanDeterminism(t *testing.T) {
	hosts := []string{"a", "b", "c"}
	p1 := hostPlan(42, hosts)
	if p2 := hostPlan(42, hosts); p1.String() != p2.String() {
		t.Fatalf("same seed, different plans:\n%s\n%s", p1, p2)
	}
	varied := false
	for seed := int64(1); seed <= 10; seed++ {
		if hostPlan(seed, hosts).String() != p1.String() {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("ten seeds produced the identical plan; the generator is not drawing randomness")
	}
}

// TestNetPlanKillBound: a pool of two or more hosts loses exactly one —
// always leaving survivors for failover — and a single host is never
// killed.
func TestNetPlanKillBound(t *testing.T) {
	for _, hosts := range [][]string{{"a", "b"}, {"a", "b", "c"}} {
		for seed := int64(1); seed <= 50; seed++ {
			p := hostPlan(seed, hosts)
			killed := 0
			for _, fs := range p.Hosts {
				for _, f := range fs {
					if f.Kind == HostDown {
						killed++
					}
				}
			}
			if killed != 1 {
				t.Fatalf("seed %d over %v killed %d hosts, want 1: %s", seed, hosts, killed, p)
			}
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		if kinds(hostPlan(seed, []string{"solo"}))[HostDown] {
			t.Fatalf("seed %d killed the only host", seed)
		}
	}
}

// TestNetPlanOrderingAndCoverage: every generated sequence is ordered by
// ascending After (the pull gate's consumption contract), and across a
// band of seeds the generator draws every network fault kind.
func TestNetPlanOrderingAndCoverage(t *testing.T) {
	hosts := []string{"a", "b", "c", "d"}
	seen := map[Kind]bool{}
	for seed := int64(1); seed <= 40; seed++ {
		p := hostPlan(seed, hosts)
		for h, fs := range p.Hosts {
			for i := 1; i < len(fs); i++ {
				if fs[i].After < fs[i-1].After {
					t.Fatalf("seed %d host %s: sequence out of order: %s", seed, h, p)
				}
			}
		}
		for k := range kinds(p) {
			seen[k] = true
		}
	}
	for _, k := range []Kind{ConnDrop, SlowStream, PartialPull, DupRecords, HostDown} {
		if !seen[k] {
			t.Fatalf("40 seeds never drew %s", k)
		}
	}
}

// TestNetPlanString covers the log rendering: shards first, then hosts,
// each in ascending order.
func TestNetPlanString(t *testing.T) {
	p := Plan{Hosts: map[string][]Fault{
		"b": {{Kind: ConnDrop, After: 1}},
		"a": {{Kind: HostDown, After: 0}, {Kind: SlowStream, After: 2, For: slowPull}},
	}}
	want := "host a: hostdown:after=0 → slowstream:after=2,for=50ms; host b: conndrop:after=1"
	if got := p.String(); got != want {
		t.Fatalf("plan renders %q, want %q", got, want)
	}
	p.Shards = map[int][]Fault{1: {{Kind: Crash, After: 0}}}
	if got := p.String(); got != "shard 1: crash:after=0; "+want {
		t.Fatalf("plan renders %q", got)
	}
}

// TestParseNetKinds: the five network kinds round-trip through the
// String/Parse serialization, and validation applies the documented
// defaults.
func TestParseNetKinds(t *testing.T) {
	roundTrip := []Fault{
		{Kind: ConnDrop, After: 3, Code: 1},
		{Kind: SlowStream, After: 1, For: 250 * time.Millisecond, Code: 1},
		{Kind: PartialPull, After: 2, Bytes: 7, Code: 1},
		{Kind: DupRecords, After: 0, Bytes: 128, Code: 1},
		{Kind: HostDown, After: 4, Code: 1},
	}
	for _, f := range roundTrip {
		got, err := Parse(f.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", f.String(), err)
		}
		if got != f {
			t.Fatalf("round trip %q: got %+v, want %+v", f.String(), got, f)
		}
	}
	if _, err := Parse("slowstream:after=1"); err == nil {
		t.Fatal("slowstream without for= must be rejected")
	}
	if f, err := Parse("partialpull:after=1"); err != nil || f.Bytes != 1 {
		t.Fatalf("partialpull default bytes: (%+v, %v), want Bytes=1", f, err)
	}
	if f, err := Parse("duprecords:after=1"); err != nil || f.Bytes != 64 {
		t.Fatalf("duprecords default bytes: (%+v, %v), want Bytes=64", f, err)
	}
}
