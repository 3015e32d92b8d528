package scenario

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"sprout/internal/engine"
	"sprout/internal/trace"
)

// sameResult fails t unless got and want are one run's result: the record
// a shard stream carries for it, label aside, and the data-direction
// delivery logs when both runs kept them. It is the one comparison of two
// Results in this package's tests.
func sameResult(t testing.TB, got, want Result) {
	t.Helper()
	g, w := RecordOf(got), RecordOf(want)
	g.Label, w.Label = "", ""
	if !reflect.DeepEqual(g, w) {
		t.Errorf("%s: results differ\n got %+v\nwant %+v", got.Spec.Label(), g, w)
	}
	if !got.Spec.KeepDeliveries || !want.Spec.KeepDeliveries {
		return
	}
	for i := 0; i < len(got.Deliveries) && i < len(want.Deliveries); i++ {
		if got.Deliveries[i] != want.Deliveries[i] {
			t.Errorf("%s: delivery %d is %+v, want %+v", got.Spec.Label(), i, got.Deliveries[i], want.Deliveries[i])
			return
		}
	}
	if len(got.Deliveries) != len(want.Deliveries) {
		t.Errorf("%s: %d deliveries, want %d", got.Spec.Label(), len(got.Deliveries), len(want.Deliveries))
	}
}

// checkResult fails t unless the result of a direct or cell run holds the
// invariants every one must, whatever its scheme: finite non-negative flow
// rates; utilization in (0, 1] unless nothing was delivered; the link's
// rate, and a fixed roster's summed rates, within its capacity plus one
// MTU per flow (a packet straddling the window's start counts whole); and
// a 95th-percentile delay no shorter than the propagation delay.
func checkResult(t testing.TB, r Result) {
	t.Helper()
	var sum float64
	for _, f := range r.Flows {
		if math.IsNaN(f.ThroughputBps) || math.IsInf(f.ThroughputBps, 0) || f.ThroughputBps < 0 {
			t.Errorf("%s: flow %d throughput %v is not finite and non-negative", r.Spec.Label(), f.Flow, f.ThroughputBps)
		}
		sum += f.ThroughputBps
	}
	if prop := time.Duration(r.Spec.PropDelay); sum > 0 && r.Delay95 < prop {
		t.Errorf("%s: delay95 %v below the propagation delay %v", r.Spec.Label(), r.Delay95, prop)
	}
	m := r.Metrics
	if m.DeliveredBytes == 0 {
		if m.Utilization != 0 || sum != 0 {
			t.Errorf("%s: nothing delivered, yet utilization %v and flows at %.0f bps", r.Spec.Label(), m.Utilization, sum)
		}
		return
	}
	window := (time.Duration(r.Spec.Duration) - time.Duration(r.Spec.Skip)).Seconds()
	capacity := m.ThroughputBps / m.Utilization
	limit := capacity + float64(len(r.Flows)+1)*trace.MTU*8/window
	if !(m.Utilization > 0 && m.ThroughputBps <= limit) {
		t.Errorf("%s: utilization %v outside (0, 1]: %.0f bps over a capacity of %.0f bps", r.Spec.Label(), m.Utilization, m.ThroughputBps, capacity)
	}
	// Churned cell flows are rated over their own lifetimes, so only a
	// fixed roster's rates add up to the link's.
	if churn := r.Spec.Cell != nil && r.Spec.Cell.Churn != nil; !churn && sum > limit {
		t.Errorf("%s: flows deliver %.0f bps over a capacity of %.0f bps", r.Spec.Label(), sum, capacity)
	}
}

// equivalence is one pair of runs that must give the same result: a after
// the prior specs on one world, against b (or a again, when b is nil) on a
// fresh world.
type equivalence struct {
	name  string
	prior []Spec
	a     Spec
	b     *Spec
}

func ptr(s Spec) *Spec { return &s }

func equivalences() []equivalence {
	verizon := func(scheme string, d, skip time.Duration, seed int64, loss float64) Spec {
		return Spec{Scheme: scheme, Link: "Verizon LTE", Duration: Duration(d), Skip: Duration(skip), Seed: seed, Loss: loss}
	}
	var rows []equivalence
	for _, scheme := range []string{"sprout", "cubic"} {
		// A pure-model process spec is the materialized down-direction
		// spec for the same network and seed: same opportunity stream
		// (the frozen seed derivation), same simulation, same metrics
		// arithmetic (online omniscient bound vs post-hoc trace scan).
		direct := streamSpec(scheme, 6*time.Second, 2*time.Second, 7)
		rows = append(rows, equivalence{
			name: "streaming vs materialized, " + scheme,
			a:    direct,
			b:    ptr(verizon(scheme, 6*time.Second, 2*time.Second, 7, 0)),
		})
		// A one-cell, one-flow round-robin cell world is the dedicated
		// link in disguise: same reservation, timer and RNG consumption.
		rows = append(rows, equivalence{
			name: "cell degenerate vs direct, " + scheme,
			a:    cellSpec(&CellSpec{Groups: []CellGroup{{Scheme: scheme, Flows: 1}}}, 6*time.Second, 2*time.Second, 7),
			b:    &direct,
		})
	}
	// Reuse changes nothing: a warm world re-running a spec is a fresh one.
	tmobile := verizon("sprout", 2*time.Second, 500*time.Millisecond, 9, 0)
	tmobile.Link = "T-Mobile 3G (UMTS)"
	rows = append(rows, equivalence{name: "pooled rerun, sprout on T-Mobile 3G", prior: []Spec{tmobile}, a: tmobile})
	// A row that switches schemes builds anew, in the matrix's
	// scheme-major job order.
	var switches []Spec
	for i := 0; i < 6; i++ {
		switches = append(switches, verizon([]string{"sprout", "cubic", "skype"}[i%3], 2*time.Second, 500*time.Millisecond, 4, 0))
	}
	for i := 1; i < len(switches); i++ {
		rows = append(rows, equivalence{
			name:  fmt.Sprintf("pooled scheme switch, run %d %s", i+1, switches[i].Scheme),
			prior: switches[:i], a: switches[i],
		})
	}
	// A lossless job leaves the world's loss RNGs where the last lossy job
	// left them (its links never draw); a lossy one re-seeds them first.
	var losses []Spec
	for _, c := range []struct {
		scheme string
		loss   float64
	}{{"sprout", 0.05}, {"sprout", 0}, {"cubic", 0.1}, {"cubic", 0}, {"sprout", 0.05}, {"cubic", 0.02}} {
		losses = append(losses, verizon(c.scheme, 2*time.Second, 500*time.Millisecond, 6, c.loss))
	}
	for i := range losses {
		rows = append(rows, equivalence{
			name:  fmt.Sprintf("pooled loss switch, run %d %s loss %v", i+1, losses[i].Scheme, losses[i].Loss),
			prior: losses[:i], a: losses[i],
		})
	}
	stream := streamSpec("sprout", 2*time.Second, 500*time.Millisecond, 3)
	churn := cellWorldReuseSpec()
	rows = append(rows,
		equivalence{name: "streaming world reuse, sprout", prior: []Spec{stream}, a: stream},
		equivalence{name: "cell world reuse, proportional-fair churn", prior: []Spec{churn}, a: churn},
	)
	// A link's rank is its creation order on the world's loop, and
	// worlds create links in (cell, downlink, uplink) order whatever ran
	// before: a direct spec after a two-cell one ranks cell 0's links as
	// a fresh world does, and so does a two-cell spec after a direct one.
	twoCells := cellSpec(&CellSpec{Cells: 2, Groups: []CellGroup{
		{Scheme: "cubic", Flows: 2}, {Scheme: "sprout", Flows: 2, Cell: 1},
	}}, 2*time.Second, 500*time.Millisecond, 5)
	direct := streamSpec("cubic", 2*time.Second, 500*time.Millisecond, 5)
	rows = append(rows,
		equivalence{name: "direct after two cells", prior: []Spec{twoCells}, a: direct},
		equivalence{name: "two cells after direct", prior: []Spec{direct}, a: twoCells},
	)
	return rows
}

// TestEquivalentRuns: each row's two runs give one result (sameResult).
func TestEquivalentRuns(t *testing.T) {
	traces := engine.NewCache()
	run := func(t *testing.T, spec Spec, w *world) Result {
		t.Helper()
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		res, err := compile(norm).run(traces, w)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, row := range equivalences() {
		t.Run(row.name, func(t *testing.T) {
			w := newWorld()
			for _, spec := range row.prior {
				run(t, spec, w)
			}
			b := &row.a
			if row.b != nil {
				b = row.b
			}
			sameResult(t, run(t, row.a, w), run(t, *b, newWorld()))
		})
	}
}

// TestKeptDeliveriesOutliveWorldReuse: a delivery log a result keeps is
// its own, and holds its run's deliveries alone. The world reuses its log's
// storage on the next run: a tunnel run's log (from the egress) must not
// change under a two-cell run, and the two-cell run's log must be a fresh
// world's, with every flow of both cells in it.
func TestKeptDeliveriesOutliveWorldReuse(t *testing.T) {
	run := func(spec Spec, w *world) Result {
		t.Helper()
		spec.KeepDeliveries = true
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		res, err := compile(norm).run(nil, w)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Deliveries) == 0 {
			t.Fatalf("%s kept no deliveries", spec.Label())
		}
		return res
	}
	tunnel := streamSpec("skype", 3*time.Second, time.Second, 1)
	tunnel.Tunnel = true
	twoCells := cellSpec(&CellSpec{Cells: 2, HandoverRate: 1, Groups: []CellGroup{
		{Scheme: "cubic", Flows: 2}, {Scheme: "skype", Flows: 2, Cell: 1},
	}}, 3*time.Second, time.Second, 2)

	w := newWorld()
	first := run(tunnel, w)
	kept := slices.Clone(first.Deliveries)
	second := run(twoCells, w)
	if !slices.Equal(first.Deliveries, kept) {
		t.Fatal("the second run on the world rewrote the first result's delivery log")
	}
	sameResult(t, second, run(twoCells, newWorld()))
	delivered := map[uint32]bool{}
	for _, d := range second.Deliveries {
		delivered[d.Flow] = true
	}
	for _, f := range second.Flows {
		if !delivered[f.Flow] {
			t.Errorf("the two-cell log holds no delivery of flow %d (%s)", f.Flow, f.Scheme)
		}
	}
}

// relabel returns a normalized spec with its static groups' flow ids moved
// to fresh ones in reverse order to the roster: the first group takes the
// highest ids and the last the lowest, each still ascending within itself.
func relabel(norm Spec) Spec {
	next := uint32(5000)
	if norm.Cell != nil {
		c := *norm.Cell
		c.Groups = slices.Clone(c.Groups)
		for i := range c.Groups {
			next -= uint32(c.Groups[i].Flows)
			c.Groups[i].BaseFlow = next
		}
		norm.Cell = &c
	}
	norm.Groups = slices.Clone(norm.Groups)
	for i := range norm.Groups {
		next -= uint32(norm.Groups[i].Count)
		norm.Groups[i].BaseFlow = next
	}
	return norm
}

// TestFlowIDsAreLabels: a flow id names a flow and does nothing else.
// Relabeling the static groups with ids in reverse roster order leaves the
// aggregate metrics, the cross-flow aggregates and every flow's scheme,
// throughput and delay, in roster order, bit for bit the same. Generated
// direct and cell specs run on one warm world; tunnel specs, where the ids
// key the ingress's per-flow queues, run on another.
func TestFlowIDsAreLabels(t *testing.T) {
	n := int64(128)
	if testing.Short() {
		n = 32
	}
	specs := make([]Spec, 0, n+5)
	for seed := int64(0); seed < n; seed++ {
		specs = append(specs, genSpec(seed))
	}
	for seed := int64(1); seed <= 5; seed++ {
		specs = append(specs, Spec{
			Link:     "Verizon LTE",
			Tunnel:   true,
			Groups:   []FlowGroup{{Scheme: "cubic", Count: 2}, {Scheme: "skype", Count: 1}, {Scheme: "sprout", Count: 1}},
			Duration: Duration(3 * time.Second),
			Skip:     Duration(time.Second),
			Loss:     0.01,
			Seed:     seed,
		})
	}
	w, traces := newWorld(), engine.NewCache()
	run := func(spec Spec) Result {
		t.Helper()
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatalf("%s: %v", spec.Label(), err)
		}
		res, err := compile(norm).run(traces, w)
		if err != nil {
			t.Fatalf("%s: %v", spec.Label(), err)
		}
		return res
	}
	flows := 0
	for _, spec := range specs {
		a := run(spec)
		b := run(relabel(a.Spec))
		name := a.Spec.Label()
		if a.Metrics != b.Metrics || a.Delay95 != b.Delay95 || a.JainIndex != b.JainIndex || a.HeadDrops != b.HeadDrops {
			t.Errorf("%s: relabeled aggregates differ\n got %+v delay95 %v jain %v head drops %d\nwant %+v delay95 %v jain %v head drops %d",
				name, b.Metrics, b.Delay95, b.JainIndex, b.HeadDrops, a.Metrics, a.Delay95, a.JainIndex, a.HeadDrops)
		}
		if len(a.Flows) != len(b.Flows) {
			t.Fatalf("%s: %d flows relabeled, %d before", name, len(b.Flows), len(a.Flows))
		}
		for i, fa := range a.Flows {
			fb := b.Flows[i]
			if fb.Flow == fa.Flow && fa.Flow < churnFlowBase {
				t.Fatalf("%s: flow %d kept its id %d", name, i, fa.Flow)
			}
			if fa.Scheme != fb.Scheme || fa.ThroughputBps != fb.ThroughputBps || fa.Delay95 != fb.Delay95 {
				t.Errorf("%s: flow %d (id %d → %d) is %s %v b/s %v relabeled, %s %v b/s %v before",
					name, i, fa.Flow, fb.Flow, fb.Scheme, fb.ThroughputBps, fb.Delay95, fa.Scheme, fa.ThroughputBps, fa.Delay95)
			}
		}
		flows += len(a.Flows)
	}
	t.Logf("%d specs, %d flows", len(specs), flows)
}
