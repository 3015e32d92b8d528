package scenario

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"sprout/internal/engine"
	"sprout/internal/metrics"
)

// TestPooledWorldRerunAllocs pins the world-reuse contract at the
// experiment layer: once a worker's world is warm (arena grown, endpoints
// memoized, trace pair cached), re-running a job allocates nothing. This
// is what makes large scenario grids allocation-flat — every per-packet
// and per-run byte comes from retained state.
func TestPooledWorldRerunAllocs(t *testing.T) {
	spec := Spec{
		Scheme:   "sprout",
		Link:     "Verizon LTE",
		Duration: Duration(2 * time.Second),
		Skip:     Duration(500 * time.Millisecond),
		Seed:     3,
	}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	job, traces := compile(norm), engine.NewCache()
	w := newWorld()
	run := func() {
		if _, err := job.run(traces, w); err != nil {
			t.Fatal(err)
		}
	}
	run() // grow the arena, memoize endpoints, fill the trace cache
	run() // settle any second-order buffer growth
	if avg := testing.AllocsPerRun(5, run); avg > 0 {
		t.Errorf("warm pooled-world re-run allocates %.1f times per run, want 0", avg)
	}
}

// TestPooledWorldRerunAllocsMultiFlow: sharing the path costs a warm world
// nothing — the flow table and the demux are retained like everything
// else — so a multi-group roster allocates exactly what its schemes'
// constructors do per flow: nothing for Sprout (the memoized forecaster
// is Reset in place) and for an application flow (its profile was resolved
// when the scheme registered), two per TCP flow (tcpConstructor builds a
// fresh congestion controller bound to the clock's Now).
func TestPooledWorldRerunAllocsMultiFlow(t *testing.T) {
	cases := []struct {
		groups []FlowGroup
		want   float64
	}{
		{[]FlowGroup{{Scheme: "sprout", Count: 3}}, 0},
		{[]FlowGroup{{Scheme: "cubic", Count: 2}, {Scheme: "skype", Count: 1}}, 2 * 2},
	}
	for _, c := range cases {
		norm, err := Spec{
			Groups:   c.groups,
			Link:     "Verizon LTE",
			Duration: Duration(2 * time.Second),
			Skip:     Duration(500 * time.Millisecond),
			Seed:     3,
		}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		job, traces := compile(norm), engine.NewCache()
		w := newWorld()
		run := func() {
			if _, err := job.run(traces, w); err != nil {
				t.Fatal(err)
			}
		}
		run()
		run()
		if avg := testing.AllocsPerRun(5, run); avg != c.want {
			t.Errorf("%s: warm re-run allocates %.1f times per run, want %.0f", norm.Label(), avg, c.want)
		}
	}
}

// TestRecordCodecAllocs pins what one record costs through the shard
// codec — EncodeResult → RecordWriter → ReadRecords → DecodeResult, all a
// sharded sweep adds to a run beside a second engine. The Result is
// spelled out rather than simulated so the record's length, and with it
// the count, cannot move with a simulated bit; the pin is exact, so one
// more allocation per record fails it.
func TestRecordCodecAllocs(t *testing.T) {
	specs := []Spec{{
		Groups:   []FlowGroup{{Scheme: "cubic", Count: 1}, {Scheme: "skype", Count: 1}},
		Link:     "Verizon LTE",
		Duration: Duration(2 * time.Second),
		Skip:     Duration(500 * time.Millisecond),
		Seed:     3,
	}}
	norm, err := specs[0].Normalize()
	if err != nil {
		t.Fatal(err)
	}
	const ms = time.Millisecond
	res := Result{
		Spec: norm,
		Metrics: metrics.Result{ThroughputBps: 4667665.75, Delay95: 1234 * ms, Omniscient95: 23 * ms,
			SelfInflicted95: 1211 * ms, MeanDelay: 678 * ms, Utilization: 0.71875, DeliveredBytes: 875187},
		Flows: []FlowResult{
			{Flow: 1, Scheme: "cubic", ThroughputBps: 4321987.5, Delay95: 2345 * ms},
			{Flow: 2, Scheme: "skype", ThroughputBps: 345678.25, Delay95: 456 * ms},
		},
		Delay95:   1234 * ms,
		JainIndex: 0.8125,
	}

	var buf bytes.Buffer
	w := engine.NewRecordWriter(&buf)
	var got Result
	trip := func() {
		buf.Reset()
		rec, err := EncodeResult(0, res)
		if err == nil {
			err = w.Write(rec)
		}
		recs, rerr := engine.ReadRecords(&buf)
		if err != nil || rerr != nil || len(recs) != 1 {
			t.Fatalf("wrote then read back %d records: %v, %v", len(recs), err, rerr)
		}
		if got, err = DecodeResult(recs[0], specs); err != nil {
			t.Fatal(err)
		}
	}
	// The fewest of many trips is the codec's own count: a trip exceeds
	// it only when encoding/json misses its sync.Pool (after a GC, or
	// under the race detector, which drops Puts at random).
	const want = 36
	fewest := testing.AllocsPerRun(1, trip)
	for i := 0; i < 64; i++ {
		fewest = min(fewest, testing.AllocsPerRun(1, trip))
	}
	if fewest != want {
		t.Errorf("one record through the shard codec allocates %.0f times, want %d", fewest, want)
	}
	if !reflect.DeepEqual(got, res) {
		t.Errorf("record round trip changed the result:\n got %+v\nwant %+v", got, res)
	}
}
