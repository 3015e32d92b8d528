package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Spans are recorded from the
// benchmark's own files, around the calls into each layer; spans inside
// the program are a later change.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Run    string `json:"run"`    // shared by every span of one traced run
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"` // job name, pass number
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per span.
type recorder struct {
	run   string
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(run string, epoch time.Time) *recorder {
	return &recorder{run: run, epoch: epoch}
}

// begin opens a span under parent (0 for the root) and returns its id.
// Safe for concurrent use: engine workers open job spans in parallel.
func (r *recorder) begin(parent int, name, label string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: r.run, Name: name, Label: label, Start: now})
	return id
}

// beginAt is begin with an explicit start, for intervals that opened
// before the recorder existed (process start).
func (r *recorder) beginAt(parent int, name string, start time.Time) int {
	id := r.begin(parent, name, "")
	if r != nil {
		r.mu.Lock()
		r.spans[id-1].Start = start.Sub(r.epoch).Nanoseconds()
		r.mu.Unlock()
	}
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children that overlap one
// another (jobs on parallel workers) are merged first, so covered time is
// never counted twice.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, reach int64 = 0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// traceFile is what a traced run writes at exit.
type traceFile struct {
	Manifest manifest `json:"manifest"`
	Workload string   `json:"workload"`
	Spans    []span   `json:"spans"`
	// SelfNS sums self time by span name, the quick answer to "where did
	// the wall time go" without walking the tree.
	SelfNS map[string]int64 `json:"self_ns_by_name"`
}

func (r *recorder) write(path, workload string, m manifest) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	byName := map[string]int64{}
	self := selfTimes(spans)
	for _, s := range spans {
		byName[s.Name] += self[s.ID]
	}
	raw, err := json.MarshalIndent(traceFile{Manifest: m, Workload: workload, Spans: spans, SelfNS: byName}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
