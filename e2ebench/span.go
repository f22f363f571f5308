package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The layers spans are attributed to. Spans are recorded by this
// benchmark around its own calls into each layer's public functions;
// work a layer does inside another layer's call is charged to the
// caller (so on paper-tables the simulator's time is harness time).
var layers = []string{"workload", "emu", "core", "harness", "sample", "ckpt", "serve", "trace"}

// span is one call into a layer: its name, interval, the span that
// caused it (-1 for none) and the cell, stream or job it serves.
type span struct {
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	ID     string `json:"id,omitempty"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 4096)} }

// begin opens a span and returns its handle for end and for children.
func (t *tracer) begin(layer, name, id string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(processStart).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Layer: layer, Name: name, ID: id, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(processStart).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// record adds a finished span whose interval was observed elsewhere,
// such as a job's queue wait read back from the server.
func (t *tracer) record(layer, name, id string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Layer: layer, Name: name, ID: id, Parent: parent,
		Start: start.Sub(processStart).Nanoseconds(), End: end.Sub(processStart).Nanoseconds()})
	return len(t.spans) - 1
}

// selfTimes returns each layer's self time in seconds: every span's
// duration minus the part of its interval its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for i, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Layer] += float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// spanCost measures what recording one span costs on this host, by
// timing begin/end pairs on a scratch tracer.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	start := time.Now()
	for range n {
		t.end(t.begin("core", "probe", "", -1))
	}
	return time.Since(start) / n
}

// report adds the per-layer self times and the tracing overhead: the
// spans recorded times their measured unit cost, as a share of the
// time the spans cover.
func (t *tracer) report(r *report) {
	self := t.selfTimes()
	var total float64
	for _, l := range layers {
		r.add("self_s."+l, "s", self[l], len(t.spans))
		total += self[l]
	}
	cost := spanCost()
	overhead := 0.0
	if total > 0 {
		overhead = 100 * float64(len(t.spans)) * cost.Seconds() / total
	}
	r.add("span.count", "count", float64(len(t.spans)), len(t.spans))
	r.add("span.overhead_pct", "%", overhead, len(t.spans))
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
