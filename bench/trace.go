package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the harness around a
// public function of the system: spans of one round share its number, and
// parent is the index of the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
}

// tracer keeps spans in memory until the pass ends. A nil tracer records
// nothing: that is tracing off, and the untraced runs use it.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	round int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Round: t.round})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span and returns its duration in milliseconds.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	sp := &t.spans[id]
	sp.End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
	return float64(sp.End-sp.Start) / 1e6
}

// selfTimes returns, per span name, the summed self time in milliseconds: a
// span's duration minus the part its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	self := make([]int64, len(t.spans))
	for i, sp := range t.spans {
		self[i] += sp.End - sp.Start
		if sp.Parent >= 0 {
			self[sp.Parent] -= sp.End - sp.Start
		}
	}
	out := map[string]float64{}
	for i, sp := range t.spans {
		out[sp.Name] += float64(self[i]) / 1e6
	}
	return out
}

// writeTrace dumps each pass's spans and per-name self times as JSON.
func writeTrace(path string, passes map[string]*tracer) error {
	type dump struct {
		SelfMs map[string]float64 `json:"self_ms"`
		Spans  []span             `json:"spans"`
	}
	out := map[string]dump{}
	for name, t := range passes {
		out[name] = dump{t.selfTimes(), t.spans}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
