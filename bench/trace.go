package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one job or request share
// Req; Parent is the ID of the enclosing span (0 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs share the traced code paths.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a span that has begun but not ended.
type open struct {
	name   string
	id     int64
	parent int64
	req    string
	start  time.Time
}

// begin starts a span; its id is the parent of spans begun inside it.
func (t *tracer) begin(name string, parent int64, req string) open {
	if t == nil {
		return open{}
	}
	return open{name, t.nextID.Add(1), parent, req, time.Now()}
}

// end closes a span begun with begin.
func (t *tracer) end(o open) {
	if t == nil {
		return
	}
	t.add(span{o.name, o.id, o.parent, o.req, o.start.Sub(t.t0).Nanoseconds(), time.Since(t.t0).Nanoseconds()})
}

// record stores a span whose bounds were observed elsewhere and returns its
// id.
func (t *tracer) record(name string, parent int64, req string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	id := t.nextID.Add(1)
	t.add(span{name, id, parent, req, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// layerTime is the time summary of all spans of one name.
type layerTime struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes sums, per span name, the spans' durations and self times. A
// span's self time is its duration minus the part of it covered by its
// children (the union of their intervals, clipped to the span).
func (t *tracer) selfTimes() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range t.spans {
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
		lt := out[s.Name]
		lt.Count++
		lt.TotalS += float64(s.End-s.Start) / 1e9
		lt.SelfS += float64(s.End-s.Start-covered) / 1e9
		out[s.Name] = lt
	}
	return out
}

// count returns the number of recorded spans.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans, the per-name self-time summary and the run's
// metrics as one JSON document.
func (t *tracer) write(path string, metrics map[string]float64) error {
	summary := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans   []span               `json:"spans"`
		Self    map[string]layerTime `json:"self_time"`
		Metrics map[string]float64   `json:"metrics"`
	}{t.spans, summary, metrics})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
