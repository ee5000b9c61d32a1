package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around its own calls into the program. Start and End are
// nanoseconds since the run began; Parent is 0 for a root span. Spans of
// one HTTP request share Request.
type span struct {
	ID      int64          `json:"id"`
	Parent  int64          `json:"parent,omitempty"`
	Name    string         `json:"name"`
	Start   int64          `json:"start_ns"`
	End     int64          `json:"end_ns"`
	Request string         `json:"request,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	next   int64
	spans  []span
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

// record stores a finished span and returns its ID.
func (t *tracer) record(parent int64, name string, start, end time.Time, request string, attrs map[string]any) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{
		ID: t.next, Parent: parent, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
		Request: request, Attrs: attrs,
	})
	return t.next
}

// reserve allocates a span ID before the span ends, so children recorded
// while it is open can name it as their parent; finish completes it.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) finish(id, parent int64, name string, start, end time.Time, request string, attrs map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
		Request: request, Attrs: attrs,
	})
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(parent int64, name string, fn func(id int64) error) (time.Duration, error) {
	id := t.reserve()
	start := time.Now()
	err := fn(id)
	end := time.Now()
	var attrs map[string]any
	if err != nil {
		attrs = map[string]any{"error": err.Error()}
	}
	t.finish(id, parent, name, start, end, "", attrs)
	return end.Sub(start), err
}

// selfTime returns, per span name, the summed duration minus the part of
// each span's interval its direct children cover.
func selfTime(spans []span) map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		covered := coveredNs(s, children[s.ID])
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// coveredNs is the length of the union of the children's intervals clipped
// to the parent's interval.
func coveredNs(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// traceFile is what a traced run writes when it ends.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	SelfNs   map[string]int64   `json:"self_ns"`
	Metrics  map[string]summary `json:"metrics"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(path, workload string, seed uint64, metrics map[string]summary) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := map[string]int64{}
	for name, d := range selfTime(spans) {
		self[name] = d.Nanoseconds()
	}
	data, err := json.MarshalIndent(traceFile{
		Workload: workload, Seed: seed, SelfNs: self, Metrics: metrics, Spans: spans,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
