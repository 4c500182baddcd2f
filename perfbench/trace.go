package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. ID identifies the request, query or search the span
// belongs to; Parent indexes the span that caused it (-1 for a root).
type span struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // conflint:guardedby mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, id int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, StartNS: now})
	return len(t.spans) - 1
}

// spanID returns the ID of span i (-1 when i is not a span).
func (t *tracer) spanID(i int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i < 0 || i >= len(t.spans) {
		return -1
	}
	return t.spans[i].ID
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].EndNS = now
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover, in nanoseconds, indexed like spans.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered := int64(0)
		reach := s.StartNS // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := max(spans[k].StartNS, reach), min(spans[k].EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.EndNS - s.StartNS - covered
	}
	return self
}

// selfSummary aggregates self time per span name.
type selfSummary struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	P50MS   float64 `json:"p50_ms"`
}

func summarizeSelf(spans []span) map[string]selfSummary {
	self := selfTimes(spans)
	byName := make(map[string][]float64)
	for i, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(self[i])/1e6)
	}
	out := make(map[string]selfSummary, len(byName))
	for name, xs := range byName {
		out[name] = selfSummary{Count: len(xs), TotalMS: sum(xs), P50MS: median(xs)}
	}
	return out
}

// writeSpans writes the spans, their self-time summary and the run
// record to path.
func writeSpans(path string, rec map[string]any, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{
		"record": rec,
		"self":   summarizeSelf(spans),
		"spans":  spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
