package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by bench code around the
// call. Times are nanoseconds since the tracer started. Parent is the id of
// the enclosing span (-1 for a root); all spans of one session or replay
// share Session.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Session int    `json:"session"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// noSpan is the id begin returns when tracing is off.
const noSpan = -1

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, session int) int {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, End: now, Parent: parent, Session: session})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its direct children cover (overlapping children are merged,
// and clipped to the parent, before subtracting).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// totals sums span durations and self times by name.
func totals(spans []span) (dur, self map[string]int64) {
	dur, self = map[string]int64{}, map[string]int64{}
	st := selfTimes(spans)
	for _, s := range spans {
		dur[s.Name] += s.dur()
		self[s.Name] += st[s.ID]
	}
	return dur, self
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// write stores the spans as bench/out/trace-<workload>.json under root.
func (t *tracer) write(root, workload string, seed int64) (string, error) {
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.snapshot()})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
