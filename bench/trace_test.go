package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "replay", Start: 0, End: 100, Parent: noSpan},
		{ID: 1, Name: "decode", Start: 10, End: 30, Parent: 0},
		{ID: 2, Name: "feed", Start: 25, End: 60, Parent: 0},   // overlaps decode by 5
		{ID: 3, Name: "close", Start: 90, End: 120, Parent: 0}, // runs 20 past its parent
		{ID: 4, Name: "inner", Start: 30, End: 40, Parent: 2},
	}
	st := selfTimes(spans)
	// Children cover [10,60) and [90,100) of the parent: 60 of 100.
	for id, want := range map[int]int64{0: 40, 1: 20, 2: 25, 3: 30, 4: 10} {
		if st[id] != want {
			t.Errorf("self time of span %d (%s) = %d, want %d", id, spans[id].Name, st[id], want)
		}
	}
	dur, self := totals(spans)
	if dur["feed"] != 35 || self["feed"] != 25 {
		t.Errorf("totals for feed = %d/%d, want 35/25", dur["feed"], self["feed"])
	}
}

func TestTracerNilAndFile(t *testing.T) {
	var off *tracer
	if id := off.begin("x", noSpan, 0); id != noSpan {
		t.Errorf("nil tracer returned span %d", id)
	}
	off.end(noSpan) // must not panic

	tr := newTracer()
	root := tr.begin("session", noSpan, 7)
	child := tr.begin("server.register", root, 7)
	tr.end(child)
	tr.end(root)
	dir := t.TempDir()
	path, err := tr.write(dir, "w", 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f traceFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if f.Workload != "w" || f.Seed != 3 || len(f.Spans) != 2 {
		t.Fatalf("trace file = %+v", f)
	}
	c := f.Spans[1]
	if c.Parent != root || c.Session != 7 || c.End < c.Start || c.Start < f.Spans[0].Start {
		t.Errorf("child span = %+v", c)
	}
}
