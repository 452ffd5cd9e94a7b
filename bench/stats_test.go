package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {25, 17.5}, {50, 25}, {75, 32.5}, {100, 40}, {99, 39.7},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v", got)
	}
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 2 || q2 != 3 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 2 3 4", q1, q2, q3)
	}
}

// The median slice must ignore one slow slice, and a slice's wall time is
// the time its operations took, not the nominal slice length.
func TestSlicerMedianSlice(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	s := newSlicer(time.Second, t0)
	s.add(500, at(600))   // slice 1 still open
	s.add(500, at(1250))  // closes slice 1: 1000 events in 1.25 s
	s.add(4000, at(2250)) // slice 2: 4000 events in 1 s
	s.add(100, at(2500))  // slice 3 open
	s.add(100, at(4250))  // closes slice 3: 200 events in 2 s (a stall)
	s.add(999, at(4300))  // trailing, unfinished: dropped
	got := s.rates()
	want := []float64{800, 4000, 100}
	if len(got) != len(want) {
		t.Fatalf("rates = %v, want %v", got, want)
	}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Errorf("slice %d = %v events/s, want %v", i, got[i], want[i])
		}
	}
	if m := median(got); !near(m, 800) {
		t.Errorf("median slice = %v, want 800", m)
	}
}

func TestSlicerPerOperation(t *testing.T) {
	t0 := time.Unix(0, 0)
	s := newSlicer(0, t0)
	s.add(100, t0.Add(time.Second))
	s.add(100, t0.Add(1500*time.Millisecond))
	got := s.rates()
	if len(got) != 2 || !near(got[0], 100) || !near(got[1], 200) {
		t.Errorf("per-operation slices = %v, want [100 200]", got)
	}
}

// Open-loop sessions are timed from when they were due, so a stall charges
// the sessions queued behind it.
func TestOpenLoopLateness(t *testing.T) {
	start := time.Unix(100, 0)
	if got := dueTime(start, 250, 100); !got.Equal(start.Add(2500 * time.Millisecond)) {
		t.Errorf("session 250 at 100/s due at %v", got.Sub(start))
	}
	due := dueTime(start, 3, 100)
	if got := lateness(due, due.Add(7*time.Millisecond)); got != 7*time.Millisecond {
		t.Errorf("lateness = %v, want 7ms", got)
	}
	if got := lateness(due, due.Add(-time.Millisecond)); got != 0 {
		t.Errorf("an early start is %v late, want 0", got)
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 90, true); !near(got, 0.1) {
		t.Errorf("throughput 100→90 worse by %v, want 0.1", got)
	}
	if got := worseBy(100, 90, false); !near(got, -0.1) {
		t.Errorf("latency 100→90 worse by %v, want -0.1", got)
	}
	if got := worseBy(0, 5, false); got != 0 {
		t.Errorf("zero base gives %v, want 0", got)
	}
}
