package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample. xs is not
// modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first quartile, the median and the third quartile.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	return percentile(xs, 25), percentile(xs, 50), percentile(xs, 75)
}

// slice is one cut of a closed-loop measurement window: the events that
// completed in it and the wall time they took.
type slice struct {
	events int
	wall   time.Duration
}

func (s slice) eventsPerSec() float64 {
	if s.wall <= 0 {
		return 0
	}
	return float64(s.events) / s.wall.Seconds()
}

// slicer cuts a closed-loop window into slices of at least minLen: an
// operation belongs to the slice it completes in, and a slice closes at the
// first operation boundary past minLen (minLen 0: one slice per operation).
// Slicing at operation boundaries keeps every slice's wall time equal to the
// time the operations in it really took.
type slicer struct {
	minLen time.Duration
	start  time.Time
	cur    slice
	done   []slice
}

func newSlicer(minLen time.Duration, start time.Time) *slicer {
	return &slicer{minLen: minLen, start: start}
}

// add records one completed operation ending at now.
func (s *slicer) add(events int, now time.Time) {
	s.cur.events += events
	if d := now.Sub(s.start); d >= s.minLen {
		s.cur.wall = d
		s.done = append(s.done, s.cur)
		s.cur = slice{}
		s.start = now
	}
}

// rates returns the events/s of every closed slice. An unfinished trailing
// slice is dropped: it is shorter than the rest and would bias the median.
func (s *slicer) rates() []float64 {
	out := make([]float64, len(s.done))
	for i, sl := range s.done {
		out[i] = sl.eventsPerSec()
	}
	return out
}

// lateness is how long after its due time an open-loop operation started
// (never negative: an early start is on time).
func lateness(due, started time.Time) time.Duration {
	if d := started.Sub(due); d > 0 {
		return d
	}
	return 0
}

// dueTime is when operation k of an open loop at rate per second is due.
func dueTime(start time.Time, k int, rate float64) time.Time {
	return start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsIn converts durations to multiples of unit.
func durationsIn(unit time.Duration, ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// worseBy is the share of base by which got is worse, given the direction in
// which the metric improves; negative when got is better.
func worseBy(base, got float64, higherIsBetter bool) float64 {
	if base == 0 {
		return 0
	}
	if higherIsBetter {
		return (base - got) / base
	}
	return (got - base) / base
}
