package main

import (
	"testing"
	"time"
)

// The last event contributing to a verdict is the latest-sent event on the
// frontier of the verdict's cut, not the latest event sent overall.
func TestContributingEvent(t *testing.T) {
	// Send order: p0#1 p1#1 p2#1 p0#2 p1#2 p2#2 p0#3.
	sendIndex := [][]int{{0, 3, 6}, {1, 4}, {2, 5}}
	for _, c := range []struct {
		cut  []int
		want int
	}{
		{[]int{1, 2, 1}, 4},  // frontier p0#1(0) p1#2(4) p2#1(2)
		{[]int{3, 0, 0}, 6},  // processes at 0 contribute nothing
		{[]int{2, 1, 2}, 5},  // frontier 3, 1, 5
		{[]int{0, 0, 0}, -1}, // the initial cut: no event
		{nil, -1},            // a verdict that names no cut
		{[]int{9, 1, 0}, 1},  // out-of-range entries are skipped
		{[]int{1, 1, 1, 4}, 2},
	} {
		if got := contributing(sendIndex, c.cut); got != c.want {
			t.Errorf("contributing(%v) = %d, want %d", c.cut, got, c.want)
		}
	}
}

func TestLastSentBefore(t *testing.T) {
	t0 := time.Unix(0, 0)
	sent := []time.Time{t0, t0.Add(time.Millisecond), t0.Add(3 * time.Millisecond)}
	if got := lastSentBefore(sent, t0.Add(2*time.Millisecond)); got != 1 {
		t.Errorf("got %d, want 1", got)
	}
	if got := lastSentBefore(sent, t0.Add(-time.Millisecond)); got != -1 {
		t.Errorf("got %d, want -1", got)
	}
	if got := lastSentBefore(sent, t0.Add(time.Hour)); got != 2 {
		t.Errorf("got %d, want 2", got)
	}
}

func TestParseAnnouncement(t *testing.T) {
	var rpc, metrics string
	for _, line := range []string{
		"dlmond: rpc on 127.0.0.1:40123",
		"dlmond: metrics on http://127.0.0.1:40124/metrics",
		"dlmond: durable state in /x (0 sessions recovered)",
	} {
		parseAnnouncement(line, &rpc, &metrics)
	}
	if rpc != "127.0.0.1:40123" || metrics != "127.0.0.1:40124" {
		t.Errorf("rpc=%q metrics=%q", rpc, metrics)
	}
}

// A session past a service limit is slow, not failed: it stays in the latency
// median and out of the failure count, which only errors and wrong verdict
// sets may raise.
func TestSlowSessionIsNotFailed(t *testing.T) {
	if missedLimit(lateLimit, verdictLimit) {
		t.Error("a session exactly at both limits missed one")
	}
	if !missedLimit(lateLimit+1, 0) || !missedLimit(0, verdictLimit+1) {
		t.Error("a session past a limit did not miss it")
	}
	win := &window{ops: []op{
		{dur: 4 * time.Millisecond},
		{dur: 3 * time.Second, late: 2 * time.Second, slow: true},
		{dur: 6 * time.Millisecond},
		{dur: time.Millisecond, failed: true, why: "session 3: register: refused"},
	}}
	if failed, mismatched := win.failed(); failed != 1 || mismatched != 0 {
		t.Errorf("failed=%d mismatched=%d, want 1 and 0", failed, mismatched)
	}
	if got := win.slow(); got != 1 {
		t.Errorf("slow=%d, want 1", got)
	}
	if got := win.typical(sessionMs); !near(got, 6) {
		t.Errorf("median session of the slow and the two quick ones = %v ms, want 6", got)
	}
}
