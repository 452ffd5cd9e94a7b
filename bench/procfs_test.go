package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	stat := "4242 (dl mond) (x)) S 1 4242 4242 0 -1 4194560 1873 0 0 0 1234 566 0 0 20 0 9 0 8812345 1270000000 3100 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 18 * time.Second; got != want {
		t.Errorf("cpu = %v, want %v (1234+566 ticks)", got, want)
	}
	if _, err := parseStatCPU("no command field"); err == nil {
		t.Error("accepted a stat line without a command")
	}
	if _, err := parseStatCPU("1 (x) S 1 2"); err == nil {
		t.Error("accepted a truncated stat line")
	}
}

func TestParseHostCPU(t *testing.T) {
	stat := "cpu  1027259 0 128521 844958 15200 0 9351 21059 5 7\ncpu0 1 2 3 4 5 6 7 8 9 10\n"
	total, steal, err := parseHostCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(1027259 + 128521 + 844958 + 15200 + 9351 + 21059); total != want || steal != 21059 {
		t.Errorf("total=%d steal=%d, want %d and 21059 (guest columns are not added twice)", total, steal, want)
	}
	if _, _, err := parseHostCPU("intr 1 2 3\n"); err == nil {
		t.Error("accepted a stat text without a cpu line")
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tdlmond\nVmPeak:\t 1234567 kB\nVmHWM:\t   25600 kB\nVmRSS:\t   20000 kB\n"
	kb, err := parseStatusKB(status, "VmHWM")
	if err != nil || kb != 25600 {
		t.Errorf("VmHWM = %d, %v; want 25600", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("found a field that is not there")
	}
}

func TestProcSelf(t *testing.T) {
	cpu, err := procCPU(os.Getpid())
	if err != nil || cpu <= 0 {
		t.Errorf("own cpu = %v, %v", cpu, err)
	}
	rss, err := procPeakRSSMB(os.Getpid())
	if err != nil || rss <= 0 {
		t.Errorf("own peak rss = %v, %v", rss, err)
	}
}

func TestParseMetrics(t *testing.T) {
	page := `# HELP dlmond_checkpoints_total Session checkpoints written.
# TYPE dlmond_checkpoints_total counter
dlmond_checkpoints_total 313
dlmond_automaton_cache_hits_total 744
dlmond_verdict_latency_seconds_bucket{le="0.001"} 12
dlmond_verdict_latency_seconds_sum 0.25

`
	m, err := parseMetrics(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"dlmond_checkpoints_total":                          313,
		"dlmond_automaton_cache_hits_total":                 744,
		`dlmond_verdict_latency_seconds_bucket{le="0.001"}`: 12,
		"dlmond_verdict_latency_seconds_sum":                0.25,
	} {
		if m[name] != want {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
	if _, err := parseMetrics(strings.NewReader("dlmond_x notanumber\n")); err == nil {
		t.Error("accepted a non-numeric sample")
	}
}
