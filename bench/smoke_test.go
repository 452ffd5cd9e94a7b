package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

func smokeOptions(t *testing.T) options {
	return options{root: t.TempDir(), seed: 2015, seconds: 0.3, smoke: true, trace: -1}
}

func checkMetrics(t *testing.T, res *result, defs []metricDef, nonZero bool) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("printed %d metrics, contract has %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		}
		if nonZero && m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v; it must never be 0", d.name, m.Value)
		}
	}
}

// Every workload's whole code path — set-up, correctness gate, untraced run,
// traced run, ledger, span file — on tiny inputs and an in-process dlmond.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // nothing here asserts a time
			o := smokeOptions(t)
			res, err := runWorkload(context.Background(), o, w, false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("untraced run incorrect: %+v", res)
			}
			// A loaded test machine makes open-loop sessions slow, never
			// failed: every workload must finish without failures.
			if res.Failed != 0 {
				t.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
			}
			checkMetrics(t, res, endToEnd, true)

			res, err = runWorkload(context.Background(), o, w, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("traced run incorrect: %+v", res)
			}
			checkMetrics(t, res, perLayer, false)
			if _, err := os.Stat(filepath.Join(o.root, "bench", "out", "trace-"+w.name+".json")); err != nil {
				t.Errorf("no span file: %v", err)
			}
			if left, _ := filepath.Glob(filepath.Join(buildDir(o.root), "state-*")); len(left) != 0 {
				t.Errorf("dlmond state directories left behind: %v", left)
			}
		})
	}
}

// A deliberately wrong reference must raise the failed count and make the
// run incorrect (the command then exits non-zero), and must still clean up.
func TestCorruptReferenceFails(t *testing.T) {
	corruptReference = true
	defer func() { corruptReference = false }()
	t.Run("workloads", func(t *testing.T) { // returns once its parallel subtests have
		for _, w := range workloads {
			t.Run(w.name, func(t *testing.T) {
				t.Parallel()
				corruptedRun(t, w)
			})
		}
	})
	ok, err := run(context.Background(), options{root: t.TempDir(), workload: "replay-short", seed: 1, seconds: 0.2, smoke: true, trace: 0})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("run reported success with a wrong reference; the command would exit 0")
	}
}

func corruptedRun(t *testing.T, w *workload) {
	o := smokeOptions(t)
	res, err := runWorkload(context.Background(), o, w, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("wrong reference went unnoticed: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
	if left, _ := filepath.Glob(filepath.Join(buildDir(o.root), "state-*")); len(left) != 0 {
		t.Errorf("dlmond state directories left behind: %v", left)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	w := workloadByName("serve-detect")
	a, err := buildInputs(w, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildInputs(w, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildInputs(w, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.hash != b.hash {
		t.Errorf("seed 7 hashed %x then %x", a.hash, b.hash)
	}
	if a.hash == c.hash {
		t.Errorf("seeds 7 and 8 gave the same inputs (%x)", a.hash)
	}
	stream, steady := workloadByName("serve-stream"), workloadByName("stream-steady")
	if genSeed(7, stream, 0) != genSeed(7, steady, 0) {
		t.Error("serve-stream and stream-steady must replay the same trace")
	}
}

// A dlmond that exits early, or never announces an address, fails the run
// with its stderr attached instead of hanging.
func TestDaemonStartFailures(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(buildDir(root), 0o755); err != nil {
		t.Fatal(err)
	}
	script := func(name, body string) string {
		path := filepath.Join(root, name)
		if err := os.WriteFile(path, []byte("#!/bin/sh\n"+body+"\n"), 0o755); err != nil {
			t.Fatal(err)
		}
		return path
	}
	_, err := spawnDlmond(script("dies", "echo boom >&2; exit 3"), root, true)
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "exited before announcing") {
		t.Errorf("early exit reported as: %v", err)
	}
	if left, _ := filepath.Glob(filepath.Join(buildDir(root), "state-*")); len(left) != 0 {
		t.Errorf("state directory left behind: %v", left)
	}
	d, err := spawnDlmond(script("serves", `echo "dlmond: rpc on 127.0.0.1:1"; echo "dlmond: metrics on http://127.0.0.1:2/metrics"; exec sleep 60`), root, false)
	if err != nil {
		t.Fatal(err)
	}
	if d.rpcAddr() != "127.0.0.1:1" || d.metricsAddr() != "127.0.0.1:2" {
		t.Errorf("addresses %q %q", d.rpcAddr(), d.metricsAddr())
	}
	if err := d.stop(); err != nil {
		t.Errorf("stop: %v", err)
	}
	if err := d.cmd.Process.Signal(syscall.Signal(0)); err == nil {
		t.Error("process still signalable after stop")
	}
}
