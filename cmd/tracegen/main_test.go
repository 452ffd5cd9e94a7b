package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"decentmon/internal/dist"
)

// runCLI invokes the command body and returns (exit code, stdout, stderr).
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestProcessCountCeiling(t *testing.T) {
	for _, bad := range []string{"0", "-3", "33", "100"} {
		code, _, stderr := runCLI(t, "-n", bad)
		if code != 2 {
			t.Errorf("-n %s: exit %d, want 2", bad, code)
		}
		if !strings.Contains(stderr, "between 1 and 32") || !strings.Contains(stderr, "32-process ceiling") {
			t.Errorf("-n %s: error %q does not name the 32-process ceiling", bad, stderr)
		}
	}
}

func TestProcessCountNeedsFewerSuffixes(t *testing.T) {
	// 20 processes are legal, but not with the default two propositions.
	code, _, stderr := runCLI(t, "-n", "20", "-o", filepath.Join(t.TempDir(), "t.json"))
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "-suffixes") {
		t.Errorf("error %q does not point at -suffixes", stderr)
	}
}

func TestMaxProcessesSingleSuffix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	code, stdout, stderr := runCLI(t,
		"-n", "32", "-suffixes", "p", "-events", "3", "-topo", "ring", "-o", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "32 processes") {
		t.Errorf("stdout %q does not report 32 processes", stdout)
	}
	ts, err := dist.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ts.N() != 32 || ts.Props.Len() != 32 {
		t.Errorf("got %d processes / %d props, want 32/32", ts.N(), ts.Props.Len())
	}
}

func TestUnknownTopologyRejected(t *testing.T) {
	code, _, stderr := runCLI(t, "-n", "3", "-topo", "mesh")
	if code != 2 || !strings.Contains(stderr, "unknown topology") {
		t.Errorf("exit %d stderr %q, want topology error", code, stderr)
	}
}

func TestFormatFlag(t *testing.T) {
	dir := t.TempDir()
	// -format forces a codec on an unrecognized extension.
	binPath := filepath.Join(dir, "t.bin")
	code, stdout, stderr := runCLI(t,
		"-n", "3", "-events", "5", "-seed", "9", "-format", "dmtb", "-o", binPath)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "(dmtb)") {
		t.Errorf("stdout %q does not name the codec", stdout)
	}
	// The .bin extension is not self-describing, so open with the codec.
	codec, err := dist.CodecByName("dmtb")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(binPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src, err := codec.Open(f)
	if err != nil {
		t.Fatalf("opening forced-format output: %v", err)
	}
	events := 0
	for {
		if _, err := src.Next(); err != nil {
			if err != io.EOF {
				t.Fatal(err)
			}
			break
		}
		events++
	}
	if events == 0 {
		t.Error("forced-format output holds no events")
	}

	// A matching extension is fine; a contradicting one is rejected.
	if code, _, _ := runCLI(t, "-n", "3", "-events", "2", "-format", "jsonl", "-o", filepath.Join(dir, "t.jsonl")); code != 0 {
		t.Errorf("matching -format rejected: exit %d", code)
	}
	if code, _, stderr := runCLI(t, "-n", "3", "-events", "2", "-format", "dmtb", "-o", filepath.Join(dir, "u.jsonl")); code != 2 || !strings.Contains(stderr, "contradicts") {
		t.Errorf("contradicting -format accepted: exit %d stderr %q", code, stderr)
	}
	// So is the materialized extension: readers dispatch by extension, so
	// stream bytes under .json would be unreadable.
	if code, _, stderr := runCLI(t, "-n", "3", "-events", "2", "-format", "dmtb", "-o", filepath.Join(dir, "u.json")); code != 2 || !strings.Contains(stderr, "contradicts") {
		t.Errorf("-format onto the materialized extension accepted: exit %d stderr %q", code, stderr)
	}
	// Unknown codec and missing -o are usage errors.
	if code, _, stderr := runCLI(t, "-n", "3", "-format", "protobuf", "-o", filepath.Join(dir, "x.bin")); code != 2 || !strings.Contains(stderr, "unknown codec") {
		t.Errorf("unknown -format: exit %d stderr %q", code, stderr)
	}
	if code, _, stderr := runCLI(t, "-n", "3", "-format", "dmtb"); code != 2 || !strings.Contains(stderr, "-o") {
		t.Errorf("-format without -o: exit %d stderr %q", code, stderr)
	}
}

func TestGeneratedFileRoundTrips(t *testing.T) {
	for _, name := range []string{"t.json", "t.jsonl", "t.dmtb"} {
		path := filepath.Join(t.TempDir(), name)
		code, _, stderr := runCLI(t,
			"-n", "3", "-events", "5", "-seed", "9", "-topo", "star", "-o", path)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", name, code, stderr)
		}
		ts, err := dist.LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := ts.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestStreamedEqualsMaterializedOutput(t *testing.T) {
	dir := t.TempDir()
	jsonPath, jsonlPath := filepath.Join(dir, "t.json"), filepath.Join(dir, "t.jsonl")
	for _, path := range []string{jsonPath, jsonlPath} {
		if code, _, stderr := runCLI(t,
			"-n", "4", "-events", "6", "-seed", "3", "-topo", "broadcast", "-o", path); code != 0 {
			t.Fatalf("%s: stderr %q", path, stderr)
		}
	}
	a, err := dist.LoadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dist.LoadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalEvents() != b.TotalEvents() || a.N() != b.N() {
		t.Fatalf("materialized %d events / %d procs, streamed %d / %d",
			a.TotalEvents(), a.N(), b.TotalEvents(), b.N())
	}
	for p := range a.Traces {
		for k, ea := range a.Traces[p].Events {
			eb := b.Traces[p].Events[k]
			if ea.Type != eb.Type || ea.State != eb.State || ea.Time != eb.Time || ea.MsgID != eb.MsgID {
				t.Fatalf("process %d event %d differs: %+v vs %+v", p, k+1, ea, eb)
			}
		}
	}
}

func TestHelpExitsZero(t *testing.T) {
	code, _, stderr := runCLI(t, "-h")
	if code != 0 {
		t.Errorf("-h exited %d, want 0", code)
	}
	if !strings.Contains(stderr, "Usage") {
		t.Errorf("-h printed no usage: %q", stderr)
	}
}

func TestDuplicateSuffixesRejected(t *testing.T) {
	code, _, stderr := runCLI(t, "-n", "3", "-suffixes", "p,p")
	if code != 2 || !strings.Contains(stderr, "duplicate proposition suffix") {
		t.Errorf("exit %d stderr %q, want duplicate-suffix error", code, stderr)
	}
}

func TestOracleCertification(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "t.json")
	code, stdout, stderr := runCLI(t,
		"-n", "8", "-events", "4", "-topo", "ring", "-commmu", "6", "-truep", "0.9",
		"-plant", "-seed", "7", "-o", out, "-case", "B", "-arity", "3", "-oracle", "sliced")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "oracle sliced B/3") || !strings.Contains(stdout, "exact verdict set") {
		t.Errorf("certification line missing: %q", stdout)
	}
	// The streamed path re-generates deterministically and certifies too.
	code, stdout, stderr = runCLI(t,
		"-n", "4", "-events", "3", "-seed", "2", "-o", filepath.Join(dir, "t.jsonl"),
		"-case", "E", "-oracle", "sampling", "-frontier", "16")
	if code != 0 {
		t.Fatalf("streamed certify: exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "oracle sampling E/4") || !strings.Contains(stdout, "sound subset") {
		t.Errorf("streamed certification line missing: %q", stdout)
	}
}

func TestOracleFlagValidation(t *testing.T) {
	if code, _, stderr := runCLI(t, "-n", "3", "-oracle", "sliced"); code != 2 || !strings.Contains(stderr, "-case") {
		t.Errorf("-oracle without -case: exit %d, stderr %q", code, stderr)
	}
	if code, _, stderr := runCLI(t, "-n", "3", "-case", "B", "-oracle", "nope"); code != 2 || !strings.Contains(stderr, "unknown oracle mode") {
		t.Errorf("bad mode: exit %d, stderr %q", code, stderr)
	}
	if code, _, stderr := runCLI(t, "-n", "3", "-case", "B", "-arity", "9", "-oracle", "exact"); code != 2 || !strings.Contains(stderr, "-arity") {
		t.Errorf("bad arity: exit %d, stderr %q", code, stderr)
	}
}
