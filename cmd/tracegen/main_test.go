package main

import (
	"bytes"
	"fmt"
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

// TestProcessCountCeiling pins what bounds -n and -suffixes: at least one
// process, at most dist.MaxSpace processes and propositions (what a trace
// reader accepts), and at most dist.MaxLocalProps suffixes (what a local
// state holds). Each bound is pinned at the bound and one past it. A value at
// the bound is shown accepted by the exit status alone: the output path is in
// a directory that does not exist, so an accepted configuration fails to open
// it (exit 1) instead of generating thousands of processes.
func TestProcessCountCeiling(t *testing.T) {
	nowhere := filepath.Join(t.TempDir(), "missing", "t.dmtb")
	for _, bad := range []string{"0", "-3"} {
		code, _, stderr := runCLI(t, "-n", bad)
		if code != 2 || !strings.Contains(stderr, "at least 1") {
			t.Errorf("-n %s: exit %d, stderr %q, want 2 and the lower bound", bad, code, stderr)
		}
	}
	many := make([]string, dist.MaxLocalProps+1)
	for i := range many {
		many[i] = fmt.Sprintf("s%d", i)
	}
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-n", fmt.Sprint(dist.MaxSpace), "-suffixes", "p"}, 1, "no such file"},
		{[]string{"-n", fmt.Sprint(dist.MaxSpace + 1), "-suffixes", "p"}, 2, fmt.Sprintf("%d processes (max %d)", dist.MaxSpace+1, dist.MaxSpace)},
		{[]string{"-n", fmt.Sprint(dist.MaxSpace / 2)}, 1, "no such file"},
		{[]string{"-n", fmt.Sprint(dist.MaxSpace/2 + 1)}, 2, fmt.Sprintf("%d propositions (max %d)", dist.MaxSpace+2, dist.MaxSpace)},
		{[]string{"-n", "2", "-suffixes", strings.Join(many[:dist.MaxLocalProps], ",")}, 1, "no such file"},
		{[]string{"-n", "2", "-suffixes", strings.Join(many, ",")}, 2, fmt.Sprintf("%d proposition suffixes", dist.MaxLocalProps+1)},
	} {
		code, _, stderr := runCLI(t, append(c.args, "-o", nowhere)...)
		if code != c.code || !strings.Contains(stderr, c.want) {
			t.Errorf("%v: exit %d, stderr %q, want %d and %q", c.args, code, stderr, c.code, c.want)
		}
	}
}

// TestTwoSuffixesPastThirtyTwo: 48 processes with the default two suffixes
// declare 96 propositions, and -case certifies the trace as generated.
func TestTwoSuffixesPastThirtyTwo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.dmtb")
	code, stdout, stderr := runCLI(t,
		"-n", "48", "-events", "3", "-topo", "ring", "-commmu", "6", "-truep", "0.9",
		"-plant", "-seed", "7", "-o", path, "-case", "D", "-arity", "3")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "support 3 of 48 processes") {
		t.Errorf("stdout %q lacks the certification line", stdout)
	}
	ts, err := dist.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ts.N() != 48 || ts.Props.Len() != 96 {
		t.Errorf("got %d processes / %d props, want 48/96", ts.N(), ts.Props.Len())
	}
}

// TestCaseReadsUndeclaredProposition: D reads q, which a -suffixes p trace
// does not declare; tracegen refuses by name before it writes anything.
func TestCaseReadsUndeclaredProposition(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.dmtb")
	code, _, stderr := runCLI(t, "-n", "4", "-suffixes", "p", "-o", path, "-case", "D", "-arity", "3")
	if code != 2 || !strings.Contains(stderr, `"P0.q" is not declared`) {
		t.Errorf("exit %d, stderr %q, want 2 and the undeclared name", code, stderr)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("refused certification left %s behind (%v)", path, err)
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

// TestOutputFormatFollowsExtension: the output path alone picks the
// encoding — binary at .dmtb, JSON lines anywhere else — and the report
// names it.
func TestOutputFormatFollowsExtension(t *testing.T) {
	dir := t.TempDir()
	for name, want := range map[string]string{"t.dmtb": "DMTB", "T.DMTB": "DMTB", "t.bin": `{"v":1,`, "t": `{"v":1,`} {
		path := filepath.Join(dir, name)
		code, stdout, stderr := runCLI(t, "-n", "3", "-events", "2", "-seed", "9", "-o", path)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", name, code, stderr)
		}
		if codec := dist.CodecForPath(path).Name(); !strings.Contains(stdout, "("+codec+")") {
			t.Errorf("%s: stdout %q does not name the %s codec", name, stdout, codec)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(raw, []byte(want)) {
			t.Errorf("%s: output starts %q, want %q", name, raw[:min(len(raw), 8)], want)
		}
	}
	if code, _, stderr := runCLI(t, "-n", "3", "-format", "dmtb", "-o", filepath.Join(dir, "x.bin")); code != 2 || !strings.Contains(stderr, "-format") {
		t.Errorf("-format: exit %d stderr %q, want an unknown-flag usage error", code, stderr)
	}
}

func TestGeneratedFileRoundTrips(t *testing.T) {
	for _, name := range []string{"t.json", "t.jsonl", "t.dmtb", "t"} {
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

// TestJSONOutputEqualsJSONL: a .json path, a .jsonl path and stdout carry
// the same JSON-lines bytes.
func TestJSONOutputEqualsJSONL(t *testing.T) {
	args := []string{"-n", "4", "-events", "6", "-seed", "3", "-topo", "broadcast"}
	code, stdout, stderr := runCLI(t, args...)
	if code != 0 || stderr != "" {
		t.Fatalf("stdout run: exit %d, stderr %q", code, stderr)
	}
	dir := t.TempDir()
	for _, name := range []string{"t.json", "t.jsonl"} {
		path := filepath.Join(dir, name)
		if code, _, stderr := runCLI(t, append(args, "-o", path)...); code != 0 {
			t.Fatalf("%s: stderr %q", name, stderr)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != stdout {
			t.Errorf("%s differs from the stdout stream", name)
		}
	}
	src, err := dist.OpenStream(strings.NewReader(stdout))
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	for {
		if _, err := src.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		events++
	}
	if events == 0 {
		t.Error("the stdout stream holds no events")
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
		"-plant", "-seed", "7", "-o", out, "-case", "B", "-arity", "3")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "oracle B/3") || !strings.Contains(stdout, "support 3 of 8 processes") || !strings.Contains(stdout, "exact verdict set") {
		t.Errorf("certification line missing: %q", stdout)
	}
	// At full width the oracle walks the whole lattice.
	code, stdout, stderr = runCLI(t,
		"-n", "4", "-events", "3", "-seed", "2", "-o", filepath.Join(dir, "t.jsonl"), "-case", "E")
	if code != 0 {
		t.Fatalf("full-width certify: exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "oracle E/4") || !strings.Contains(stdout, "support 4 of 4 processes") || !strings.Contains(stdout, "exact verdict set") {
		t.Errorf("full-width certification line missing: %q", stdout)
	}
}

// TestOracleFlagValidation: a bad certification flag is a usage error that
// names the flag and is caught before the output is opened, so no file is
// left behind. The oracle-mode flags are gone.
func TestOracleFlagValidation(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-case", "Z"}, `unknown property "Z"`},
		{[]string{"-case", "B", "-arity", "9"}, "-arity"},
		{[]string{"-case", "B", "-arity", "1"}, "-arity"},
		{[]string{"-arity", "2"}, "-arity applies to -case properties"},
		{[]string{"-case", "B", "-oracle", "sliced"}, "-oracle"},
		{[]string{"-case", "B", "-frontier", "16"}, "-frontier"},
	} {
		out := filepath.Join(t.TempDir(), "c.jsonl")
		code, _, stderr := runCLI(t, append([]string{"-n", "3", "-events", "3", "-o", out}, c.args...)...)
		if code != 2 || !strings.Contains(stderr, c.want) {
			t.Errorf("%v: exit %d, stderr %q, want 2 and %q", c.args, code, stderr, c.want)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%v: the output was written before the flags were refused (stat: %v)", c.args, err)
		}
	}
}
