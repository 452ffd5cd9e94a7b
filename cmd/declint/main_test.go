package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestVersionProbe(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-V=full"}, &out, &errb); code != 0 {
		t.Fatalf("-V=full exit %d", code)
	}
	got := out.String()
	if !strings.HasPrefix(got, "declint version devel buildID=") {
		t.Errorf("-V=full output %q lacks the buildID form the go command parses", got)
	}
}

func TestFlagsProbe(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-flags"}, &out, &errb); code != 0 {
		t.Fatalf("-flags exit %d", code)
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Errorf("-flags output %q, want []", out.String())
	}
}

func TestDocMode(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-doc"}, &out, &errb); code != 0 {
		t.Fatalf("-doc exit %d", code)
	}
	for _, name := range []string{"blockingsend", "clockalias", "floormonotone", "propmask", "facadeexport"} {
		if !strings.Contains(out.String(), name+":") {
			t.Errorf("-doc output missing analyzer %s", name)
		}
	}
}

func TestLocalCleanPackage(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-govet=false", "-json", "decentmon/internal/vclock"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var diags []map[string]interface{}
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("-json output not JSON: %v\n%s", err, out.String())
	}
	if len(diags) != 0 {
		t.Errorf("vclock should be clean, got %v", diags)
	}
}

func TestLocalFindings(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "analysis", "checkers", "propmask", "testdata", "src", "a")
	var out, errb bytes.Buffer
	code := run([]string{"-govet=false", "-dir", fixture, "."}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (fixture has deliberate findings); stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "propmask:") {
		t.Errorf("findings output missing propmask diagnostics: %s", errb.String())
	}
}

func TestLocalBadPattern(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-govet=false", "decentmon/internal/nope"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2 for unloadable pattern", code)
	}
}

// TestVettoolUnit drives the unit-checker protocol in-process with a .cfg
// built from go list export data, the same inputs go vet would hand us.
func TestVettoolUnit(t *testing.T) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Export,Dir,GoFiles", "decentmon/internal/vclock")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	packageFile := map[string]string{}
	var vcDir string
	var vcFiles []string
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p struct {
			ImportPath string
			Export     string
			Dir        string
			GoFiles    []string
		}
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		if p.Export != "" {
			packageFile[p.ImportPath] = p.Export
		}
		if p.ImportPath == "decentmon/internal/vclock" {
			vcDir = p.Dir
			for _, f := range p.GoFiles {
				vcFiles = append(vcFiles, filepath.Join(p.Dir, f))
			}
		}
	}
	tmp := t.TempDir()
	vetx := filepath.Join(tmp, "vclock.vetx")
	cfg := map[string]interface{}{
		"ID":          "decentmon/internal/vclock",
		"Compiler":    "gc",
		"Dir":         vcDir,
		"ImportPath":  "decentmon/internal/vclock",
		"GoFiles":     vcFiles,
		"ImportMap":   map[string]string{},
		"PackageFile": packageFile,
		"VetxOnly":    false,
		"VetxOutput":  vetx,
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(tmp, "vet.cfg")
	if err := os.WriteFile(cfgPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{cfgPath}, &stdout, &stderr); code != 0 {
		t.Fatalf("vettool run exit %d, stderr: %s", code, stderr.String())
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("facts file not written: %v", err)
	}

	// A VetxOnly visit must write facts and do nothing else.
	cfg["VetxOnly"] = true
	cfg["VetxOutput"] = filepath.Join(tmp, "dep.vetx")
	data, _ = json.Marshal(cfg)
	if err := os.WriteFile(cfgPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{cfgPath}, &stdout, &stderr); code != 0 {
		t.Fatalf("VetxOnly run exit %d", code)
	}

	// Test-variant units are out of scope and must be skipped cleanly.
	cfg["VetxOnly"] = false
	cfg["ID"] = "decentmon/internal/vclock [decentmon/internal/vclock.test]"
	data, _ = json.Marshal(cfg)
	if err := os.WriteFile(cfgPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{cfgPath}, &stdout, &stderr); code != 0 {
		t.Fatalf("test-variant run exit %d, want 0 (skipped)", code)
	}
}

func TestVettoolBadConfig(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{filepath.Join(t.TempDir(), "missing.cfg")}, &stdout, &stderr); code != 2 {
		t.Fatalf("missing cfg exit %d, want 2", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.cfg")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{bad}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad cfg exit %d, want 2", code)
	}
}
