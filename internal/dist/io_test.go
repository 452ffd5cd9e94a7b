package dist

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	ts := Generate(GenConfig{N: 3, InternalPerProc: 6, CommMu: 3, CommSigma: 1, PlantGoal: true, Seed: 7})
	var buf bytes.Buffer
	if err := ts.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ts, got) {
		t.Fatal("JSON round trip changed the trace set")
	}
}

func TestSaveLoadFile(t *testing.T) {
	ts := Generate(GenConfig{N: 2, InternalPerProc: 5, CommMu: 2, CommSigma: 0.5, Seed: 3})
	dir := t.TempDir()
	// ".gob" was a format once; now it is an extension like any other no
	// codec claims, and gets the JSON trace format.
	for _, name := range []string{"t.json", "t.gob"} {
		path := filepath.Join(dir, name)
		if err := ts.SaveFile(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if raw, err := os.ReadFile(path); err != nil || !bytes.HasPrefix(raw, []byte("{")) {
			t.Fatalf("%s: not the JSON trace format (%v)", name, err)
		}
		got, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(ts, got) {
			t.Fatalf("%s: round trip changed the trace set", name)
		}
	}
}

func TestLoadFileErrors(t *testing.T) {
	if _, err := LoadFile("/nonexistent/trace.json"); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bad); err == nil {
		t.Error("garbage JSON accepted")
	}
}

func TestLoadRejectsInvalidComputation(t *testing.T) {
	ts := RunningExample()
	// Break the send/recv pairing: the recv of m1 now names message 99.
	ts.Traces[1].Events[0].MsgID = 99
	var buf bytes.Buffer
	if err := ts.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJSON(&buf); err == nil || !strings.Contains(err.Error(), "never sent") {
		t.Errorf("unmatched recv loaded without error: %v", err)
	}
}

func TestJSONFormatShape(t *testing.T) {
	var buf bytes.Buffer
	if err := RunningExample().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"props"`, `"traces"`, `"x1>=5"`, `"type": "send"`, `"vc"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON output missing %s", want)
		}
	}
}
