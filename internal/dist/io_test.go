package dist

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSaveLoadFile(t *testing.T) {
	ts := Generate(GenConfig{N: 2, InternalPerProc: 5, CommMu: 2, CommSigma: 0.5, Seed: 3})
	dir := t.TempDir()
	// ".json" and ".gob" are extensions like any other but ".dmtb": they get
	// JSON lines.
	for _, name := range []string{"t.json", "t.gob"} {
		path := filepath.Join(dir, name)
		if err := ts.SaveFile(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if raw, err := os.ReadFile(path); err != nil || !bytes.HasPrefix(raw, []byte(`{"v":1,`)) {
			t.Fatalf("%s: not a JSON-lines stream (%v)", name, err)
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

// TestLoadRefusesMaterializedJSON: a trace set written as one JSON object
// (props plus per-process event arrays) is not a stream. The reader must
// refuse it by its missing version, never misread its props as a header.
func TestLoadRefusesMaterializedJSON(t *testing.T) {
	const materialized = `{
  "props": [{"name": "P0.p", "owner": 0}, {"name": "P1.p", "owner": 1}],
  "traces": [
    {"proc": 0, "init": 0, "events": [
      {"sn": 1, "type": "internal", "peer": -1, "msgid": 0, "state": 1, "vc": [1, 0], "time": 1}]},
    {"proc": 1, "init": 0, "events": []}
  ]
}
`
	path := filepath.Join(t.TempDir(), "t.json")
	if err := os.WriteFile(path, []byte(materialized), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil || !strings.Contains(err.Error(), `no version (want "v":1)`) {
		t.Errorf("materialized JSON: %v, want the missing-version error", err)
	}
}

func TestLoadRejectsInvalidComputation(t *testing.T) {
	// Break the send/recv pairing in the written stream: the recv of m1 now
	// names message 99.
	lines := streamLines(t, RunningExample())
	for i, l := range lines {
		if strings.Contains(l, `"type":"recv"`) && strings.Contains(l, `"msgid":1,`) {
			lines[i] = strings.Replace(l, `"msgid":1,`, `"msgid":99,`, 1)
			break
		}
	}
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil || !strings.Contains(err.Error(), "never sent") {
		t.Errorf("unmatched recv loaded without error: %v", err)
	}
}

func TestJSONFormatShape(t *testing.T) {
	var buf bytes.Buffer
	if err := RunningExample().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`{"v":1,"props":[`, `"x1>=5"`, `"init":[`, `"type":"send"`, `"vc":[`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON-lines output missing %s", want)
		}
	}
}
