package dist

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"decentmon/internal/vclock"
)

// drain reads every event from a source, failing the test on any error.
func drain(t *testing.T, src EventSource) []*Event {
	t.Helper()
	var out []*Event
	for {
		e, err := src.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	ts := Generate(GenConfig{N: 3, InternalPerProc: 6, CommMu: 3, CommSigma: 1, PlantGoal: true, Seed: 7})
	var buf bytes.Buffer
	if err := ts.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := OpenStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Materialize(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ts, got) {
		t.Fatal("JSONL round trip changed the trace set")
	}
}

func TestSaveLoadJSONLFile(t *testing.T) {
	ts := Generate(GenConfig{N: 2, InternalPerProc: 5, CommMu: 2, CommSigma: 0.5, Seed: 3})
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if err := ts.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ts, got) {
		t.Fatal("jsonl file round trip changed the trace set")
	}
}

func TestStreamYieldsTimestampOrder(t *testing.T) {
	ts := RunningExample()
	var want []float64
	for _, tr := range ts.Traces {
		for _, e := range tr.Events {
			want = append(want, e.Time)
		}
	}
	sort.Float64s(want)

	var buf bytes.Buffer
	if err := ts.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := OpenStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []EventSource{ts.Stream(), tr} {
		events := drain(t, src)
		if len(events) != len(want) {
			t.Fatalf("streamed %d events, want %d", len(events), len(want))
		}
		for i, e := range events {
			if e.Time != want[i] {
				t.Fatalf("event %d at time %v, want %v", i, e.Time, want[i])
			}
		}
	}
}

func TestStreamHeaderBeforeEvents(t *testing.T) {
	ts := RunningExample()
	var buf bytes.Buffer
	if err := ts.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := OpenStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Header facts must be available before any Next call.
	if tr.N() != 2 {
		t.Errorf("N = %d, want 2", tr.N())
	}
	if !reflect.DeepEqual(tr.Props().Names, ts.Props.Names) {
		t.Errorf("props %v, want %v", tr.Props().Names, ts.Props.Names)
	}
	if !reflect.DeepEqual(tr.Init(), ts.InitialState()) {
		t.Errorf("init %v, want %v", tr.Init(), ts.InitialState())
	}
}

func TestStreamEmptyTrace(t *testing.T) {
	// A header with zero events is a legal (empty) execution.
	ts := Generate(GenConfig{N: 2, InternalPerProc: 0, Seed: 1})
	var buf bytes.Buffer
	if err := ts.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := OpenStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if events := drain(t, tr); len(events) != 0 {
		t.Fatalf("empty execution streamed %d events", len(events))
	}
	// And EOF is sticky.
	if _, err := tr.Next(); err != io.EOF {
		t.Errorf("second Next after EOF: %v", err)
	}
}

func TestStreamEmptyFileRejected(t *testing.T) {
	if _, err := OpenStream(strings.NewReader("")); err == nil || !strings.Contains(err.Error(), "missing header") {
		t.Errorf("empty stream accepted: %v", err)
	}
}

func TestStreamTruncatedChunkRejected(t *testing.T) {
	ts := Generate(GenConfig{N: 3, InternalPerProc: 5, CommMu: 2, CommSigma: 1, Seed: 5})
	var buf bytes.Buffer
	if err := ts.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	// Cut the stream mid-line: drop the last 40 bytes, landing inside the
	// final event's JSON.
	cut := buf.Bytes()[:buf.Len()-40]
	tr, err := OpenStream(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	sawErr := false
	for {
		_, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("truncated stream read to a clean EOF")
	}
}

// streamLines renders a trace set and returns the header plus event lines.
func streamLines(t *testing.T, ts *TraceSet) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := ts.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	return lines
}

// reread parses the given stream lines and returns the first error of any
// Next call (nil if the whole stream reads cleanly).
func reread(t *testing.T, lines []string) error {
	t.Helper()
	tr, err := OpenStream(strings.NewReader(strings.Join(lines, "\n") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func TestStreamOutOfOrderTimestampsRejected(t *testing.T) {
	ts := Generate(GenConfig{N: 3, InternalPerProc: 4, CommMu: 2, CommSigma: 1, Seed: 8})
	lines := streamLines(t, ts)
	if len(lines) < 4 {
		t.Fatal("trace too short for the swap")
	}
	// Swapping two adjacent event lines breaks the timestamp order (and
	// possibly SN contiguity — either way the reader must reject it).
	lines[2], lines[3] = lines[3], lines[2]
	if err := reread(t, lines); err == nil {
		t.Fatal("out-of-order stream accepted")
	}
}

func TestStreamRejectsCausalViolations(t *testing.T) {
	ts := RunningExample()
	lines := streamLines(t, ts)
	// Find the recv of message 1 and move it before its send (line 1 is the
	// header; the send of m1 is the first event).
	recvIdx := -1
	for i, l := range lines {
		if strings.Contains(l, `"type":"recv"`) && strings.Contains(l, `"msgid":1`) {
			recvIdx = i
			break
		}
	}
	if recvIdx < 2 {
		t.Fatalf("recv line not found (idx %d)", recvIdx)
	}
	moved := []string{lines[0], lines[recvIdx], lines[1]}
	moved = append(moved, lines[2:recvIdx]...)
	moved = append(moved, lines[recvIdx+1:]...)
	err := reread(t, moved)
	if err == nil {
		t.Fatal("recv-before-send stream accepted")
	}
}

func TestStreamRejectsUnknownProcess(t *testing.T) {
	ts := RunningExample()
	lines := streamLines(t, ts)
	lines[1] = strings.Replace(lines[1], `"proc":0`, `"proc":7`, 1)
	if err := reread(t, lines); err == nil || !strings.Contains(err.Error(), "nonexistent process") {
		t.Errorf("event of unknown process accepted: %v", err)
	}
}

func TestStreamFileDispatch(t *testing.T) {
	ts := Generate(GenConfig{N: 2, InternalPerProc: 4, CommMu: 2, Seed: 2})
	dir := t.TempDir()
	for _, name := range []string{"t.json", "t.jsonl"} {
		path := filepath.Join(dir, name)
		if err := ts.SaveFile(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		src, err := StreamFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		events := drain(t, src)
		if len(events) != ts.TotalEvents() {
			t.Errorf("%s: streamed %d events, want %d", name, len(events), ts.TotalEvents())
		}
		if err := src.Close(); err != nil {
			t.Errorf("%s: close: %v", name, err)
		}
	}
}

func TestStreamWriterCountsEvents(t *testing.T) {
	cfg := GenConfig{N: 3, InternalPerProc: 10, CommMu: 3, CommSigma: 1, Seed: 6}
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, cfg.Props(), cfg.InitState())
	if err != nil {
		t.Fatal(err)
	}
	if err := GenerateStream(cfg, sw.Write); err != nil {
		t.Fatal(err)
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	want := Generate(cfg).TotalEvents()
	if sw.Events() != want {
		t.Errorf("writer counted %d events, materialized set has %d", sw.Events(), want)
	}
	tr, err := OpenStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(drain(t, tr)); got != want {
		t.Errorf("stream carries %d events, want %d", got, want)
	}
}

func TestStreamRejectsReusedMessageID(t *testing.T) {
	// Two ping-pong messages that reuse message id 1: the materialized
	// validator rejects this, and the streaming validator must agree even
	// though the id is no longer in flight the second time.
	ts := RunningExample()
	lines := streamLines(t, ts)
	for i, l := range lines[1:] {
		lines[i+1] = strings.Replace(l, `"msgid":2`, `"msgid":1`, 1)
	}
	err := reread(t, lines)
	if err == nil || !strings.Contains(err.Error(), "reuses message id") {
		t.Errorf("reused message id accepted: %v", err)
	}
}

func TestIntervalSet(t *testing.T) {
	var s intervalSet
	for _, x := range []int{5, 1, 3, 2, 4, 10, 8, 9} {
		if s.contains(x) {
			t.Fatalf("%d present before add (set %v)", x, s)
		}
		s.add(x)
		if !s.contains(x) {
			t.Fatalf("%d absent after add (set %v)", x, s)
		}
	}
	// 1..5 and 8..10 must have collapsed to two ranges.
	if len(s) != 2 {
		t.Errorf("set %v, want two ranges", s)
	}
	for _, x := range []int{0, 6, 7, 11} {
		if s.contains(x) {
			t.Errorf("%d spuriously present in %v", x, s)
		}
	}
}

func TestWriteRejectsNonLinearizableSet(t *testing.T) {
	// Causally consistent but with the recv stamped before its send:
	// Validate accepts it, yet no timestamp order can linearize it, so the
	// writers must refuse rather than emit a stream every reader rejects.
	pm := NewPropMap()
	pm.MustAdd("a", 0)
	pm.MustAdd("b", 1)
	ts := &TraceSet{Props: pm, Traces: []*Trace{
		{Proc: 0, Events: []*Event{
			{Proc: 0, SN: 1, Type: Send, Peer: 1, MsgID: 1, VC: vclock.VC{1, 0}, Time: 5},
		}},
		{Proc: 1, Events: []*Event{
			{Proc: 1, SN: 1, Type: Recv, Peer: 0, MsgID: 1, VC: vclock.VC{1, 1}, Time: 2},
		}},
	}}
	if err := ts.Validate(); err != nil {
		t.Fatalf("set unexpectedly invalid: %v", err)
	}
	var buf bytes.Buffer
	if err := ts.WriteJSONL(&buf); err == nil || !strings.Contains(err.Error(), "not a linearization") {
		t.Errorf("WriteJSONL accepted a non-linearizable set: %v", err)
	}
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if err := ts.SaveFile(path); err == nil {
		t.Error("SaveFile wrote a non-linearizable .jsonl")
	}
	if _, statErr := os.Stat(path); statErr == nil {
		t.Error("SaveFile left a file behind after refusing the set")
	}
}
