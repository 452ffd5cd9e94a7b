package dist

import (
	"bytes"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// codecs lists both codecs, for tests that run each through one contract.
var codecs = []Codec{jsonlCodec{}, binaryCodec{}}

func TestCodecRegistry(t *testing.T) {
	for path, want := range map[string]string{
		"t.dmtb": "dmtb", "T.DMTB": "dmtb", "dir.dmtb/t.Dmtb": "dmtb",
		"t.jsonl": "jsonl", "t.json": "jsonl", "t": "jsonl", "t.txt": "jsonl", "t.dmtb.bak": "jsonl",
	} {
		if got := CodecForPath(path).Name(); got != want {
			t.Errorf("CodecForPath(%q) = %s, want %s", path, got, want)
		}
	}
	for _, c := range codecs {
		if got := CodecForPath("t" + c.Ext()); got != c {
			t.Errorf("CodecForPath(t%s) = %s, not its own codec %s", c.Ext(), got.Name(), c.Name())
		}
	}
}

// TestCodecRoundTrips runs both codecs through the same serialize → decode →
// materialize loop, so both formats satisfy the same contract.
func TestCodecRoundTrips(t *testing.T) {
	ts := Generate(GenConfig{N: 3, InternalPerProc: 6, CommMu: 3, CommSigma: 1, PlantGoal: true, Seed: 7})
	for _, codec := range codecs {
		var buf bytes.Buffer
		if err := ts.WriteStream(codec, &buf); err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		src, err := codec.Open(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		got, err := materialize(src)
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		if !reflect.DeepEqual(ts, got) {
			t.Errorf("%s round trip changed the trace set", codec.Name())
		}
	}
}

// TestCodecsDecodeIdentically checks the two codecs yield byte-for-byte
// identical event streams for the same execution — the invariant behind the
// CI JSON↔binary round-trip smoke.
func TestCodecsDecodeIdentically(t *testing.T) {
	ts := Generate(GenConfig{N: 4, InternalPerProc: 8, CommMu: 2, CommSigma: 1, Seed: 11})
	var streams [][]*Event
	for _, codec := range codecs {
		var buf bytes.Buffer
		if err := ts.WriteStream(codec, &buf); err != nil {
			t.Fatal(err)
		}
		src, err := codec.Open(&buf)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, drain(t, src))
	}
	if !reflect.DeepEqual(streams[0], streams[1]) {
		t.Fatal("jsonl and dmtb decode to different event streams")
	}
}

func TestSaveLoadBinaryFile(t *testing.T) {
	ts := Generate(GenConfig{N: 2, InternalPerProc: 5, CommMu: 2, CommSigma: 0.5, Seed: 3})
	path := filepath.Join(t.TempDir(), "t.dmtb")
	if err := ts.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ts, got) {
		t.Fatal("dmtb file round trip changed the trace set")
	}
}

func TestStreamFileBinary(t *testing.T) {
	ts := Generate(GenConfig{N: 3, InternalPerProc: 4, CommMu: 3, CommSigma: 1, Seed: 5})
	path := filepath.Join(t.TempDir(), "t.dmtb")
	if err := ts.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	src, err := StreamFile(path)
	if err != nil {
		t.Fatal(err)
	}
	events := drain(t, src)
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if len(events) != ts.TotalEvents() {
		t.Fatalf("streamed %d events, trace has %d", len(events), ts.TotalEvents())
	}
	if src.N() != ts.N() || !reflect.DeepEqual(src.Init(), ts.InitialState()) {
		t.Error("binary stream header disagrees with the trace set")
	}
}

// TestCreateStreamCodecByExtension: whatever CreateStream writes at a path,
// StreamFile and LoadFile read back at that path, whatever its extension.
func TestCreateStreamCodecByExtension(t *testing.T) {
	ts := Generate(GenConfig{N: 2, InternalPerProc: 4, CommMu: 2, CommSigma: 1, Seed: 9})
	for _, name := range []string{"t.jsonl", "t.dmtb", "t.json", "t", "t.txt"} {
		path := filepath.Join(t.TempDir(), name)
		sink, err := CreateStream(path, ts.Props, ts.InitialState())
		if err != nil {
			t.Fatal(err)
		}
		src := ts.Stream()
		for {
			e, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := sink.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		if sink.Events() != ts.TotalEvents() {
			t.Errorf("%s: sink counted %d events, want %d", name, sink.Events(), ts.TotalEvents())
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := StreamFile(path)
		if err != nil {
			t.Fatalf("%s: StreamFile: %v", name, err)
		}
		if events := drain(t, back); len(events) != ts.TotalEvents() {
			t.Errorf("%s: streamed %d events, want %d", name, len(events), ts.TotalEvents())
		}
		if err := back.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: LoadFile: %v", name, err)
		}
		if !reflect.DeepEqual(ts, got) {
			t.Errorf("%s: CreateStream round trip changed the trace set", name)
		}
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	// A header-only stream (zero events) is well-formed.
	pm := NewPropMap()
	if err := pm.Add("P0.p", 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	bw, err := NewBinaryWriter(&buf, pm, GlobalState{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenBinaryStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, r); len(got) != 0 {
		t.Fatalf("empty stream yielded %d events", len(got))
	}
	if r.N() != 1 || r.Init()[0] != 1 || r.Props().Names[0] != "P0.p" {
		t.Error("binary header round trip lost fields")
	}
}

// TestAllocsOpenBinaryStream: a source that says how much it holds is buffered
// by that much, not by the 64 KB a file gets — opening and draining a trace of
// a few hundred bytes allocates a few kilobytes — and reads the same events
// either way, also when the trace is many times the sized buffer's floor.
func TestAllocsOpenBinaryStream(t *testing.T) {
	encode := func(perProc int) []byte {
		ts := Generate(GenConfig{N: 2, InternalPerProc: perProc, CommMu: 2, CommSigma: 1, Seed: 2})
		var buf bytes.Buffer
		if err := ts.WriteStream(binaryCodec{}, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	open := func(r io.Reader) []*Event {
		br, err := OpenBinaryStream(r)
		if err != nil {
			t.Fatal(err)
		}
		return drain(t, br)
	}
	for _, perProc := range []int{4, 400} {
		data := encode(perProc)
		sized := open(bytes.NewReader(data))
		opaque := open(struct{ io.Reader }{bytes.NewReader(data)}) // no Len: the file-sized buffer
		if len(sized) == 0 || !reflect.DeepEqual(sized, opaque) {
			t.Fatalf("%d-byte trace: %d events through a sized buffer, %d others through the default", len(data), len(sized), len(opaque))
		}
	}
	small := encode(4)
	if len(small) > 1024 {
		t.Fatalf("the small trace is %d bytes", len(small))
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		open(bytes.NewReader(small))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 16<<10 {
		t.Errorf("reading a %d-byte in-memory trace allocates %d bytes; the read buffer alone was 64 KB before it was sized to the source", len(small), per)
	}
}

func TestBinaryRejectsCorruptStreams(t *testing.T) {
	ts := Generate(GenConfig{N: 2, InternalPerProc: 4, CommMu: 2, CommSigma: 1, Seed: 2})
	var buf bytes.Buffer
	if err := ts.WriteStream(binaryCodec{}, &buf); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	cases := map[string][]byte{
		"empty":            {},
		"bad magic":        append([]byte("NOPE"), whole[4:]...),
		"bad version":      append(append([]byte{}, "DMTB"...), append([]byte{99}, whole[5:]...)...),
		"truncated header": whole[:7],
		"truncated record": whole[:len(whole)-3],
	}
	for name, data := range cases {
		r, err := OpenBinaryStream(bytes.NewReader(data))
		if err != nil {
			continue // header-level rejection is fine
		}
		streamErr := error(nil)
		for streamErr == nil {
			_, streamErr = r.Next()
		}
		if streamErr == io.EOF {
			t.Errorf("%s: stream accepted as clean EOF", name)
		}
	}

	// Truncation must be reported as an error, not EOF, specifically.
	r, err := OpenBinaryStream(bytes.NewReader(whole[:len(whole)-3]))
	if err != nil {
		t.Fatal(err)
	}
	var last error
	for last == nil {
		_, last = r.Next()
	}
	if last == io.EOF {
		t.Error("truncated record read as clean EOF")
	}
	// The error is sticky.
	if _, again := r.Next(); again != last {
		t.Error("reader error is not sticky")
	}
}

func TestBinaryRejectsSemanticViolations(t *testing.T) {
	// The binary reader funnels through the same incremental validator as
	// the jsonl reader: a causally broken stream is rejected mid-read.
	pm := NewPropMap()
	if err := pm.Add("P0.p", 0); err != nil {
		t.Fatal(err)
	}
	if err := pm.Add("P1.p", 1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	bw, err := NewBinaryWriter(&buf, pm, GlobalState{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	// A recv for a message never sent.
	if err := bw.Write(&Event{Proc: 0, SN: 1, Type: Recv, Peer: 1, MsgID: 7, State: 0, VC: []int{1, 1}, Time: 1}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenBinaryStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Fatalf("causally broken stream accepted: %v", err)
	}
}

func TestBinaryRejectsNaNTimestamp(t *testing.T) {
	// NaN is representable in the binary time field (JSON cannot encode
	// it); the validator must reject it rather than let it poison the
	// timestamp-order check for the rest of the stream.
	pm := NewPropMap()
	if err := pm.Add("P0.p", 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	bw, err := NewBinaryWriter(&buf, pm, GlobalState{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Write(&Event{Proc: 0, SN: 1, Type: Internal, Peer: -1, State: 1, VC: []int{1}, Time: math.NaN()}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenBinaryStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("NaN timestamp accepted: %v", err)
	}
}

// TestAllocsBinaryReader gates the ".dmtb" reader the way TestDecodeEventRun
// gates DecodeEventRun: past the header, what reading a stream allocates is
// an []Event and a clock array per EventSlab records (a slab), and nothing per
// record. The trace has internal events only, so the stream validator's
// message ledger stays empty and the count is the decoder's alone.
func TestAllocsBinaryReader(t *testing.T) {
	const n = 4
	ts := Generate(GenConfig{N: n, InternalPerProc: 40, CommMu: -1, Seed: 5})
	var buf bytes.Buffer
	w, err := NewBinaryWriter(&buf, ts.Props, ts.InitialState())
	if err != nil {
		t.Fatal(err)
	}
	src := ts.Stream()
	for {
		e, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, events := buf.Bytes(), w.Events()
	var r *BinaryReader
	open := func() {
		if r, err = OpenBinaryStream(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	read := func() {
		open()
		for {
			if _, err := r.Next(); err == io.EOF {
				return
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	header := testing.AllocsPerRun(20, open)
	all := testing.AllocsPerRun(20, read)
	slabs := (events + EventSlab - 1) / EventSlab
	if got := all - header; got != float64(2*slabs) {
		t.Errorf("reading %d records allocated %v times past the header, want two per slab of %d = %d", events, got, EventSlab, 2*slabs)
	}
}
