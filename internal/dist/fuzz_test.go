package dist

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"decentmon/internal/wire"
)

// FuzzDecodeDMTB fuzzes the binary trace decoder: monitoring pipelines open
// .dmtb files from disk and the network, so the reader must never panic on
// corrupted or truncated bytes, and on every stream it does accept,
// decode → encode → decode must be a fixpoint (the codec loses nothing the
// validator lets through).
func FuzzDecodeDMTB(f *testing.F) {
	// Seeds: the valid encodings the codec tests exercise, plus truncated
	// and bit-flipped variants so the fuzzer starts at the error paths.
	seeds := []*TraceSet{
		RunningExample(),
		Generate(GenConfig{N: 3, InternalPerProc: 4, CommMu: 2, CommSigma: 1, PlantGoal: true, Seed: 7}),
		Generate(GenConfig{N: 2, InternalPerProc: 2, CommMu: -1, Seed: 3, Suffixes: []string{"p"}}),
		{Props: PerProcess(2, "p"), Traces: []*Trace{{Proc: 0, Init: 1}, {Proc: 1}}}, // empty traces
	}
	for _, ts := range seeds {
		var buf bytes.Buffer
		if err := ts.WriteStream(binaryCodec{}, &buf); err != nil {
			f.Fatal(err)
		}
		valid := buf.Bytes()
		f.Add(valid)
		if len(valid) > 8 {
			f.Add(valid[:len(valid)/2]) // truncated mid-stream
			flipped := append([]byte(nil), valid...)
			flipped[len(flipped)/3] ^= 0x40
			f.Add(flipped)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("DMTB\x01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenBinaryStream(bytes.NewReader(data))
		if err != nil {
			return // rejected header: fine, just must not panic
		}
		var evs []*Event
		for {
			e, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return // rejected mid-stream: fine
			}
			evs = append(evs, e)
		}
		// The stream decoded cleanly: re-encode and decode again, the
		// result must be identical.
		var buf bytes.Buffer
		w, err := NewBinaryWriter(&buf, r.Props(), r.Init())
		if err != nil {
			t.Fatalf("re-encoding accepted stream: %v", err)
		}
		for _, e := range evs {
			if err := w.Write(e); err != nil {
				t.Fatalf("re-encoding accepted event %+v: %v", e, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r2, err := OpenBinaryStream(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding own encoding: %v", err)
		}
		if got, want := r2.Props().Names, r.Props().Names; len(got) != len(want) {
			t.Fatalf("props lost: %v vs %v", got, want)
		} else {
			for i := range want {
				if got[i] != want[i] || r2.Props().Owner[i] != r.Props().Owner[i] {
					t.Fatalf("prop %d changed: %v/%d vs %v/%d", i, got[i], r2.Props().Owner[i], want[i], r.Props().Owner[i])
				}
			}
		}
		for i, want := range r.Init() {
			if r2.Init()[i] != want {
				t.Fatalf("init state %d changed: %v vs %v", i, r2.Init()[i], want)
			}
		}
		for i, e := range evs {
			g, err := r2.Next()
			if err != nil {
				t.Fatalf("event %d lost in round-trip: %v", i, err)
			}
			if g.Proc != e.Proc || g.SN != e.SN || g.Type != e.Type || g.Peer != e.Peer ||
				g.MsgID != e.MsgID || g.State != e.State || g.Time != e.Time || !g.VC.Equal(e.VC) {
				t.Fatalf("event %d changed: %+v vs %+v", i, g, e)
			}
		}
		if _, err := r2.Next(); err != io.EOF {
			t.Fatalf("round-trip grew an extra event: %v", err)
		}
	})
}

// FuzzDecodeRPC fuzzes dlmond's listener-facing parser the way its read loop
// runs it — ReadRPCFrame, DecodeRPC, and DecodeEventRecord on an Ingest — over
// a byte stream of any number of frames: nothing panics, and every frame (and
// event record) that is accepted re-encodes to exactly the bytes it came
// from, so no two byte strings mean the same message.
func FuzzDecodeRPC(f *testing.F) {
	st := NewStamper(3)
	ev, _, err := st.Send(0, 2, 5, 0.25)
	if err != nil {
		f.Fatal(err)
	}
	rec, err := AppendEventRecord(nil, ev)
	if err != nil {
		f.Fatal(err)
	}
	var stream []byte
	for _, m := range []*RPCMsg{
		{Kind: RPCHello, Version: RPCVersion},
		{Kind: RPCRegister, Tenant: "acme", Formula: "G(P0.p -> F P1.q)", Init: GlobalState{1, 0, 0}, Props: PerProcess(3, "p", "q")},
		{Kind: RPCIngest, SID: 2, Raw: rec}, // SID selects the 3-process space below
		{Kind: RPCEmit, SID: 7, EmitKind: Recv, Proc: 1, Peer: 0, MsgID: 9, State: 3},
		{Kind: RPCEnd, SID: 7, Proc: 1},
		{Kind: RPCRegistered, SID: 8, CacheHit: true, Epoch: 3, Fed: []int{4, 0, 17}},
		{Kind: RPCVerdict, SID: 7, Monitor: 1, Verdict: RPCVerdictBottom, Conclusive: true, AutState: 2, Cut: []int{3, 1}},
		{Kind: RPCClosed, SID: 7, Verdicts: []byte{RPCVerdictTop, RPCVerdictUnknown}},
		{Kind: RPCError, SID: 7, Err: "no such session"},
	} {
		frame, err := AppendRPC(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		stream = append(stream, frame...)
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-3])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var scratch []byte
		for {
			payload, grown, err := ReadRPCFrame(br, scratch)
			if err != nil {
				return // clean end, truncation or an oversized frame
			}
			scratch = grown
			m, err := DecodeRPC(payload)
			if err != nil {
				continue // the server answers with an Error frame and reads on
			}
			again, err := AppendRPC(nil, m)
			if err != nil {
				t.Fatalf("re-encoding an accepted %s frame: %v", m.Kind, err)
			}
			if frame := append(wire.AppendUvarint(nil, uint64(len(payload))), payload...); !bytes.Equal(again, frame) {
				t.Fatalf("%s frame does not re-encode to itself:\n in  %x\n out %x", m.Kind, frame, again)
			}
			if m.Kind != RPCIngest {
				continue
			}
			e, err := DecodeEventRecord(m.Raw, int(m.SID%4)+1)
			if err != nil {
				continue
			}
			if e.Type > Recv || e.Proc > int(m.SID%4) || e.SN != e.VC[e.Proc] {
				t.Fatalf("accepted a malformed event %+v", e)
			}
			if rec, err := AppendEventRecord(nil, e); err != nil || !bytes.Equal(rec, m.Raw) {
				t.Fatalf("event record does not re-encode to itself (%v):\n in  %x\n out %x", err, m.Raw, rec)
			}
			if got := EventRecordSize(e); got != len(m.Raw) {
				t.Fatalf("EventRecordSize = %d for a %d-byte record %x", got, len(m.Raw), m.Raw)
			}
		}
	})
}
