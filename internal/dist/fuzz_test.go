package dist

import (
	"bufio"
	"bytes"
	"io"
	"runtime"
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

// decodeRunAllocBytes decodes an Ingest's records and reports the bytes the
// call allocated.
func decodeRunAllocBytes(raw []byte, n int) ([]*Event, error, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	evs, _, err := DecodeEventRun(nil, nil, raw, n)
	runtime.ReadMemStats(&after)
	return evs, err, after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeRPC fuzzes dlmond's listener-facing parser the way its read loop
// runs it — ReadRPCFrame, DecodeRPC, and DecodeEventRun on an Ingest — over a
// byte stream of any number of frames: nothing panics, every frame (and event
// run) that is accepted re-encodes to exactly the bytes it came from, so no
// two byte strings mean the same message, and decoding a run allocates at most
// a small multiple of its bytes (slabs are sized by the records the bytes left
// can hold, never by a number the input supplies).
func FuzzDecodeRPC(f *testing.F) {
	st := NewStamper(3)
	ev, tok, err := st.Send(0, 2, 5, 0.25)
	if err != nil {
		f.Fatal(err)
	}
	rec, err := AppendEventRecord(nil, ev)
	if err != nil {
		f.Fatal(err)
	}
	// A run: the send, 40 internal events (more than a slab) and the receive.
	run := bytes.Clone(rec)
	for i := 0; i < 40; i++ {
		e, err := st.Internal(i%3, LocalState(i), float64(i))
		if err != nil {
			f.Fatal(err)
		}
		if run, err = AppendEventRecord(run, e); err != nil {
			f.Fatal(err)
		}
	}
	recv, err := st.Recv(2, tok, 1, 41)
	if err != nil {
		f.Fatal(err)
	}
	if run, err = AppendEventRecord(run, recv); err != nil {
		f.Fatal(err)
	}
	var stream []byte
	for _, m := range []*RPCMsg{
		{Kind: RPCHello, Version: RPCVersion},
		{Kind: RPCRegister, Tenant: "acme", Formula: "G(P0.p -> F P1.q)", Init: GlobalState{1, 0, 0}, Props: PerProcess(3, "p", "q")},
		{Kind: RPCIngest, SID: 2, Raw: rec}, // SID selects the 3-process space below
		{Kind: RPCIngest, SID: 2, Raw: append(bytes.Clone(rec), rec...)},
		{Kind: RPCIngest, SID: 6, Raw: run},
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
			n := int(m.SID%4) + 1
			evs, err, allocated := decodeRunAllocBytes(m.Raw, n)
			if budget := uint64(32*len(m.Raw) + 2048); allocated > budget {
				// Another goroutine of the fuzz worker may have allocated
				// meanwhile; a real excess repeats.
				if _, _, allocated = decodeRunAllocBytes(m.Raw, n); allocated > budget {
					t.Fatalf("decoding a %d-byte run allocated %d, budget %d", len(m.Raw), allocated, budget)
				}
			}
			one, oneErr := DecodeEventRecord(m.Raw, n)
			if (oneErr == nil) != (err == nil && len(evs) == 1) {
				t.Fatalf("DecodeEventRecord says %v of a run of %d (%v): %x", oneErr, len(evs), err, m.Raw)
			}
			if err != nil {
				continue
			}
			var rerun []byte
			size := 0
			for _, e := range evs {
				if e.Type > Recv || e.Proc >= n || e.SN != e.VC[e.Proc] {
					t.Fatalf("accepted a malformed event %+v", e)
				}
				if rerun, err = AppendEventRecord(rerun, e); err != nil {
					t.Fatalf("re-encoding an accepted event: %v", err)
				}
				size += EventRecordSize(e)
			}
			if !bytes.Equal(rerun, m.Raw) {
				t.Fatalf("event run does not re-encode to itself:\n in  %x\n out %x", m.Raw, rerun)
			}
			if size != len(m.Raw) {
				t.Fatalf("EventRecordSize sums to %d for a %d-byte run %x", size, len(m.Raw), m.Raw)
			}
			if oneErr == nil && (one.Proc != evs[0].Proc || !one.VC.Equal(evs[0].VC)) {
				t.Fatalf("a run of one decodes to %+v, alone to %+v", evs[0], one)
			}
		}
	})
}
