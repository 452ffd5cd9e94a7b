package dist

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"io"
	"strings"
	"testing"

	"decentmon/internal/vclock"
	"decentmon/internal/wire"
)

// Golden bytes of the formats other programs hold: a ".dmtb" file on
// somebody's disk and an RPC client built against the current version must
// keep working, so these strings were captured at the commit before the codecs
// moved onto internal/wire and may only change together with the format's
// version number (RPC version 3 changed the hello's version byte and let an
// Ingest carry more than one record; every other frame is version 2's).

func goldenProps() *PropMap {
	pm := NewPropMap()
	pm.MustAdd("P0.p", 0)
	pm.MustAdd("P0.q", 0)
	pm.MustAdd("P1.p", 1)
	return pm
}

func goldenEvents() []*Event {
	return []*Event{
		{Proc: 0, SN: 1, Type: Internal, Peer: -1, State: 3, VC: vclock.VC{1, 0}, Time: 0.5},
		{Proc: 0, SN: 2, Type: Send, Peer: 1, MsgID: 300, State: 1, VC: vclock.VC{2, 0}, Time: 1.25},
		{Proc: 1, SN: 1, Type: Recv, Peer: 0, MsgID: 300, State: 1, VC: vclock.VC{2, 1}, Time: 2},
	}
}

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenDMTB: version 1 header plus three records, written and read.
func TestGoldenDMTB(t *testing.T) {
	want := unhex(t, "444d5442 01"+ // magic, version
		"02 01000000 00000000"+ // two processes and their initial states
		"03 00 04 50302e70 00 04 50302e71 01 04 50312e70"+ // three propositions: owner, name
		"12 00 00 01 00 03000000 000000000000e03f 01 00"+ // internal event of P0
		"13 00 01 02 ac02 01000000 000000000000f43f 02 00"+ // P0 sends message 300 to P1
		"13 01 02 00 ac02 01000000 0000000000000040 02 01") // P1 receives it
	var buf bytes.Buffer
	w, err := NewBinaryWriter(&buf, goldenProps(), GlobalState{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range goldenEvents() {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf(".dmtb v1 bytes changed:\n got  %x\n want %x", buf.Bytes(), want)
	}
	r, err := OpenBinaryStream(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if r.N() != 2 || r.Init()[0] != 1 || r.Props().Len() != 3 || r.Props().Names[2] != "P1.p" || r.Props().Owner[2] != 1 {
		t.Errorf("header read back as n=%d init=%v props=%v", r.N(), r.Init(), r.Props())
	}
	for _, e := range goldenEvents() {
		got, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got.Proc != e.Proc || got.SN != e.SN || got.Type != e.Type || got.Peer != e.Peer || got.MsgID != e.MsgID ||
			got.State != e.State || got.Time != e.Time || !got.VC.Equal(e.VC) {
			t.Errorf("event read back as %+v, want %+v", got, e)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("after three records: %v", err)
	}
}

// TestGoldenRPC: one frame of every version 3 verb, encoded and decoded; the
// second Ingest carries the three records of the ".dmtb" golden back to back.
func TestGoldenRPC(t *testing.T) {
	rec, err := AppendEventRecord(nil, goldenEvents()[1])
	if err != nil {
		t.Fatal(err)
	}
	var run []byte
	for _, e := range goldenEvents() {
		if run, err = AppendEventRecord(run, e); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		msg  *RPCMsg
		want string
	}{
		{&RPCMsg{Kind: RPCHello, Version: RPCVersion}, "06 01 444c4d44 03"},
		{&RPCMsg{Kind: RPCRegister, Tenant: "acme", Formula: "G(P0.p -> F P1.p)", Init: GlobalState{1, 0}, Props: goldenProps()},
			"2e 02 04 61636d65 11 472850302e70202d3e20462050312e7029 02 01 00 03 00 04 50302e70 00 04 50302e71 01 04 50312e70"},
		{&RPCMsg{Kind: RPCIngest, SID: 7, Raw: rec}, "15 03 07 00 01 02 ac02 01000000 000000000000f43f 02 00"},
		{&RPCMsg{Kind: RPCIngest, SID: 7, Raw: run}, "3a 03 07" +
			"00 00 01 00 03000000 000000000000e03f 01 00" +
			"00 01 02 ac02 01000000 000000000000f43f 02 00" +
			"01 02 00 ac02 01000000 0000000000000040 02 01"},
		{&RPCMsg{Kind: RPCEmit, SID: 7, EmitKind: Send, Proc: 0, Peer: 1, MsgID: 9, State: 3}, "0a 04 07 01 00 02 09 03000000"},
		{&RPCMsg{Kind: RPCEmit, SID: 7, EmitKind: Internal, Proc: 1, Peer: -1, State: 2}, "0a 04 07 00 01 01 00 02000000"},
		{&RPCMsg{Kind: RPCSubscribe, SID: 7}, "02 05 07"},
		{&RPCMsg{Kind: RPCEnd, SID: 7, Proc: 1}, "03 06 07 01"},
		{&RPCMsg{Kind: RPCClose, SID: 7}, "02 07 07"},
		{&RPCMsg{Kind: RPCAttach, SID: 300}, "03 08 ac02"},
		{&RPCMsg{Kind: RPCRegistered, SID: 8, CacheHit: true}, "05 41 08 01 00 00"},
		{&RPCMsg{Kind: RPCRegistered, SID: 8, Epoch: 3, Fed: []int{4, 0, 170}}, "09 41 08 00 03 03 04 00 aa01"},
		{&RPCMsg{Kind: RPCEmitted, SID: 7, MsgID: 12}, "03 42 07 0c"},
		{&RPCMsg{Kind: RPCAcked, SID: 7}, "02 43 07"},
		{&RPCMsg{Kind: RPCVerdict, SID: 7, Monitor: 1, Verdict: RPCVerdictBottom, Conclusive: true, AutState: 2, Cut: []int{3, 1}},
			"09 44 07 01 02 01 02 02 03 01"},
		{&RPCMsg{Kind: RPCClosed, SID: 7, Verdicts: []byte{RPCVerdictTop, RPCVerdictUnknown}}, "05 45 07 02 01 00"},
		{&RPCMsg{Kind: RPCError, SID: 7, Err: "no such session"}, "12 46 07 0f 6e6f20737563682073657373696f6e"},
	} {
		want := unhex(t, tc.want)
		got, err := AppendRPC(nil, tc.msg)
		if err != nil {
			t.Fatalf("%s: %v", tc.msg.Kind, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("rpc v3 %s frame changed:\n got  %x\n want %x", tc.msg.Kind, got, want)
		}
		payload, _, err := ReadRPCFrame(bufio.NewReader(bytes.NewReader(want)), nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.msg.Kind, err)
		}
		m, err := DecodeRPC(payload)
		if err != nil {
			t.Fatalf("%s: %v", tc.msg.Kind, err)
		}
		if again, err := AppendRPC(nil, m); err != nil || !bytes.Equal(again, want) {
			t.Errorf("%s: decoded frame re-encodes to %x (%v)", tc.msg.Kind, again, err)
		}
	}
	evs, _, err := DecodeEventRun(nil, nil, run, 2)
	if err != nil || len(evs) != 3 {
		t.Fatalf("the three-record run decodes to %d events (%v)", len(evs), err)
	}
	for i, e := range goldenEvents() {
		if got := evs[i]; got.Proc != e.Proc || got.SN != e.SN || got.Type != e.Type || got.Peer != e.Peer || got.MsgID != e.MsgID ||
			got.State != e.State || got.Time != e.Time || !got.VC.Equal(e.VC) {
			t.Errorf("run event %d read back as %+v, want %+v", i, got, e)
		}
	}
}

// TestGoldenDMLG pins the input log at version 1: header, then one record of
// each kind — the three-record run of the RPC golden, exactly as an Ingest
// carried it, the send again as an event the server stamped, and an end mark.
// A state directory outlives the build that wrote it, so these bytes may only
// change together with InputLogVersion.
func TestGoldenDMLG(t *testing.T) {
	want := unhex(t, goldenDMLG1)
	var run []byte
	var err error
	for _, e := range goldenEvents() {
		if run, err = AppendEventRecord(run, e); err != nil {
			t.Fatal(err)
		}
	}
	send, err := AppendEventRecord(nil, goldenEvents()[1])
	if err != nil {
		t.Fatal(err)
	}
	got := AppendInputLogHeader(nil, InputLogHeader{SID: 300, Gen: 2})
	got = AppendInputLogRecord(got, LogRun, run)
	got = AppendInputLogRecord(got, LogEmitted, send)
	got = AppendInputLogRecord(got, LogEnd, wire.AppendInts(nil, 1))
	if !bytes.Equal(got, want) {
		t.Fatalf("DMLG v1 bytes changed:\n got  %x\n want %x", got, want)
	}
	hdr, recs, end, err := ReadInputLog(want)
	if err != nil || hdr != (InputLogHeader{SID: 300, Gen: 2}) || end != len(want) || len(recs) != 3 {
		t.Fatalf("read back as %+v, %d records, end %d of %d (%v)", hdr, len(recs), end, len(want), err)
	}
	for i, kind := range []InputLogKind{LogRun, LogEmitted, LogEnd} {
		if recs[i].Kind != kind {
			t.Errorf("record %d is of kind %d, want %d", i, recs[i].Kind, kind)
		}
	}
	if evs, _, err := DecodeEventRun(nil, nil, recs[0].Payload, 2); err != nil || len(evs) != 3 {
		t.Errorf("the run decodes to %d events (%v)", len(evs), err)
	}
	if e, err := DecodeEventRecord(recs[1].Payload, 2); err != nil || e.Type != Send || e.MsgID != 300 {
		t.Errorf("the emitted record decodes to %+v (%v)", e, err)
	}
}

const goldenDMLG1 = "444d4c47 01 ac02 02 a5044bda" + // magic, version, session 300, generation 2, CRC-32C
	"01 38" + // a run of 56 bytes: the three records of the RPC golden's second Ingest
	"00 00 01 00 03000000 000000000000e03f 01 00" +
	"00 01 02 ac02 01000000 000000000000f43f 02 00" +
	"01 02 00 ac02 01000000 0000000000000040 02 01" +
	"58f38708" + // CRC-32C of kind, length and payload
	"02 13" + // an emitted event of 19 bytes: P0's send, as the server stamped it
	"00 01 02 ac02 01000000 000000000000f43f 02 00" +
	"950fc048" +
	"03 01 01 7d78836b" // an end mark: process 1

// TestGoldenDMSN pins the snapshot container at version 4 and, inside it, the
// records the tree shares between formats — process space, stamper state and
// an event segment per process of the running example (Fig. 2.1). Engine
// snapshots themselves are not byte-stable from run to run (how a monitor's
// inputs batch into rounds is up to the scheduler); their guard is the
// restore → re-snapshot identity test in internal/core. A version 3 blob, as
// the previous build wrote it, must be refused by number.
func TestGoldenDMSN(t *testing.T) {
	ts := RunningExample()
	st := StamperState{MsgSeq: 2}
	b := NewSnapshotBuilder()
	b.Record(1, AppendProcessSpace(nil, ts.InitialState(), ts.Props))
	var segs []byte
	for _, tr := range ts.Traces {
		segs = wire.AppendUvarint(segs, uint64(len(tr.Events)))
		for _, e := range tr.Events {
			var err error
			if segs, err = AppendEventRecord(segs, e); err != nil {
				t.Fatal(err)
			}
		}
		last := tr.Events[len(tr.Events)-1]
		st.Clocks, st.Lasts = append(st.Clocks, last.VC), append(st.Lasts, last.Time)
	}
	b.Record(2, AppendStamperState(nil, st))
	b.Record(3, segs)
	got := b.Finish()
	want := unhex(t, goldenDMSN4)
	if !bytes.Equal(got, want) {
		t.Fatalf("DMSN v4 bytes changed:\n got  %x\n want %x", got, want)
	}
	r, err := OpenSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	for tag := uint64(1); ; tag++ {
		got, payload, ok := r.Next()
		if !ok {
			break
		}
		if got != tag {
			t.Fatalf("record tag %d, want %d", got, tag)
		}
		if tag == 2 {
			back, err := DecodeStamperState(payload)
			if err != nil || back.MsgSeq != 2 || !back.Clocks[1].Equal(st.Clocks[1]) || back.Lasts[0] != st.Lasts[0] {
				t.Errorf("stamper state read back as %+v (%v)", back, err)
			}
		}
	}
	// The same blob as version 3 wrote it: only the version byte and the CRC
	// differ, and it is refused whole.
	v3 := unhex(t, strings.Replace(strings.Replace(goldenDMSN4, "444d534e 04", "444d534e 03", 1), "dfba9eba", "c2465ddf", 1))
	if _, err := OpenSnapshot(v3); err == nil || !strings.Contains(err.Error(), "snapshot version 3, want 4") {
		t.Errorf("version 3 blob: want the version error, got %v", err)
	}
}

const goldenDMSN4 = "444d534e 04" + // magic, version
	"01 1a" + // record 1, 26 bytes: the process space
	"02 00 00 03 00 05 78313e3d35 00 05 78313d3130 01 06 78323e3d3135" +
	"02 18" + // record 2, 24 bytes: the stamper
	"02 02 02 04 04 0000000000001840 02 01 04 0000000000001240" +
	"03 9201" + // record 3, 146 bytes: one segment per process
	"04" +
	"00 01 02 01 00000000 000000000000f03f 01 00" + // P0 sends message 1 to P1
	"00 00 01 00 01000000 0000000000000040 02 00" +
	"00 00 01 00 03000000 0000000000000840 03 00" +
	"00 02 02 02 03000000 0000000000001840 04 04" + // P0 receives message 2
	"04" +
	"01 02 00 01 00000000 000000000000f83f 01 01" + // P1 receives message 1
	"01 00 01 00 01000000 0000000000000440 01 02" +
	"01 00 01 00 01000000 0000000000000c40 01 03" +
	"01 01 00 02 01000000 0000000000001240 01 04" + // P1 sends message 2 to P0
	"00 04 dfba9eba" // end record: CRC-32 of everything before it
