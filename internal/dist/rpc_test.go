package dist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"decentmon/internal/vclock"
	"decentmon/internal/wire"
)

// roundTripRPC encodes m, reads it back through the frame reader, and
// decodes it.
func roundTripRPC(t *testing.T, m *RPCMsg) *RPCMsg {
	t.Helper()
	frame, err := AppendRPC(nil, m)
	if err != nil {
		t.Fatalf("AppendRPC(%s): %v", m.Kind, err)
	}
	br := bufio.NewReader(bytes.NewReader(frame))
	payload, _, err := ReadRPCFrame(br, nil)
	if err != nil {
		t.Fatalf("ReadRPCFrame(%s): %v", m.Kind, err)
	}
	got, err := DecodeRPC(payload)
	if err != nil {
		t.Fatalf("DecodeRPC(%s): %v", m.Kind, err)
	}
	if _, _, err := ReadRPCFrame(br, nil); err != io.EOF {
		t.Fatalf("after one %s frame: want clean EOF, got %v", m.Kind, err)
	}
	return got
}

func TestRPCRoundTripAllVerbs(t *testing.T) {
	props := NewPropMap()
	props.MustAdd("p", 0)
	props.MustAdd("q", 1)

	msgs := []*RPCMsg{
		{Kind: RPCHello, Version: RPCVersion},
		{Kind: RPCRegister, Tenant: "acme", Formula: "G(P0.p -> F P1.q)",
			Init: GlobalState{1, 0}, Props: props},
		{Kind: RPCIngest, SID: 7, Raw: []byte{1, 2, 3, 4}},
		{Kind: RPCSubscribe, SID: 7},
		{Kind: RPCEnd, SID: 7, Proc: 1},
		{Kind: RPCClose, SID: 7},
		{Kind: RPCAttach, SID: 7},
		{Kind: RPCRegistered, SID: 8, CacheHit: true},
		{Kind: RPCRegistered, SID: 8, CacheHit: true, Epoch: 3, Fed: []int{4, 0, 17}},
		{Kind: RPCAcked, SID: 7},
		{Kind: RPCVerdict, SID: 7, Monitor: 1, Verdict: RPCVerdictBottom,
			Conclusive: true, AutState: 2, Cut: []int{3, 1}},
		{Kind: RPCClosed, SID: 7, Verdicts: []byte{RPCVerdictTop, RPCVerdictUnknown}},
		{Kind: RPCError, SID: 7, Err: "no such session"},
	}
	for _, m := range msgs {
		got := roundTripRPC(t, m)
		if got.Kind != m.Kind || got.SID != m.SID || got.Version != m.Version ||
			got.Tenant != m.Tenant || got.Formula != m.Formula ||
			got.Proc != m.Proc || got.CacheHit != m.CacheHit || got.Epoch != m.Epoch || got.Monitor != m.Monitor ||
			got.Verdict != m.Verdict || got.AutState != m.AutState ||
			got.Conclusive != m.Conclusive || got.Err != m.Err {
			t.Errorf("%s: scalar fields changed in round trip:\n in  %+v\n out %+v", m.Kind, m, got)
		}
		if !bytes.Equal(got.Raw, m.Raw) || !bytes.Equal(got.Verdicts, m.Verdicts) {
			t.Errorf("%s: byte fields changed in round trip", m.Kind)
		}
		if len(got.Cut) != len(m.Cut) {
			t.Errorf("%s: cut %v -> %v", m.Kind, m.Cut, got.Cut)
		} else {
			for i := range got.Cut {
				if got.Cut[i] != m.Cut[i] {
					t.Errorf("%s: cut %v -> %v", m.Kind, m.Cut, got.Cut)
					break
				}
			}
		}
		if len(got.Init) != len(m.Init) {
			t.Errorf("%s: init %v -> %v", m.Kind, m.Init, got.Init)
		}
		if len(got.Fed) != len(m.Fed) {
			t.Errorf("%s: fed %v -> %v", m.Kind, m.Fed, got.Fed)
		} else {
			for i := range got.Fed {
				if got.Fed[i] != m.Fed[i] {
					t.Errorf("%s: fed %v -> %v", m.Kind, m.Fed, got.Fed)
					break
				}
			}
		}
		if m.Props != nil {
			if got.Props == nil || got.Props.Len() != m.Props.Len() {
				t.Fatalf("%s: prop space dropped", m.Kind)
			}
			for i, name := range m.Props.Names {
				if got.Props.Names[i] != name || got.Props.Owner[i] != m.Props.Owner[i] {
					t.Errorf("%s: prop %d changed", m.Kind, i)
				}
			}
		}
	}
}

// The Ingest payload embeds the literal ".dmtb" event record encoding, so
// a stamped event must survive the RPC framing byte-for-byte.
func TestRPCIngestCarriesEventRecords(t *testing.T) {
	st := NewStamper(3)
	ev, _, err := st.Send(0, 2, 5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := AppendEventRecord(nil, ev)
	if err != nil {
		t.Fatal(err)
	}
	got := roundTripRPC(t, &RPCMsg{Kind: RPCIngest, SID: 3, Raw: rec})
	dec, err := DecodeEventRecord(got.Raw, 3)
	if err != nil {
		t.Fatalf("DecodeEventRecord over RPC: %v", err)
	}
	if dec.Proc != ev.Proc || dec.Type != ev.Type || dec.Peer != ev.Peer ||
		dec.MsgID != ev.MsgID || dec.State != ev.State || dec.Time != ev.Time {
		t.Errorf("event changed crossing the RPC: %+v -> %+v", ev, dec)
	}
	for i := range ev.VC {
		if dec.VC[i] != ev.VC[i] {
			t.Errorf("vc changed: %v -> %v", ev.VC, dec.VC)
			break
		}
	}
}

func TestRPCRejectsBadFrames(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"empty", nil, "empty"},
		{"unknown verb", []byte{200}, "unknown rpc verb"},
		{"bad magic", append([]byte{byte(RPCHello)}, 'N', 'O', 'P', 'E', 1), "magic"},
		{"truncated register", []byte{byte(RPCRegister), 4, 'a', 'c'}, "truncated"},
		{"trailing bytes", append([]byte{byte(RPCAcked), 7}, 0xff), "trailing"},
		// 2^63 fits a uvarint but not an index: it used to come out negative.
		{"process 2^63", append([]byte{byte(RPCEnd), 7}, wire.AppendUvarint(nil, 1<<63)...), "int"},
		{"padded session id", []byte{byte(RPCAcked), 0x87, 0x00}, "uvarint"},
		{"cache flag 2", []byte{byte(RPCRegistered), 8, 2, 0, 0}, "bool"},
		{"MaxSpace+1-process verdict cut", append(append([]byte{byte(RPCVerdict), 7, 1, 2, 1, 2}, wire.AppendUvarint(nil, MaxSpace+1)...), make([]byte, MaxSpace+1)...), fmt.Sprintf("%d processes (max %d)", MaxSpace+1, MaxSpace)},
		{"ingest of no record", []byte{byte(RPCIngest), 7}, "without an event record"},
	}
	for _, tc := range cases {
		_, err := DecodeRPC(tc.payload)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
	// The bound itself decodes: a MaxSpace-process cut.
	atBound := append(append([]byte{byte(RPCVerdict), 7, 1, 2, 1, 2}, wire.AppendUvarint(nil, MaxSpace)...), make([]byte, MaxSpace)...)
	if m, err := DecodeRPC(atBound); err != nil || len(m.Cut) != MaxSpace {
		t.Errorf("%d-process verdict cut: %v", MaxSpace, err)
	}
	// An Ingest frame carries its event record opaquely; the record's own
	// decoder is the only validator between the socket and the engine.
	rec, err := AppendEventRecord(nil, &Event{Proc: 1, SN: 1, Peer: -1, VC: vclock.VC{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEventRecord(rec, 2); err != nil {
		t.Fatalf("well-formed record: %v", err)
	}
	for name, tc := range map[string]struct {
		mutate func(rec []byte) []byte
		want   string
	}{
		"event type 9":     {func(r []byte) []byte { r[1] = 9; return r }, "unknown event type 9"},
		"process 2":        {func(r []byte) []byte { r[0] = 2; return r }, "nonexistent process 2"},
		"clock cut short":  {func(r []byte) []byte { return r[:len(r)-1] }, "truncated"},
		"clock one longer": {func(r []byte) []byte { return append(r, 0) }, "trailing"},
	} {
		_, err := DecodeEventRecord(tc.mutate(bytes.Clone(rec)), 2)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", name, tc.want, err)
		}
	}
	if _, err := AppendEventRecord(nil, &Event{Type: 9, VC: vclock.VC{1}}); err == nil {
		t.Error("event type 9 encoded")
	}
	if _, err := AppendRPC(nil, &RPCMsg{Kind: RPCIngest, SID: 7}); err == nil {
		t.Error("ingest of no record encoded")
	}
}

// genRun is a generated 4-process execution, linearized by timestamp, and its
// records back to back with the offset each starts at (and the end).
func genRun(t testing.TB) (events []*Event, run []byte, offs []int) {
	t.Helper()
	src := Generate(GenConfig{N: 4, InternalPerProc: 30, CommMu: 3, Seed: 11}).Stream()
	for {
		e, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		events, offs = append(events, e), append(offs, len(run))
		if run, err = AppendEventRecord(run, e); err != nil {
			t.Fatal(err)
		}
	}
	return events, run, append(offs, len(run))
}

func sameEvent(a, b *Event) bool {
	return a.Proc == b.Proc && a.SN == b.SN && a.Type == b.Type && a.Peer == b.Peer && a.MsgID == b.MsgID &&
		a.State == b.State && a.Time == b.Time && a.VC.Equal(b.VC)
}

// TestDecodeEventRun: a run of k records decodes to what its k records decode
// to one by one; it is refused whole — the destination comes back as it went
// in — when any record of it is cut short, names a process outside the space
// or drags bytes behind it, and when it is empty. Beside the events it reports
// where each record ends, which is what lets a window of the run be logged as
// a sub-slice of the bytes it arrived in.
func TestDecodeEventRun(t *testing.T) {
	events, run, offs := genRun(t)
	if len(events) < 3*EventSlab {
		t.Fatalf("generated %d events, want a few slabs", len(events))
	}
	kept := &Event{Proc: 99}
	got, ends, err := DecodeEventRun([]*Event{kept}, []int{-1}, run, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1+len(events) || got[0] != kept {
		t.Fatalf("decoded %d events behind the one already there, want %d", len(got)-1, len(events))
	}
	if len(ends) != 1+len(events) || ends[0] != -1 || !slices.Equal(ends[1:], offs[1:]) {
		t.Fatalf("record ends %v behind the one already there, want %v", ends, offs[1:])
	}
	for i, e := range events {
		one, err := DecodeEventRecord(run[offs[i]:offs[i+1]], 4)
		if err != nil {
			t.Fatal(err)
		}
		if !sameEvent(got[1+i], e) || !sameEvent(one, e) {
			t.Fatalf("event %d: run %+v, alone %+v, want %+v", i, got[1+i], one, e)
		}
	}
	// Slabs: an []Event and a clock array per EventSlab events, nothing else.
	dst, ends := make([]*Event, 0, len(events)), make([]int, 0, len(events))
	slabs := (len(events) + EventSlab - 1) / EventSlab
	if n := testing.AllocsPerRun(20, func() { dst, ends, _ = DecodeEventRun(dst[:0], ends[:0], run, 4) }); n != float64(2*slabs) {
		t.Errorf("decoding %d events allocated %v times, want two per slab of %d = %d", len(events), n, EventSlab, 2*slabs)
	}

	j := len(events) / 2
	procAt := func(r []byte) []byte { r[offs[j]] = 4; return r }
	for name, tc := range map[string]struct {
		run  []byte
		want string
	}{
		"empty":                   {nil, "truncated"},
		"record j cut short":      {run[:offs[j+1]-1], "truncated"},
		"run cut inside record j": {run[:offs[j]+3], "truncated"},
		"record j of process 4":   {procAt(bytes.Clone(run)), "nonexistent process 4"},
		"one byte behind":         {append(bytes.Clone(run), 0), "truncated"},
	} {
		got, ends, err := DecodeEventRun([]*Event{kept}, []int{-1}, tc.run, 4)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", name, tc.want, err)
		}
		if len(got) != 1 || got[0] != kept || len(ends) != 1 {
			t.Errorf("%s: a refused run left %d events and %d record ends in the destination", name, len(got)-1, len(ends)-1)
		}
	}
}

// TestAllocsAppendRPC: a frame is encoded in place behind its length prefix.
// Appending to a buffer with room allocates nothing, whether the prefix takes
// one byte or two, and a nil buffer is allocated once.
func TestAllocsAppendRPC(t *testing.T) {
	_, run, offs := genRun(t)
	msgs := []*RPCMsg{
		{Kind: RPCIngest, SID: 7, Raw: run[:offs[1]]},
		{Kind: RPCIngest, SID: 7, Raw: run[:offs[100]]}, // kilobytes: a two-byte prefix
		{Kind: RPCVerdict, SID: 7, Monitor: 1, Verdict: RPCVerdictBottom, Conclusive: true, AutState: 2, Cut: []int{3, 1, 4, 1}},
		{Kind: RPCError, SID: 7, Err: "no such session"},
	}
	buf := make([]byte, 0, 2*len(run))
	for _, m := range msgs {
		want, err := AppendRPC(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { buf, _ = AppendRPC(buf[:0], m) }); n != 0 {
			t.Errorf("%s frame of %d bytes: %v allocations appending into a buffer with room", m.Kind, len(want), n)
		}
		if !bytes.Equal(buf, want) {
			t.Errorf("%s: in-place frame differs from the fresh one", m.Kind)
		}
		if n := testing.AllocsPerRun(100, func() { AppendRPC(nil, m) }); n != 1 {
			t.Errorf("%s frame of %d bytes: %v allocations from a nil buffer, want 1", m.Kind, len(want), n)
		}
	}
}

func TestRPCFrameTruncation(t *testing.T) {
	frame, err := AppendRPC(nil, &RPCMsg{Kind: RPCError, SID: 1, Err: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix that drops at least one byte must fail loudly,
	// never report a clean EOF.
	for cut := 1; cut < len(frame); cut++ {
		br := bufio.NewReader(bytes.NewReader(frame[:cut]))
		_, _, err := ReadRPCFrame(br, nil)
		if err == nil || err == io.EOF {
			t.Errorf("prefix of %d/%d bytes: want truncation error, got %v", cut, len(frame), err)
		}
	}
}

func TestRPCFrameBound(t *testing.T) {
	if _, err := AppendRPC(nil, &RPCMsg{Kind: RPCIngest, SID: 1, Raw: make([]byte, MaxRPCFrame)}); err == nil {
		t.Fatal("oversized frame encoded without error")
	}
	big := append(bytes.Repeat([]byte{0xff}, 4), 0x7f)
	_, _, err := ReadRPCFrame(bufio.NewReader(bytes.NewReader(big)), nil)
	if err == nil || err == io.EOF {
		t.Fatalf("oversized frame length accepted: %v", err)
	}
}

// TestEventRecordSize pins the arithmetic size to the encoder, over a
// generated execution (sends, receives, internal events with peer -1) and
// fields wide enough to cross every varint length boundary that can occur.
func TestEventRecordSize(t *testing.T) {
	events := []*Event{
		{Proc: 0, SN: 1, Peer: -1, VC: vclock.VC{1}},
		{Proc: 200, SN: 1 << 21, Type: Recv, Peer: 1 << 14, MsgID: 1 << 35, State: 0xffffffff, Time: 1e9, VC: vclock.VC{1 << 21, 127, 128, 0}},
	}
	for _, tr := range Generate(GenConfig{N: 4, InternalPerProc: 6, CommMu: 2, Seed: 5}).Traces {
		events = append(events, tr.Events...)
	}
	for _, e := range events {
		rec, err := AppendEventRecord(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		if got := EventRecordSize(e); got != len(rec) {
			t.Errorf("EventRecordSize(%+v) = %d, the record is %d bytes", e, got, len(rec))
		}
	}
}
