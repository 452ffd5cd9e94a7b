package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"decentmon/internal/dist"
	"decentmon/internal/transport"
	"decentmon/internal/vclock"
)

// wireSeedMsgs is one message of every kind, the fuzz corpus' seeds.
func wireSeedMsgs() []*wireMsg {
	ts := dist.RunningExample()
	floor := vclock.VC{1, 0}
	return []*wireMsg{
		{Kind: msgToken, Floor: floor, Token: &tokenWire{
			Parent: 1, SearchID: 1<<32 | 7, Q: 2, Origin: vclock.VC{1, 2},
			Trans: []*transWire{{
				ID: 3, Gcut: vclock.VC{1, 2}, Depend: vclock.VC{0, 1},
				ConjEval: []evalState{evalTrue, evalUnset},
				Eval:     evalUnset, NextTargetProcess: -1, NextTargetEvent: 2,
			}},
			Segs: []*segment{
				{Proc: 0, Events: ts.Traces[0].Events[:2]},
				{Proc: 1, Events: ts.Traces[1].Events},
			},
		}},
		{Kind: msgFetch, Floor: floor, Fetch: &fetchWire{Requester: 1, FromSN: 2, ToSN: 5}},
		{Kind: msgFetchReply, Floor: floor, FetchReply: &fetchReplyWire{Proc: 0, Events: ts.Traces[0].Events, Done: true, Total: 4}},
		{Kind: msgTerm, Term: &termWire{Proc: 1, Total: 4}},
		{Kind: msgTerm, Floor: floor, Term: &termWire{Proc: root, Total: 4, Totals: []int{4, 4}}},
		{Kind: msgFini, Fini: 1},
		{Kind: msgFetchReply, FetchReply: &fetchReplyWire{Proc: 1, Events: ts.Traces[1].Events[:1]}},
		{Kind: msgFloor, Floor: vclock.VC{floorInf, 3}},
	}
}

// TestMsgSizeMatchesEncoding pins the arithmetic size a handed-over message
// reports to transport.Stats to the bytes the codec would have produced, for
// every kind and for fields wide enough to leave the one-byte varint range —
// NetBytes is the paper's communication overhead and must not depend on which
// path a message took.
func TestMsgSizeMatchesEncoding(t *testing.T) {
	msgs := wireSeedMsgs()
	wide := dist.Generate(dist.GenConfig{N: 3, InternalPerProc: 200, CommMu: 2, Seed: 9})
	last := wide.Traces[2].Events
	msgs = append(msgs,
		&wireMsg{Kind: msgFetchReply, Floor: vclock.VC{300, 1 << 20, floorInf}, FetchReply: &fetchReplyWire{Proc: 2, Events: last, Total: 1 << 15}},
		&wireMsg{Kind: msgFetchReply, FetchReply: &fetchReplyWire{Proc: 1}},
		&wireMsg{Kind: msgFetch, Fetch: &fetchWire{Requester: 130, FromSN: 1 << 14, ToSN: 1 << 28}},
		&wireMsg{Kind: msgTerm, Term: &termWire{Proc: 200, Total: 1 << 21}},
		&wireMsg{Kind: msgTerm, Term: &termWire{Proc: root, Total: 1 << 21, Totals: []int{1 << 21, 0, 300}}},
		&wireMsg{Kind: msgFini, Fini: 128},
		&wireMsg{Kind: msgFetchReply, Floor: vclock.VC{1, 2, 3}, FetchReply: &fetchReplyWire{Proc: 2, Events: last[len(last)-1:]}},
		&wireMsg{Kind: msgToken, Token: &tokenWire{
			Parent: 2, SearchID: 2<<32 | 1<<20, Q: 300, Origin: vclock.VC{150, 0, 1 << 16},
			NextTargetProcess: -1,
			Trans: []*transWire{
				{ID: 129, Gcut: vclock.VC{150, 7, 1 << 16}, Depend: vclock.VC{128, 0, 0}, ConjEval: make([]evalState, 3), Eval: evalTrue, NextTargetProcess: 2, NextTargetEvent: 1 << 16},
				{ID: 0, Eval: evalFalse, NextTargetProcess: -70, NextTargetEvent: -1},
			},
			Segs: []*segment{{Proc: 2, Events: last[100:]}, {Proc: 0, Events: wide.Traces[0].Events[:1]}},
		}},
		&wireMsg{Kind: msgToken, Token: &tokenWire{}},
	)
	for _, m := range msgs {
		payload, err := encodeMsg(m)
		if err != nil {
			t.Fatalf("%v: %v", m.Kind, err)
		}
		if got := msgSize(m); got != len(payload) {
			t.Errorf("%v: msgSize = %d, encodeMsg wrote %d bytes", m.Kind, got, len(payload))
		}
	}
}

// decodeAllocBytes decodes payload and reports the bytes the call allocated.
func decodeAllocBytes(payload []byte) (*wireMsg, error, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := decodeMsg(payload, 2)
	runtime.ReadMemStats(&after)
	return m, err, after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeMsg fuzzes the monitor-to-monitor decoder, which takes bytes
// straight off a socket under the TCP transport: no panic on any input; an
// accepted payload re-encodes to a fixpoint (decode→encode→decode→encode
// yields the same bytes); and one call allocates at most a small multiple of
// the payload — every count is checked against the bytes remaining before
// anything is sized by it, so a hostile length cannot over-allocate. The
// multiple is the worst ratio of decoded to encoded size: a two-byte empty
// segment becomes a 32-byte struct and a pointer to it.
func FuzzDecodeMsg(f *testing.F) {
	for _, m := range wireSeedMsgs() {
		payload, err := encodeMsg(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	// Well-formed bytes naming what a fleet of two does not have: the range
	// checks refuse them (TestDecodedMessageRangeChecks).
	for _, m := range []*wireMsg{
		{Kind: msgTerm, Term: &termWire{Proc: root, Totals: []int{4, 4, 4}}},
		{Kind: msgTerm, Term: &termWire{Proc: 2, Total: 1}},
		{Kind: msgFini, Fini: 2},
		{Kind: msgFloor, Floor: vclock.VC{1, 2, 3}},
		{Kind: msgFetch, Fetch: &fetchWire{Requester: 1, FromSN: 0, ToSN: 3}},
		{Kind: msgFetch, Fetch: &fetchWire{Requester: 2, FromSN: 1, ToSN: 3}},
		{Kind: msgFetchReply, FetchReply: &fetchReplyWire{Proc: 2}},
		{Kind: msgFetchReply, FetchReply: &fetchReplyWire{Proc: 1, Events: dist.RunningExample().Traces[0].Events}},
		{Kind: msgToken, Token: &tokenWire{Parent: 2, Origin: vclock.VC{0, 0}}},
		{Kind: msgToken, Token: &tokenWire{Parent: 1, Origin: vclock.VC{0, 0, 0}}},
		{Kind: msgToken, Token: &tokenWire{Parent: 1, Origin: vclock.VC{0, 0}, Trans: []*transWire{
			{Gcut: vclock.VC{0, 0}, Depend: vclock.VC{0, 0}, ConjEval: []evalState{evalTrue, 7}}}}},
	} {
		payload, err := encodeMsg(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(msgFetchReply), 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // 2^32 events in 0 bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err, allocated := decodeAllocBytes(data)
		if budget := uint64(32*len(data) + 2048); allocated > budget {
			// Another goroutine of the fuzz worker may have allocated
			// meanwhile; a real excess repeats.
			if _, _, allocated = decodeAllocBytes(data); allocated > budget {
				t.Fatalf("decoding %d bytes allocated %d, budget %d", len(data), allocated, budget)
			}
		}
		if err != nil {
			return
		}
		first, err := encodeMsg(m)
		if err != nil {
			t.Fatalf("re-encoding an accepted message: %v", err)
		}
		// Every value has one encoding, so an accepted payload re-encodes to
		// itself and its decoded message must size to exactly its length.
		if !bytes.Equal(first, data) {
			t.Fatalf("accepted payload does not re-encode to itself:\n%x\n%x", data, first)
		}
		if got := msgSize(m); got != len(data) {
			t.Fatalf("msgSize = %d for an accepted %d-byte payload %x", got, len(data), data)
		}
		m2, err := decodeMsg(first, 2)
		if err != nil {
			t.Fatalf("decoding a re-encoded message: %v", err)
		}
		second, err := encodeMsg(m2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("no fixpoint:\n%x\n%x", first, second)
		}
	})
}

// TestDecodedMessageRangeChecks delivers, as bytes, one message per field a
// peer could get wrong to a monitor of a three-process session with some
// history collected. The codec and the handlers must fail the session with
// an error naming the field — never panic, never take the message.
func TestDecodedMessageRangeChecks(t *testing.T) {
	const n, me = 3, 1
	ts := dist.Generate(dist.GenConfig{N: n, InternalPerProc: 6, CommMu: -1, Seed: 3})
	cfg := sessionCfg(t, ts, "F (P0.p && P1.p && P2.p)")
	mon := cfg.Automaton
	q := mon.Step(mon.Initial(), 0)
	var foreign int // a transition that does not leave q
	for _, tr := range mon.Transitions() {
		if tr.Src != q {
			foreign = tr.ID
		}
	}
	own := ts.Traces[me].Events
	zero := func() vclock.VC { return vclock.New(n) }
	token := func(edit func(*tokenWire)) *wireMsg {
		t := &tokenWire{Parent: 0, SearchID: 1, Q: q, Origin: zero(), NextTargetProcess: me}
		if out := mon.Out(q); len(out) > 0 {
			t.Trans = []*transWire{{ID: out[0].ID, Gcut: zero(), Depend: zero(), ConjEval: make([]evalState, n), NextTargetProcess: me, NextTargetEvent: 1}}
		}
		edit(t)
		return &wireMsg{Kind: msgToken, Token: t}
	}
	for _, c := range []struct {
		name string
		msg  *wireMsg
		want string
	}{
		{"floor width", &wireMsg{Kind: msgFloor, Floor: vclock.VC{1, 1}}, "2-entry floor"},
		{"token parent", token(func(t *tokenWire) { t.Parent = n }), "token of monitor 3"},
		{"token target", token(func(t *tokenWire) { t.NextTargetProcess = n + 4 }), "to 7"},
		{"token origin width", token(func(t *tokenWire) { t.Origin = vclock.VC{0} }), "1-entry origin"},
		{"token cut width", token(func(t *tokenWire) { t.Trans[0].Gcut = vclock.VC{0, 0} }), "clocks of width 2 and 3"},
		{"token depend width", token(func(t *tokenWire) { t.Trans[0].Depend = vclock.VC{0, 0, 0, 0} }), "clocks of width 3 and 4"},
		{"token evaluation width", token(func(t *tokenWire) { t.Trans[0].ConjEval = nil }), "0 evaluations"},
		{"token transition target", token(func(t *tokenWire) { t.Trans[0].NextTargetProcess = n }), "targets process 3"},
		{"token evaluation", token(func(t *tokenWire) { t.Trans[0].Eval = 3 }), "evaluates to 3"},
		{"token conjunct evaluation", token(func(t *tokenWire) { t.Trans[0].ConjEval[2] = 9 }), "conjunct evaluating to 9"},
		{"token segment process", token(func(t *tokenWire) {
			t.Segs = []*segment{{Proc: n, Events: own[:1]}}
		}), "segment names process 3"},
		{"token segment event", token(func(t *tokenWire) {
			t.Segs = []*segment{{Proc: 2, Events: own[:1]}}
		}), "segment of process 2 carries event 1 of process 1"},
		{"token state", token(func(t *tokenWire) { t.Q = mon.NumStates() }), "in state"},
		{"token transition", token(func(t *tokenWire) { t.Trans[0].ID = foreign }), "not one out of state"},
		{"token transition id", token(func(t *tokenWire) { t.Trans[0].ID = len(mon.Transitions()) }), "not one out of state"},
		{"fetch requester", &wireMsg{Kind: msgFetch, Fetch: &fetchWire{Requester: n, FromSN: 3}}, "for monitor 3"},
		{"fetch from zero", &wireMsg{Kind: msgFetch, Fetch: &fetchWire{Requester: 0, FromSN: 0}}, "fetch of events 0.."},
		{"fetch below the floor", &wireMsg{Kind: msgFetch, Fetch: &fetchWire{Requester: 0, FromSN: 2, ToSN: 4}}, "below the GC floor 2"},
		{"reply process", &wireMsg{Kind: msgFetchReply, FetchReply: &fetchReplyWire{Proc: n}}, "events of process 3"},
		{"reply of the receiver's process", &wireMsg{Kind: msgFetchReply, FetchReply: &fetchReplyWire{Proc: me, Events: own}}, "its own process"},
		{"reply event", &wireMsg{Kind: msgFetchReply, FetchReply: &fetchReplyWire{Proc: 2, Events: own[:1]}}, "carries event 1 of process 1"},
		{"term process", &wireMsg{Kind: msgTerm, Term: &termWire{Proc: n, Total: 1}}, "term of process 3"},
		{"totals width", &wireMsg{Kind: msgTerm, Term: &termWire{Proc: root, Totals: []int{1, 1}}}, "2 totals"},
		{"fini monitor", &wireMsg{Kind: msgFini, Fini: n}, "fini of monitor 3"},
	} {
		t.Run(c.name, func(t *testing.T) {
			payload, err := encodeMsg(c.msg)
			if err != nil {
				t.Fatal(err)
			}
			m := builtSession(t, cfg).monitors[me]
			m.start()
			for _, e := range own[:4] {
				m.handleLocalEvent(e)
			}
			m.know.truncate(vclock.VC{0, 2, 0}) // events 1 and 2 collected
			if m.err != nil {
				t.Fatal(m.err)
			}
			m.handleMessage(transport.Message{From: 0, To: me, Payload: payload})
			if m.err == nil || !strings.Contains(m.err.Error(), c.want) {
				t.Errorf("%s: error %v, want one containing %q", c.name, m.err, c.want)
			}
		})
	}
	// The same monitor takes the well-formed neighbours of those messages.
	m := builtSession(t, cfg).monitors[me]
	m.start()
	for _, e := range own[:4] {
		m.handleLocalEvent(e)
	}
	for _, msg := range []*wireMsg{
		{Kind: msgFloor, Floor: vclock.VC{1, 1, 1}},
		{Kind: msgFetch, Fetch: &fetchWire{Requester: 0, FromSN: 3, ToSN: 4}},
		{Kind: msgFetchReply, FetchReply: &fetchReplyWire{Proc: 2, Events: ts.Traces[2].Events[:2]}},
		token(func(*tokenWire) {}),
	} {
		payload, err := encodeMsg(msg)
		if err != nil {
			t.Fatal(err)
		}
		if m.handleMessage(transport.Message{From: 0, To: me, Payload: payload}); m.err != nil {
			t.Fatalf("%v refused: %v", msg.Kind, m.err)
		}
	}
}

// TestSegmentSlabOutlivesTruncate pins the slab lifetime rule of wirecodec.go:
// the events of one decoded segment share one slab, the knowledge store keeps
// pointers into it, and truncate dropping a prefix of them (in place or by
// compacting the window) must leave the rest — fields and clocks — intact.
func TestSegmentSlabOutlivesTruncate(t *testing.T) {
	const total = 40
	var evs []*dist.Event
	for sn := 1; sn <= total; sn++ {
		evs = append(evs, kevent(1, sn, []int{sn / 2, sn, 7}, dist.LocalState(sn%4)))
	}
	payload, err := encodeMsg(&wireMsg{Kind: msgFetchReply, FetchReply: &fetchReplyWire{Proc: 1, Events: evs}})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := decodeMsg(payload, 3)
	if err != nil {
		t.Fatal(err)
	}
	k := newKnowledge(3, dist.GlobalState{0, 0, 0})
	if err := k.merge(1, msg.FetchReply.Events); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{3, 4, 30, 39} { // small drops stay in place, large ones compact
		k.truncate(vclock.VC{0, cut, 0})
		runtime.GC() // a slab freed too early would be reused by now
		for sn := cut + 1; sn <= total; sn++ {
			e, want := k.event(1, sn), evs[sn-1]
			if e.SN != want.SN || e.State != want.State || e.Time != want.Time || !e.VC.Equal(want.VC) {
				t.Fatalf("after truncate(%d): event %d = %+v, want %+v", cut, sn, *e, *want)
			}
		}
		if k.state(1, cut) != evs[cut-1].State {
			t.Fatalf("after truncate(%d): floor state %d, want %d", cut, k.state(1, cut), evs[cut-1].State)
		}
	}
}
