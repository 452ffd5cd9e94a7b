package core

import (
	"strings"
	"testing"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/ltl"
	"decentmon/internal/vclock"
	"decentmon/internal/wire"
)

// --- knowledge store ---

func TestKnowledgeBasics(t *testing.T) {
	ts := dist.RunningExample()
	k := newKnowledge(2, ts.InitialState())
	for _, e := range ts.Traces[0].Events {
		if err := k.append(e); err != nil {
			t.Fatal(err)
		}
	}
	if k.len(0) != 4 || k.len(1) != 0 {
		t.Fatalf("lens %d/%d", k.len(0), k.len(1))
	}
	// Gap rejection.
	if err := k.append(ts.Traces[1].Events[1]); err == nil {
		t.Error("gap append accepted")
	}
	// Merge with overlap.
	if err := k.merge(1, ts.Traces[1].Events[:3]); err != nil {
		t.Fatal(err)
	}
	if err := k.merge(1, ts.Traces[1].Events); err != nil {
		t.Fatal(err)
	}
	if k.len(1) != 4 {
		t.Fatalf("len after overlap merge %d", k.len(1))
	}
	// Merge with gap fails.
	k2 := newKnowledge(2, ts.InitialState())
	if err := k2.merge(1, ts.Traces[1].Events[2:]); err == nil {
		t.Error("gapped merge accepted")
	}
}

func TestKnowledgeStatesAndCuts(t *testing.T) {
	ts := dist.RunningExample()
	k := newKnowledge(2, ts.InitialState())
	for p := 0; p < 2; p++ {
		if err := k.merge(p, ts.Traces[p].Events); err != nil {
			t.Fatal(err)
		}
	}
	if got := k.state(0, 0); got != ts.Traces[0].Init {
		t.Errorf("state(0,0) = %b", got)
	}
	if got := k.state(0, 3); got != ts.Traces[0].Events[2].State {
		t.Errorf("state(0,3) = %b", got)
	}
	g := k.stateAt(vclock.VC{2, 2})
	if g[0] != ts.Traces[0].StateAt(2) || g[1] != ts.Traces[1].StateAt(2) {
		t.Error("stateAt mismatch")
	}
	if !k.covers(vclock.VC{4, 4}) || k.covers(vclock.VC{5, 0}) {
		t.Error("covers wrong")
	}
	// consistentStep: advancing P1 to its first event (recv of m1) from the
	// empty cut is inconsistent (depends on P0's send).
	if k.consistentStep(vclock.VC{0, 0}, 1) {
		t.Error("recv before send considered consistent")
	}
	if !k.consistentStep(vclock.VC{1, 0}, 1) {
		t.Error("recv after send considered inconsistent")
	}
	// finalCut requires all done.
	if _, ok := k.finalCut(); ok {
		t.Error("finalCut before done")
	}
	k.markDone(0, 4)
	k.markDone(1, 4)
	cut, ok := k.finalCut()
	if !ok || !cut.Equal(vclock.VC{4, 4}) {
		t.Errorf("finalCut = %v/%v", cut, ok)
	}
	// event() panics out of range.
	defer func() {
		if recover() == nil {
			t.Error("event out of range did not panic")
		}
	}()
	k.event(0, 9)
}

// --- wire codec ---

func TestMessageCodecRoundTrip(t *testing.T) {
	ts := dist.RunningExample()
	tok := &tokenWire{
		Parent:   1,
		SearchID: 42,
		Q:        2,
		Origin:   vclock.VC{1, 2},
		Trans: []*transWire{{
			ID: 3, Gcut: vclock.VC{1, 2}, Depend: vclock.VC{0, 1},
			ConjEval: []evalState{evalTrue, evalUnset},
			Eval:     evalUnset, NextTargetProcess: 0, NextTargetEvent: 2,
		}},
		Segs: []*segment{{Proc: 0, Events: ts.Traces[0].Events[:2]}},
	}
	for _, msg := range []*wireMsg{
		{Kind: msgToken, Token: tok},
		{Kind: msgFetch, Fetch: &fetchWire{Requester: 1, FromSN: 2, ToSN: 5}},
		{Kind: msgFetchReply, FetchReply: &fetchReplyWire{Proc: 0, Events: ts.Traces[0].Events, Done: true, Total: 4}},
		{Kind: msgTerm, Term: &termWire{Proc: 1, Total: 4}},
		{Kind: msgFini, Fini: 1},
	} {
		payload, err := encodeMsg(msg)
		if err != nil {
			t.Fatalf("%v: %v", msg.Kind, err)
		}
		got, err := decodeMsg(payload, 2)
		if err != nil {
			t.Fatalf("%v: %v", msg.Kind, err)
		}
		if got.Kind != msg.Kind {
			t.Fatalf("kind %v != %v", got.Kind, msg.Kind)
		}
		switch msg.Kind {
		case msgToken:
			if got.Token.SearchID != 42 || len(got.Token.Trans) != 1 || got.Token.Trans[0].ID != 3 {
				t.Error("token fields lost")
			}
			if len(got.Token.Segs) != 1 || len(got.Token.Segs[0].Events) != 2 {
				t.Error("segments lost")
			}
			if !got.Token.Origin.Equal(vclock.VC{1, 2}) {
				t.Error("origin lost")
			}
		case msgFetchReply:
			if !got.FetchReply.Done || got.FetchReply.Total != 4 || len(got.FetchReply.Events) != 4 {
				t.Error("fetch reply fields lost")
			}
		}
	}
	// What the decoder must refuse. 2^63 fits a uvarint and used to come out
	// of int() as a negative FromSN, which knowledge.from panics on.
	huge := wire.AppendUvarint(nil, 1<<63)
	ev := appendEvent(nil, ts.Traces[1].Events[0])
	// reply wraps bytes as the one event of process 1's fetch reply.
	reply := func(rec ...byte) []byte { return append([]byte{byte(msgFetchReply), 0, 0, 1, 1, 1}, rec...) }
	for name, payload := range map[string][]byte{
		"garbage":               []byte("garbage"),
		"unknown kind":          {99, 0},
		"unassigned kind 6":     {6, 0},
		"fetch from 2^63":       append(append([]byte{byte(msgFetch), 0, 1}, huge...), 5),
		"fetch reply of 2^63":   append([]byte{byte(msgFetchReply), 0, 0, 0, 4}, huge...),
		"fetch reply, done = 2": {byte(msgFetchReply), 0, 2, 0, 4, 0},
		"event of kind 9":       reply(append([]byte{ev[0], 9}, ev[2:]...)...),
		"event of process 2":    reply(append([]byte{2}, ev[1:]...)...),
		"event, clock cut":      reply(ev[:len(ev)-1]...),
		"trailing byte":         {byte(msgFini), 0, 1, 0},
	} {
		if m, err := decodeMsg(payload, 2); err == nil {
			t.Errorf("%s decoded: %+v", name, m)
		}
	}
}

func TestTokenSegmentDedup(t *testing.T) {
	ts := dist.RunningExample()
	tok := &tokenWire{}
	evs := ts.Traces[0].Events
	tok.addSegment(evs[0])
	tok.addSegment(evs[0]) // duplicate
	tok.addSegment(evs[1]) // contiguous
	tok.addSegment(evs[2])
	if len(tok.Segs) != 1 || len(tok.Segs[0].Events) != 3 {
		t.Fatalf("segments %+v", tok.Segs)
	}
	// Second process opens its own segment.
	tok.addSegment(ts.Traces[1].Events[0])
	if len(tok.Segs) != 2 {
		t.Fatalf("expected 2 segments, got %d", len(tok.Segs))
	}
}

// --- guard table ---

func TestGuardTable(t *testing.T) {
	pm := dist.PerProcess(2, "p", "q")
	mon, err := automaton.Build(
		ltl.MustParse("G ((P0.p && P1.p) U (P0.q && P1.q))"), pm.Names)
	if err != nil {
		t.Fatal(err)
	}
	letters, err := pm.Restrict(mon.Props)
	if err != nil {
		t.Fatal(err)
	}
	gt := newGuardTable(mon, letters, 2)
	for _, tr := range mon.Transitions() {
		// Recombine the per-process guards and compare with the full cube on
		// every global state.
		for s0 := dist.LocalState(0); s0 < 4; s0++ {
			for s1 := dist.LocalState(0); s1 < 4; s1++ {
				local := gt.guard(tr.ID, 0).sat(s0) && gt.guard(tr.ID, 1).sat(s1)
				letter := letters.Letter(dist.GlobalState{s0, s1})
				if local != tr.Guard.Contains(letter) {
					t.Fatalf("transition %d: split guards disagree at %b/%b", tr.ID, s0, s1)
				}
			}
		}
	}
}

// --- strings and debug output ---

func TestStringsAndDebug(t *testing.T) {
	if msgToken.String() != "token" || msgKind(99).String() == "" {
		t.Error("msgKind strings wrong")
	}
	ts := dist.RunningExample()
	mon, err := automaton.Build(ltl.MustParse(dist.RunningExampleProperty), ts.Props.Names)
	if err != nil {
		t.Fatal(err)
	}
	m := builtSession(t, SessionConfig{
		N: 2, Automaton: mon, Props: ts.Props, Init: ts.InitialState(),
	}).monitors[0]
	if !strings.Contains(m.DebugString(), "monitor 0") {
		t.Errorf("DebugString = %q", m.DebugString())
	}
}
