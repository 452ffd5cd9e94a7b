package core

import (
	"context"
	"testing"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/ltl"
	"decentmon/internal/props"
	"decentmon/internal/vclock"
)

// Allocation-regression gates for the engine hot path. Each budget was
// measured on the current implementation and pinned with headroom; a failure
// here means a change re-introduced per-operation garbage into a path the
// hot-path overhaul made allocation-free (or nearly so). Budgets are
// ceilings, not targets — lower is always fine.

// TestAllocsWireEncode gates the wire codec's encode side: encoding borrows
// pooled scratch, so the only allocation is the exact-size payload copied
// out for the transport to own.
func TestAllocsWireEncode(t *testing.T) {
	e := &dist.Event{
		Proc: 1, SN: 3, Type: dist.Internal, Peer: -1,
		State: 0b101, VC: vclock.VC{2, 3, 1, 0}, Time: 1.5,
	}
	msg := &wireMsg{Kind: msgFetchReply, Floor: vclock.VC{1, 1, 1, 0}, FetchReply: &fetchReplyWire{Proc: 1, Events: []*dist.Event{e}}}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := encodeMsg(msg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("encodeMsg allocates %.1f objects per message, budget 1 (the payload copy)", allocs)
	}
}

// TestAllocsSegmentDecode gates the decode side of an event segment: an event
// slab and a clock slab per dist.EventSlab events and the pointer slice (plus the
// message struct, the reply struct and the floor), not two objects per event.
func TestAllocsSegmentDecode(t *testing.T) {
	var evs []*dist.Event
	for sn := 1; sn <= 64; sn++ {
		evs = append(evs, &dist.Event{Proc: 1, SN: sn, Peer: -1, VC: vclock.VC{sn, sn, 3, 0}, Time: float64(sn)})
	}
	payload, err := encodeMsg(&wireMsg{Kind: msgFetchReply, Floor: vclock.VC{1, 1, 1, 0}, FetchReply: &fetchReplyWire{Proc: 1, Events: evs}})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := decodeMsg(payload, 4); err != nil {
			t.Fatal(err)
		}
	})
	if budget := float64(4 + 2*64/dist.EventSlab); allocs > budget {
		t.Errorf("decoding a 64-event fetch reply allocates %.1f objects, budget %.0f", allocs, budget)
	}
}

// TestAllocsBoxSweep gates the box kernel: on a warmed scratch, sweeping a
// 3-support box in which no transition fires allocates its final states,
// nothing per node (the result itself is returned by value).
func TestAllocsBoxSweep(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{
		N: 5, InternalPerProc: 6, CommMu: 3, CommSigma: 1, Topology: dist.TopoRing, Seed: 1,
		TrueProbs: map[string]float64{"p": 0, "q": 0},
	})
	mon, err := automaton.Build(ltl.MustParse("F (P0.p && P1.p && P2.p)"), ts.Props.Names)
	if err != nil {
		t.Fatal(err)
	}
	know := newKnowledge(ts.N(), ts.InitialState())
	hi := vclock.New(ts.N())
	for _, tr := range ts.Traces {
		for _, e := range tr.Events {
			if err := know.append(e); err != nil {
				t.Fatal(err)
			}
		}
		hi[tr.Proc] = len(tr.Events)
	}
	lt := mustLetters(t, mon, ts.Props, ts.N())
	init := newStateset(mon.NumStates())
	init.set(mon.Step(mon.Initial(), lt.letter(ts.InitialState())))
	lo, support := vclock.New(ts.N()), []int{0, 1, 2}
	var sc boxScratch
	sweep := func() boxResult {
		res, err := sc.explore(mon, know, lt, init, lo, hi, 1<<21, support)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := sweep(); res.nodes < 100 || len(res.pivots) != 0 {
		t.Fatalf("fixture: %d nodes, %d pivots; want a wide box with no pivots", res.nodes, len(res.pivots))
	}
	if allocs := testing.AllocsPerRun(100, func() { sweep() }); allocs > 1 {
		t.Errorf("a warmed box sweep allocates %.1f objects, budget 1 (finalStates)", allocs)
	}
}

// TestAllocsVCKey gates the vector-clock key appender: with capacity in the
// destination buffer it must not allocate, which is what makes the
// m[string(AppendKey(buf[:0]))] map-probe idiom free on lookups.
func TestAllocsVCKey(t *testing.T) {
	v := vclock.VC{10, 250, 3, 77, 19, 0, 42, 8}
	buf := make([]byte, 0, 64)
	m := map[string]int{string(v.AppendKey(buf[:0])): 1}
	allocs := testing.AllocsPerRun(200, func() {
		buf = v.AppendKey(buf[:0])
		if m[string(buf)] != 1 {
			t.Fatal("lookup failed")
		}
	})
	if allocs != 0 {
		t.Errorf("AppendKey+probe allocates %.1f objects per key, budget 0", allocs)
	}
}

// TestAllocsLetterTable gates the incremental letter maintenance: updating
// one process's contribution to a letter is pure table arithmetic.
func TestAllocsLetterTable(t *testing.T) {
	pm := dist.PerProcess(4, "p", "q")
	mon, err := automaton.Build(ltl.MustParse("F (P0.p && P1.q && P2.p)"), pm.Names)
	if err != nil {
		t.Fatal(err)
	}
	lt := mustLetters(t, mon, pm, 4)
	var letter uint32
	allocs := testing.AllocsPerRun(200, func() {
		letter = lt.update(letter, 1, 2)
		letter = lt.update(letter, 2, 1)
	})
	if allocs != 0 {
		t.Errorf("letterTable.update allocates %.1f objects per call pair, budget 0", allocs)
	}
}

// TestAllocsStateset gates the word-wide bitset operations the view step
// leans on.
func TestAllocsStateset(t *testing.T) {
	a, b := newStateset(130), newStateset(130)
	a.set(0)
	a.set(64)
	a.set(129)
	allocs := testing.AllocsPerRun(200, func() {
		b.clear()
		b.or(a)
		n := 0
		b.forEach(func(int) { n++ })
		if n != 3 || b.empty() {
			t.Fatal("bitset mismatch")
		}
	})
	if allocs != 0 {
		t.Errorf("stateset clear/or/forEach allocates %.1f objects per round, budget 0", allocs)
	}
}

// TestAllocsSteadyStateStep gates the end-to-end per-event cost of the
// steady-state local step: handleLocalEvent + pump on a single-process
// monitor (no communication, no searches), fed one fresh event per run from
// a pre-generated trace. The per-event allocations that remain are the
// knowledge append and the global-view re-key — growth of live state, not
// discarded garbage.
func TestAllocsSteadyStateStep(t *testing.T) {
	const runs = 400
	// p stays true so the safety property never concludes: the view must
	// re-step and re-key on every event, which is the path being gated.
	ts := dist.Generate(dist.GenConfig{
		N: 1, InternalPerProc: runs + 16, CommMu: -1, Seed: 1,
		InitTrue:  []string{"p"},
		TrueProbs: map[string]float64{"p": 1.0, "q": 0.5},
	})
	mon, err := automaton.Build(ltl.MustParse("G P0.p"), ts.Props.Names)
	if err != nil {
		t.Fatal(err)
	}
	m := builtSession(t, SessionConfig{
		N: 1, Automaton: mon, Props: ts.Props, Init: ts.InitialState(),
	}).monitors[0]
	m.start(nil)
	events := ts.Traces[0].Events
	next := 0
	// Warm-up: scratch buffers and map headroom reach steady state.
	for ; next < 8; next++ {
		m.handleLocalEvent(events[next])
		m.pump()
	}
	allocs := testing.AllocsPerRun(runs, func() {
		m.handleLocalEvent(events[next])
		m.pump()
		next++
	})
	if m.err != nil {
		t.Fatal(m.err)
	}
	// Budget 4: measured 1.0 (the advancing view's re-keyed map entry; the
	// knowledge append amortizes to ~0 via slice doubling), pinned with
	// headroom for map-growth spikes amortized across runs.
	if allocs > 4 {
		t.Errorf("steady-state step allocates %.1f objects per event, budget 4", allocs)
	}
	t.Logf("steady-state step: %.2f allocs/event", allocs)
}

// TestAllocsSnapshot gates the checkpoint encoder: a warmed session (record
// and sort buffers grown, blob size known from the previous snapshot)
// serializes all its monitors into one presized buffer. What remains is the
// blob, the builder and slack — no per-monitor growslice chain, no sorted-key
// slices.
func TestAllocsSnapshot(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{N: 4, InternalPerProc: 200, CommMu: 3, CommSigma: 1, PlantGoal: true, Seed: 9})
	mon, err := automaton.Build(ltl.MustParse(propsAF(4)["B"]), ts.Props.Names)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(context.Background(), SessionConfig{
		N: ts.N(), Automaton: mon, Props: ts.Props, Init: ts.InitialState(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	src := ts.Stream()
	for fed := 0; fed < 400; fed++ {
		e, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	var size int
	snapshot := func() {
		blob, err := s.Snapshot(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		size = len(blob)
	}
	snapshot() // warm-up: scratch buffers and the size hint
	allocs := testing.AllocsPerRun(50, snapshot)
	if allocs > 4 {
		t.Errorf("warmed snapshot of %d bytes allocates %.1f objects, budget 4", size, allocs)
	}
	t.Logf("warmed snapshot: %d bytes, %.2f allocs", size, allocs)
}

// TestAllocsEmptySession gates what a session costs before it has monitored
// anything — built, INIT run, the 4·(n−1)-message termination wave, collected —
// at the short-run cell's n = 16 under property B at arity 3: what every
// short session pays on top of its events. One compiled program and one floors
// slab per monitor where there were n tables and 2n clocks, and a network that
// starts nothing, brought it from 2,212 to ~1,000; one []Monitor whose n-wide
// arrays are cut from per-session slabs, bitsets for the verdict states,
// search maps made by the first search, scratch recycled across sessions and
// no per-monitor verdict maps in the result brought it from 881 to 328. The
// budget is that plus 15%.
func TestAllocsEmptySession(t *testing.T) {
	const n = 16
	mon, pm, err := props.BuildAt("B", 3, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SessionConfig{N: n, Automaton: mon, Props: pm, Init: make(dist.GlobalState, n), SkipFinalize: true}
	empty := func() {
		s, err := NewSession(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	empty() // warm-up
	allocs := testing.AllocsPerRun(20, empty)
	if allocs > 375 {
		t.Errorf("an empty n=%d session allocates %.0f objects, budget 375", n, allocs)
	}
	t.Logf("empty n=%d session: %.0f allocs", n, allocs)
}
