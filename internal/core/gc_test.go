package core

import (
	"context"
	"testing"

	"decentmon/internal/dist"
	"decentmon/internal/vclock"
)

// gcWorkload is a ring execution with steady communication whose monitored
// property is a request/response obligation ("every concurrent P0.p∧P1.p is
// eventually answered by P2.p∧P3.p") that no finite trace decides. Every
// state of its monitor is settled, so each monitor records '?' at INIT and
// keeps no view: its need-floor is infinite from the first pump, its peers
// collect its events as they arrive, and the store holds little more than
// what the collection cadence (gcCollectEveryInputs) and the feed queue
// leave between runs. The tests below hold that the store stays bounded and
// that collection happens at all.
const gcProperty = "G ((P0.p && P1.p) -> F (P2.p && P3.p))"

func gcWorkload(events int) dist.GenConfig {
	return dist.GenConfig{
		N: 4, InternalPerProc: events,
		EvtMu: 0.5, EvtSigma: 0.1,
		CommMu: 0.5, CommSigma: 0.1,
		Topology:  dist.TopoRing,
		TrueProbs: map[string]float64{"p": 0.5, "q": 0.5},
		PlantGoal: true, Seed: 17,
	}
}

func runGC(t *testing.T, events int, pace float64) (*RunResult, int, int) {
	t.Helper()
	ts := dist.Generate(gcWorkload(events))
	mon := mustMonitor(t, gcProperty, ts.Props.Names)
	res, err := RunStreamContext(context.Background(), ts.Stream(), RunConfig{Automaton: mon, Pace: pace})
	if err != nil {
		t.Fatal(err)
	}
	peak, collected := 0, 0
	for _, m := range res.Metrics {
		if m.KnowledgePeak > peak {
			peak = m.KnowledgePeak
		}
		collected += m.KnowledgeCollected
	}
	return res, peak, collected
}

// TestKnowledgePeakBoundedAcrossTraceGrowth is the memory-boundedness
// acceptance: growing the trace 10× must not grow the peak retained
// knowledge by more than 2× on a collectible workload. The replay is paced
// (as in a live deployment, event gaps dwarf monitor round trips).
func TestKnowledgePeakBoundedAcrossTraceGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("paced replay takes ~seconds")
	}
	_, peakSmall, _ := runGC(t, 200, 1e-3)
	_, peakLarge, collected := runGC(t, 2000, 1e-3)
	if collected == 0 {
		t.Fatal("10× run collected no knowledge")
	}
	if peakLarge > 2*peakSmall {
		t.Errorf("knowledge peak grew with the trace: %d events -> peak %d, %d events -> peak %d",
			200, peakSmall, 2000, peakLarge)
	}
	t.Logf("peak small=%d large=%d collected=%d", peakSmall, peakLarge, collected)
}

// TestKnowledgePeakBoundedUnpaced is the same acceptance with no pacing at
// all: the monitors' feed queues (feedQueue, session.go) keep an unpaced
// replay at most a few windows ahead of every monitor, so even a replay that
// would otherwise outrun every token/fetch exchange keeps its retained
// knowledge bounded as the trace grows. It states that as one ceiling, far
// below the events fed, that a four times longer trace does not lift — not as
// a ratio of two peaks: each peak is a race between feeder and monitors
// (1,296–1,865 over 25 runs per size at GOMAXPROCS 1 and 2 on a 2-core box)
// and a short trace ends before its backlog has built up, so a ratio fails on
// timing alone. The ceiling is an eighth of the shorter trace.
func TestKnowledgePeakBoundedUnpaced(t *testing.T) {
	const rounds = 2000
	ceiling := dist.Generate(gcWorkload(rounds)).TotalEvents() / 8
	for _, k := range []int{1, 4} {
		_, peak, collected := runGC(t, k*rounds, 0)
		if collected == 0 {
			t.Fatalf("%d rounds: no knowledge collected", k*rounds)
		}
		if peak > ceiling {
			t.Errorf("unpaced knowledge peak %d over %d rounds, ceiling %d (an eighth of the %d-round trace)", peak, k*rounds, ceiling, rounds)
		}
		t.Logf("unpaced: %d rounds, peak %d, collected %d, ceiling %d", k*rounds, peak, collected, ceiling)
	}
}

// TestGCRunMatchesOracle pins soundness and completeness under GC: on the
// GC workload, where knowledge is collected as the run goes, the streamed run
// of every case-study property returns exactly the oracle's verdict set.
func TestGCRunMatchesOracle(t *testing.T) {
	ts := dist.Generate(gcWorkload(60))
	for name, f := range propsAF(4) {
		mon := mustMonitor(t, f, ts.Props.Names)
		want := oracleSet(t, ts, mon)
		got, err := RunStreamContext(context.Background(), ts.Stream(), RunConfig{Automaton: mon})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if setString(got.Verdicts) != setString(want) {
			t.Errorf("%s: GC-streamed verdicts %s != oracle %s", name, setString(got.Verdicts), setString(want))
		}
	}
}

// TestGCStreamedVerdictsInsideOracle checks the streamed, GC-enabled run
// against the ground-truth oracle on a size the lattice DP can handle.
func TestGCStreamedVerdictsInsideOracle(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{
		N: 3, InternalPerProc: 6,
		CommMu: 2, CommSigma: 0.5,
		Topology:  dist.TopoRing,
		TrueProbs: map[string]float64{"p": 0.4, "q": 0.4},
		PlantGoal: true, Seed: 5,
	})
	mon := mustMonitor(t, propsAF(3)["B"], ts.Props.Names)
	want := oracleSet(t, ts, mon)
	got, err := RunStreamContext(context.Background(), ts.Stream(), RunConfig{Automaton: mon})
	if err != nil {
		t.Fatal(err)
	}
	for v := range got.Verdicts {
		if !want[v] {
			t.Errorf("GC-streamed verdict %v not in oracle set %s", v, setString(want))
		}
	}
	if setString(got.Verdicts) != setString(want) {
		t.Errorf("GC-streamed verdicts %s != oracle %s", setString(got.Verdicts), setString(want))
	}
}

// --- knowledge store unit tests ---

func kevent(p, sn int, vc []int, state dist.LocalState) *dist.Event {
	return &dist.Event{Proc: p, SN: sn, Type: dist.Internal, Peer: -1, State: state, VC: vc, Time: float64(sn)}
}

func TestKnowledgeTruncate(t *testing.T) {
	k := newKnowledge(2, dist.GlobalState{7, 0})
	for sn := 1; sn <= 5; sn++ {
		if err := k.append(kevent(0, sn, []int{sn, 0}, dist.LocalState(sn))); err != nil {
			t.Fatal(err)
		}
	}
	if k.peak != 5 || k.retained != 5 {
		t.Fatalf("peak %d retained %d, want 5/5", k.peak, k.retained)
	}

	k.truncate(vclock.VC{3, 0})
	if k.len(0) != 5 {
		t.Errorf("len after truncate = %d, want 5 (sequence numbers are global)", k.len(0))
	}
	if k.floor(0) != 3 || k.retained != 2 || k.collected != 3 {
		t.Errorf("floor %d retained %d collected %d, want 3/2/3", k.floor(0), k.retained, k.collected)
	}
	// The state at the cut survives; events above it are intact.
	if got := k.state(0, 3); got != 3 {
		t.Errorf("state at floor = %d, want 3", got)
	}
	if got := k.event(0, 4).State; got != 4 {
		t.Errorf("event above floor has state %d, want 4", got)
	}
	// covers still speaks global sequence numbers.
	if !k.covers(vclock.VC{5, 0}) || k.covers(vclock.VC{6, 0}) {
		t.Error("covers broken after truncate")
	}

	// Truncation is monotone: a lower cut is a no-op.
	k.truncate(vclock.VC{1, 0})
	if k.floor(0) != 3 || k.collected != 3 {
		t.Error("lower truncate moved the floor")
	}
	// Clamped at the frontier, even for floorInf-style cuts.
	k.truncate(vclock.VC{floorInf, 0})
	if k.floor(0) != 5 || k.retained != 0 {
		t.Errorf("floor %d retained %d after full truncate, want 5/0", k.floor(0), k.retained)
	}
	if got := k.state(0, 5); got != 5 {
		t.Errorf("frontier state after full truncate = %d, want 5", got)
	}

	// Appending continues seamlessly after a full truncation.
	if err := k.append(kevent(0, 6, []int{6, 0}, 6)); err != nil {
		t.Fatal(err)
	}
	if k.len(0) != 6 || k.event(0, 6).SN != 6 {
		t.Error("append after truncate broken")
	}
	// Merges overlapping the collected prefix are silently deduplicated.
	if err := k.merge(0, []*dist.Event{kevent(0, 2, []int{2, 0}, 2), kevent(0, 7, []int{7, 0}, 7)}); err != nil {
		t.Fatalf("merge overlapping collected prefix: %v", err)
	}
	if k.len(0) != 7 {
		t.Errorf("len after merge = %d, want 7", k.len(0))
	}
}

func TestKnowledgePanicsBelowFloor(t *testing.T) {
	k := newKnowledge(1, dist.GlobalState{0})
	for sn := 1; sn <= 4; sn++ {
		if err := k.append(kevent(0, sn, []int{sn}, dist.LocalState(sn))); err != nil {
			t.Fatal(err)
		}
	}
	k.truncate(vclock.VC{2})
	for name, f := range map[string]func(){
		"event": func() { k.event(0, 2) },
		"state": func() { k.state(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s below the floor did not panic", name)
				}
			}()
			f()
		}()
	}
}
