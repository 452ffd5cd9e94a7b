package central

import (
	"bytes"
	"math/rand"
	"testing"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/lattice"
	"decentmon/internal/ltl"
)

func TestRunStreamEqualsRun(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(3)
		ts := dist.Generate(dist.GenConfig{
			N: n, InternalPerProc: 4 + rng.Intn(4),
			CommMu: 2 + rng.Float64()*4, CommSigma: 1,
			Topology: dist.Topologies[trial%len(dist.Topologies)],
			Seed:     rng.Int63(),
		})
		f := ltl.RandomFormula(rng, 7, ts.Props.Names)
		mon, err := automaton.Build(f, ts.Props.Names)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(ts, mon)
		if err != nil {
			t.Fatal(err)
		}
		// Through the serialized streaming format, exercising the reader.
		var buf bytes.Buffer
		if err := ts.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		tr, err := dist.OpenStream(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunStream(tr, mon)
		if err != nil {
			t.Fatalf("trial %d formula %s: %v", trial, f, err)
		}
		if len(got.Verdicts) != len(want.Verdicts) {
			t.Fatalf("trial %d formula %s: streamed %v != materialized %v", trial, f, got.Verdicts, want.Verdicts)
		}
		for v := range want.Verdicts {
			if !got.Verdicts[v] {
				t.Fatalf("trial %d formula %s: streamed %v != materialized %v", trial, f, got.Verdicts, want.Verdicts)
			}
		}
		if got.NodesCreated != want.NodesCreated {
			t.Errorf("trial %d: streamed %d nodes != materialized %d", trial, got.NodesCreated, want.NodesCreated)
		}
	}
}

func TestPathVerdictWithinOracleSet(t *testing.T) {
	// The physical-time linearization is one maximal path of the lattice,
	// so its verdict must always be a member of the oracle's verdict set.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(3)
		ts := dist.Generate(dist.GenConfig{
			N: n, InternalPerProc: 4 + rng.Intn(4),
			CommMu: 2 + rng.Float64()*4, CommSigma: 1,
			Topology: dist.Topologies[trial%len(dist.Topologies)],
			Seed:     rng.Int63(),
		})
		f := ltl.RandomFormula(rng, 7, ts.Props.Names)
		mon, err := automaton.Build(f, ts.Props.Names)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := lattice.Evaluate(ts, mon)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunPath(ts.Stream(), mon)
		if err != nil {
			t.Fatalf("trial %d formula %s: %v", trial, f, err)
		}
		if !oracle.VerdictSet()[res.Verdict] {
			t.Errorf("trial %d formula %s: path verdict %v outside oracle set %v",
				trial, f, res.Verdict, oracle.VerdictSet())
		}
		if res.Events != int64(ts.TotalEvents()) {
			t.Errorf("trial %d: path consumed %d events, trace has %d", trial, res.Events, ts.TotalEvents())
		}
	}
}

func TestPathStreamedEqualsMaterialized(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{
		N: 4, InternalPerProc: 10, CommMu: 3, CommSigma: 1, PlantGoal: true, Seed: 12,
	})
	mon, err := automaton.Build(ltl.MustParse("F (P0.p && P1.p && P2.p && P3.p)"), ts.Props.Names)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunPath(ts.Stream(), mon)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ts.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := dist.OpenStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunPath(tr, mon)
	if err != nil {
		t.Fatal(err)
	}
	if got.Verdict != want.Verdict || got.Events != want.Events ||
		got.FirstConclusiveEvents != want.FirstConclusiveEvents {
		t.Fatalf("streamed path %+v != materialized %+v", got, want)
	}
	// With the goal planted, the reachability property must conclude ⊤.
	if want.Verdict != automaton.Top {
		t.Errorf("planted-goal path verdict %v, want T", want.Verdict)
	}
}

func TestPathFeedOutOfOrder(t *testing.T) {
	ts := dist.RunningExample()
	mon, err := automaton.Build(ltl.MustParse(dist.RunningExampleProperty), ts.Props.Names)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewPath(mon, ts.Props, 2, ts.InitialState())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Feed(ts.Traces[0].Events[1]); err == nil {
		t.Error("out-of-order feed accepted")
	}
}

func TestPathRunningExample(t *testing.T) {
	ts := dist.RunningExample()
	mon, err := automaton.Build(ltl.MustParse(dist.RunningExampleProperty), ts.Props.Names)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPath(ts.Stream(), mon)
	if err != nil {
		t.Fatal(err)
	}
	// The oracle set is {⊥, ?}; the physical-time path must land on one of
	// the two.
	if res.Verdict == automaton.Top {
		t.Errorf("path verdict T outside the oracle set {F, ?}")
	}
}

func TestPathFeedRejectsCausalViolation(t *testing.T) {
	ts := dist.RunningExample()
	mon, err := automaton.Build(ltl.MustParse(dist.RunningExampleProperty), ts.Props.Names)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewPath(mon, ts.Props, 2, ts.InitialState())
	if err != nil {
		t.Fatal(err)
	}
	// P1's first event is the recv of m1; feeding it before P0's send
	// would evaluate a cut outside the lattice and must be refused.
	if err := m.Feed(ts.Traces[1].Events[0]); err == nil {
		t.Error("causally premature recv accepted")
	}
}
