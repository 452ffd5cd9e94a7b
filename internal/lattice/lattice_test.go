package lattice

import (
	"math/rand"
	"testing"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/ltl"
)

func runningMonitor(t *testing.T, ts *dist.TraceSet) *automaton.Monitor {
	t.Helper()
	m, err := automaton.Build(ltl.MustParse(dist.RunningExampleProperty), ts.Props.Names)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRunningExampleLattice reproduces Fig. 2.2b: the computation lattice of
// the Fig. 2.1 program has exactly 17 consistent cuts.
func TestRunningExampleLattice(t *testing.T) {
	ts := dist.RunningExample()
	if got := CountCuts(ts); got != 17 {
		t.Errorf("running example lattice has %d cuts, want 17 (Fig 2.2b)", got)
	}
}

// TestRunningExampleOracle reproduces Chapter 3 / Fig. 3.1: over all lattice
// paths, ψ yields verdicts {⊥, ?} — every path through ⟨e11⟩ before x2≥15 is
// violating, while path β stays inconclusive.
func TestRunningExampleOracle(t *testing.T) {
	ts := dist.RunningExample()
	mon := runningMonitor(t, ts)
	res, err := Evaluate(ts, mon)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCuts != 17 {
		t.Errorf("NumCuts = %d, want 17", res.NumCuts)
	}
	vs := res.VerdictSet()
	if !vs[automaton.Bottom] || !vs[automaton.Unknown] || vs[automaton.Top] {
		t.Errorf("oracle verdicts = %v, want {F, ?}", res.Verdicts)
	}
	if res.FirstConclusiveRank < 1 {
		t.Errorf("FirstConclusiveRank = %d, want >= 1", res.FirstConclusiveRank)
	}
}

// TestOracleMatchesPathEnumeration cross-validates the DP against explicit
// path enumeration on random small executions and random properties, over
// the lattice Evaluate chooses and over the full one.
func TestOracleMatchesPathEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(2)
		ts := dist.Generate(dist.GenConfig{
			N: n, InternalPerProc: 3 + rng.Intn(2),
			CommMu: 2 + rng.Float64()*4, CommSigma: 1,
			Seed: rng.Int63(),
		})
		f := ltl.RandomFormula(rng, 7, ts.Props.Names)
		mon, err := automaton.Build(f, ts.Props.Names)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Evaluate(ts, mon)
		if err != nil {
			t.Fatal(err)
		}
		want, paths, err := EnumeratePathVerdicts(ts, mon, 2_000_000)
		if err != nil {
			t.Skipf("too many paths: %v", err)
		}
		if paths < 1 {
			t.Fatal("no paths enumerated")
		}
		// Both the lattice Evaluate chooses and the full one.
		for _, dp := range []*Result{res, evaluateFull(t, ts, mon)} {
			got := dp.VerdictSet()
			if len(got) != len(want) {
				t.Fatalf("formula %s: DP over %v: verdicts %v != path verdicts %v", f, dp.SupportProcs, got, want)
			}
			for v := range want {
				if !got[v] {
					t.Fatalf("formula %s: DP over %v: verdicts %v != path verdicts %v", f, dp.SupportProcs, got, want)
				}
			}
		}
	}
}

// TestTotalOrderExecution: with a single process the lattice is a chain and
// the oracle verdict is the plain LTL3 verdict of the only trace.
func TestTotalOrderExecution(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{N: 1, InternalPerProc: 6, Seed: 4})
	mon, err := automaton.Build(ltl.MustParse("F (P0.p && P0.q)"), ts.Props.Names)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(ts, mon)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCuts != ts.TotalEvents()+1 {
		t.Errorf("chain lattice has %d cuts, want %d", res.NumCuts, ts.TotalEvents()+1)
	}
	if len(res.Verdicts) != 1 {
		t.Errorf("total order must give exactly one verdict, got %v", res.Verdicts)
	}
	// Cross-check against a direct monitor run.
	word := []uint32{ts.Props.Letter(ts.InitialState())}
	for k := 1; k <= ts.Traces[0].Len(); k++ {
		word = append(word, ts.Props.Letter(dist.GlobalState{ts.Traces[0].StateAt(k)}))
	}
	if got := mon.Run(word); got != res.Verdicts[0] {
		t.Errorf("oracle %v != direct run %v", res.Verdicts[0], got)
	}
}

// TestNoCommLatticeIsGrid: without communication every interleaving is
// possible, so the lattice is the full grid.
func TestNoCommLatticeIsGrid(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{N: 3, InternalPerProc: 3, CommMu: -1, Seed: 5})
	want := 4 * 4 * 4
	if got := CountCuts(ts); got != want {
		t.Errorf("grid lattice has %d cuts, want %d", got, want)
	}
}

// TestCommunicationShrinksLattice: messages impose order, so the lattice of
// a communicating execution is a strict (and typically small) fraction of
// its full interleaving grid, while a communication-free execution fills the
// grid completely.
func TestCommunicationShrinksLattice(t *testing.T) {
	grid := func(ts *dist.TraceSet) int {
		g := 1
		for _, tr := range ts.Traces {
			g *= tr.Len() + 1
		}
		return g
	}
	loose := dist.Generate(dist.GenConfig{N: 3, InternalPerProc: 5, CommMu: -1, Seed: 6})
	if CountCuts(loose) != grid(loose) {
		t.Errorf("no-comm lattice %d != grid %d", CountCuts(loose), grid(loose))
	}
	tight := dist.Generate(dist.GenConfig{N: 3, InternalPerProc: 5, CommMu: 1, CommSigma: 0.2, Seed: 6})
	if got, bound := CountCuts(tight), grid(tight); got*2 >= bound {
		t.Errorf("communicating lattice %d should be well under half its grid bound %d", got, bound)
	}
}

// TestPlantedGoalReachesTop: with PlantGoal, property B (eventually all
// propositions true) must have a ⊤ path: the final cut has all p,q true.
func TestPlantedGoalReachesTop(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{N: 3, InternalPerProc: 4, CommMu: 3, PlantGoal: true, Seed: 7})
	mon, err := automaton.Build(
		ltl.MustParse("F (P0.p && P1.p && P2.p)"), ts.Props.Names)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(ts, mon)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasVerdict(automaton.Top) {
		t.Errorf("planted goal not reached: verdicts %v", res.Verdicts)
	}
}

func TestEvaluatePropMismatch(t *testing.T) {
	ts := dist.RunningExample()
	mon, err := automaton.Build(ltl.MustParse("p"), []string{"p"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(ts, mon); err == nil {
		t.Error("prop mismatch accepted")
	}
	if _, _, err := EnumeratePathVerdicts(ts, mon, 10); err == nil {
		t.Error("prop mismatch accepted by enumerator")
	}
}

func TestEnumerationCap(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{N: 3, InternalPerProc: 4, CommMu: -1, Seed: 8})
	mon, err := automaton.Build(ltl.MustParse("F P0.p"), ts.Props.Names)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := EnumeratePathVerdicts(ts, mon, 3); err == nil {
		t.Error("path cap not enforced")
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Verdicts: []automaton.Verdict{automaton.Unknown, automaton.Bottom}}
	if !r.HasVerdict(automaton.Bottom) || r.HasVerdict(automaton.Top) {
		t.Error("HasVerdict wrong")
	}
	s := r.VerdictSet()
	if len(s) != 2 || !s[automaton.Unknown] {
		t.Error("VerdictSet wrong")
	}
}
