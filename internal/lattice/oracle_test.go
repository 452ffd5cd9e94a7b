package lattice

import (
	"fmt"
	"math/rand"
	"testing"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/ltl"
	"decentmon/internal/props"
)

func genFor(name string, n int, seed int64) *dist.TraceSet {
	cfg := dist.GenConfig{
		N: n, InternalPerProc: 5,
		EvtMu: 3, EvtSigma: 1, CommMu: 2, CommSigma: 1,
		PlantGoal: true, Seed: seed,
	}
	switch name {
	case "B", "E":
		cfg.TrueProbs = map[string]float64{"p": 0.3, "q": 0.25}
	default:
		cfg.TrueProbs = map[string]float64{"p": 0.9, "q": 0.3}
		cfg.InitTrue = []string{"p"}
	}
	return dist.Generate(cfg)
}

func verdictKey(vs []automaton.Verdict) string {
	s := map[automaton.Verdict]bool{}
	for _, v := range vs {
		s[v] = true
	}
	out := ""
	for _, v := range []automaton.Verdict{automaton.Top, automaton.Bottom, automaton.Unknown} {
		if s[v] {
			out += v.String()
		}
	}
	return out
}

// evaluateFull is the DP over the full computation lattice whatever the
// formula: the reference the chooser in Evaluate is held to.
func evaluateFull(t *testing.T, ts *dist.TraceSet, mon *automaton.Monitor) *Result {
	t.Helper()
	letters, err := ts.Props.Restrict(mon.Props)
	if err != nil {
		t.Fatal(err)
	}
	res, err := evalProjected(ts, mon, letters, allProcs(ts.N()))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func allProcs(n int) []int {
	procs := make([]int, n)
	for i := range procs {
		procs[i] = i
	}
	return procs
}

// TestOracleConformanceSmallN is the acceptance check of the chooser: on
// every case-study property at n <= 5 — at full arity and at every reduced
// arity — Evaluate's verdict set equals the full DP's, over a lattice no
// larger than the full one and spanning no more processes than the arity.
func TestOracleConformanceSmallN(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		for _, name := range props.Names {
			for arity := 2; arity <= n; arity++ {
				mon, pm, err := props.BuildAt(name, arity, false)
				if err != nil {
					t.Fatal(err)
				}
				ts, err := genFor(name, n, int64(7*n+arity)).WithProps(pm)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s arity=%d n=%d", name, arity, n)
				full := evaluateFull(t, ts, mon)
				if len(full.SupportProcs) != n {
					t.Fatalf("%s: full DP spans %v", label, full.SupportProcs)
				}
				res, err := Evaluate(ts, mon)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got, want := verdictKey(res.Verdicts), verdictKey(full.Verdicts); got != want {
					t.Errorf("%s: verdicts %s != full DP %s", label, got, want)
				}
				if len(res.SupportProcs) > arity {
					t.Errorf("%s: support %v exceeds arity", label, res.SupportProcs)
				}
				if res.NumCuts > full.NumCuts {
					t.Errorf("%s: sliced lattice (%d cuts) larger than the full one (%d)", label, res.NumCuts, full.NumCuts)
				}
			}
		}
	}
}

// TestAdversarialSlicedEqualsFull holds the chooser to the full DP on random
// executions and random formulas: for a ○-free formula Evaluate's verdict set
// equals the full DP's, and a ○-formula is refused by EvaluateSliced and
// evaluated by Evaluate over every process.
func TestAdversarialSlicedEqualsFull(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(3)
		ts := dist.Generate(dist.GenConfig{
			N: n, InternalPerProc: 4 + rng.Intn(3),
			CommMu: 2 + rng.Float64()*4, CommSigma: 1,
			Seed: rng.Int63(),
		})
		f := ltl.RandomFormula(rng, 7, ts.Props.Names)
		// Two draws a deleted sampling check consumed: kept so that every
		// trial's execution and formula stay those of
		// core.TestAdversarialOracleModes.
		rng.Intn(32)
		rng.Int63()
		mon, err := automaton.Build(f, ts.Props.Names)
		if err != nil {
			t.Fatal(err)
		}
		full := evaluateFull(t, ts, mon)
		res, err := Evaluate(ts, mon)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, f, err)
		}
		if got, want := verdictKey(res.Verdicts), verdictKey(full.Verdicts); got != want {
			t.Errorf("trial %d formula %s: Evaluate %s != full DP %s (support %v)", trial, f, got, want, res.SupportProcs)
		}
		if f.HasNext() {
			if _, err := EvaluateSliced(ts, mon); err == nil {
				t.Errorf("trial %d: sliced oracle accepted ○ formula %s", trial, f)
			}
			if len(res.SupportProcs) != n {
				t.Errorf("trial %d: ○ formula %s sliced to %v", trial, f, res.SupportProcs)
			}
		}
	}
}

// TestSlicedRejectsNext: slicing is unsound for ○ (stutter-sensitive)
// properties and must refuse them.
func TestSlicedRejectsNext(t *testing.T) {
	pm := dist.PerProcess(2, "p")
	mon, err := automaton.Build(ltl.MustParse("X P0.p"), pm.Names)
	if err != nil {
		t.Fatal(err)
	}
	ts := dist.Generate(dist.GenConfig{N: 2, InternalPerProc: 3, CommMu: 2, Seed: 1, Suffixes: []string{"p"}})
	if _, err := EvaluateSliced(ts, mon); err == nil {
		t.Fatal("sliced oracle accepted a ○ formula")
	}
}

// TestSupportProcesses: the sliced oracle's support is the owners of the
// propositions the monitor reads, not all of them, and a sparse support still
// slices exactly.
func TestSupportProcesses(t *testing.T) {
	pm := dist.PerProcess(4, "p")
	mon, err := automaton.Build(ltl.MustParse("F (P0.p && P2.p)"), pm.Names)
	if err != nil {
		t.Fatal(err)
	}
	ts := dist.Generate(dist.GenConfig{N: 4, InternalPerProc: 4, CommMu: 2, Seed: 3, Suffixes: []string{"p"}, PlantGoal: true})
	full := evaluateFull(t, ts, mon)
	sliced, err := EvaluateSliced(ts, mon)
	if err != nil {
		t.Fatal(err)
	}
	if procs := sliced.SupportProcs; len(procs) != 2 || procs[0] != 0 || procs[1] != 2 {
		t.Fatalf("support = %v, want [0 2]", procs)
	}
	if verdictKey(sliced.Verdicts) != verdictKey(full.Verdicts) {
		t.Errorf("sparse slice %v != full DP %v", sliced.Verdicts, full.Verdicts)
	}
}

// TestEvaluateChoosesLattice: the formula alone picks the lattice. A ○-free
// formula is sliced to its support; a ○-formula, a monitor without a formula
// and a formula reading no proposition take the full lattice.
func TestEvaluateChoosesLattice(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{N: 3, InternalPerProc: 3, CommMu: 2, Seed: 3, Suffixes: []string{"p"}})
	build := func(formula string) *automaton.Monitor {
		mon, err := automaton.Build(ltl.MustParse(formula), ts.Props.Names)
		if err != nil {
			t.Fatal(err)
		}
		return mon
	}
	noFormula := *build("F P1.p")
	noFormula.Formula = nil
	for _, c := range []struct {
		name string
		mon  *automaton.Monitor
		want []int
	}{
		{"X-free", build("F P1.p"), []int{1}},
		{"next", build("X P1.p"), []int{0, 1, 2}},
		{"no formula", &noFormula, []int{0, 1, 2}},
		{"no proposition", build("true"), []int{0, 1, 2}},
	} {
		res, err := Evaluate(ts, c.mon)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if fmt.Sprint(res.SupportProcs) != fmt.Sprint(c.want) {
			t.Errorf("%s: the DP spanned %v, want %v", c.name, res.SupportProcs, c.want)
		}
		if full := evaluateFull(t, ts, c.mon); verdictKey(res.Verdicts) != verdictKey(full.Verdicts) {
			t.Errorf("%s: verdicts %v != full DP %v", c.name, res.Verdicts, full.Verdicts)
		}
	}
	if _, err := EvaluateSliced(ts, &noFormula); err == nil {
		t.Error("EvaluateSliced accepted a monitor without a formula")
	}
}
