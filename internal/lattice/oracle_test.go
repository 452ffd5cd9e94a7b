package lattice

import (
	"fmt"
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

// TestOracleConformanceSmallN is the acceptance check of the oracle family:
// on every case-study property at n <= 5 — at full arity and at every
// reduced arity — the sliced oracle's verdict set equals the exact DP's,
// and the sampling oracle's is a subset of it.
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
				exact, err := Evaluate(ts, mon)
				if err != nil {
					t.Fatalf("%s: exact: %v", label, err)
				}
				if !exact.Complete || exact.Mode != ModeExact {
					t.Fatalf("%s: exact result not marked complete/exact", label)
				}
				sliced, err := EvaluateSliced(ts, mon)
				if err != nil {
					t.Fatalf("%s: sliced: %v", label, err)
				}
				if got, want := verdictKey(sliced.Verdicts), verdictKey(exact.Verdicts); got != want {
					t.Errorf("%s: sliced verdicts %s != exact %s", label, got, want)
				}
				if !sliced.Complete {
					t.Errorf("%s: sliced result not marked complete", label)
				}
				if len(sliced.SupportProcs) > arity {
					t.Errorf("%s: support %v exceeds arity", label, sliced.SupportProcs)
				}
				if sliced.NumCuts > exact.NumCuts {
					t.Errorf("%s: sliced lattice (%d cuts) larger than exact (%d)", label, sliced.NumCuts, exact.NumCuts)
				}
				for _, frontier := range []int{4, 64} {
					samp, err := EvaluateSampled(ts, mon, frontier, 42)
					if err != nil {
						t.Fatalf("%s: sampled(%d): %v", label, frontier, err)
					}
					if samp.Complete {
						t.Errorf("%s: sampled result marked complete", label)
					}
					ex := exact.VerdictSet()
					for _, v := range samp.Verdicts {
						if !ex[v] {
							t.Errorf("%s: sampled(%d) verdict %v not in exact set %v", label, frontier, v, exact.Verdicts)
						}
					}
					if len(samp.Verdicts) == 0 {
						t.Errorf("%s: sampled(%d) returned no verdict", label, frontier)
					}
				}
			}
		}
	}
}

// TestSampledFullFrontierIsExact: with a frontier bound at least the lattice
// width, nothing is thinned and the sampled set must equal the exact one.
func TestSampledFullFrontierIsExact(t *testing.T) {
	for _, name := range props.Names {
		mon, pm, err := props.BuildAt(name, 3, false)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := genFor(name, 3, 11).WithProps(pm)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := Evaluate(ts, mon)
		if err != nil {
			t.Fatal(err)
		}
		samp, err := EvaluateSampled(ts, mon, exact.MaxWidth+1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := verdictKey(samp.Verdicts), verdictKey(exact.Verdicts); got != want {
			t.Errorf("%s: unthinned sample %s != exact %s", name, got, want)
		}
	}
}

// TestSampledSeedDeterminism: equal seeds explore identically.
func TestSampledSeedDeterminism(t *testing.T) {
	mon, pm, err := props.BuildAt("D", 3, false)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := genFor("D", 4, 5).WithProps(pm)
	if err != nil {
		t.Fatal(err)
	}
	a, err := EvaluateSampled(ts, mon, 8, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvaluateSampled(ts, mon, 8, 99)
	if err != nil {
		t.Fatal(err)
	}
	if verdictKey(a.Verdicts) != verdictKey(b.Verdicts) || a.NumCuts != b.NumCuts || a.NumEdges != b.NumEdges {
		t.Errorf("same seed diverged: %v/%d/%d vs %v/%d/%d",
			a.Verdicts, a.NumCuts, a.NumEdges, b.Verdicts, b.NumCuts, b.NumEdges)
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
	exact, err := Evaluate(ts, mon)
	if err != nil {
		t.Fatal(err)
	}
	sliced, err := EvaluateSliced(ts, mon)
	if err != nil {
		t.Fatal(err)
	}
	if procs := sliced.SupportProcs; len(procs) != 2 || procs[0] != 0 || procs[1] != 2 {
		t.Fatalf("support = %v, want [0 2]", procs)
	}
	if verdictKey(sliced.Verdicts) != verdictKey(exact.Verdicts) {
		t.Errorf("sparse slice %v != exact %v", sliced.Verdicts, exact.Verdicts)
	}
}

// TestOracleModeParsing pins the mode names used by flags and configs.
func TestOracleModeParsing(t *testing.T) {
	for _, m := range Modes {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("nope"); err == nil {
		t.Error("ParseMode accepted junk")
	}
	if _, err := EvaluateOracle(dist.RunningExample(), nil, OracleConfig{Mode: Mode(9)}); err == nil {
		t.Error("EvaluateOracle accepted an unknown mode")
	}
}

// TestEvaluateOracleDispatch: the dispatcher reaches each implementation.
func TestEvaluateOracleDispatch(t *testing.T) {
	ts := dist.RunningExample()
	mon, err := automaton.Build(ltl.MustParse(dist.RunningExampleProperty), ts.Props.Names)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := EvaluateOracle(ts, mon, OracleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeSliced, ModeSampling} {
		res, err := EvaluateOracle(ts, mon, OracleConfig{Mode: mode, Seed: 7})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Mode != mode {
			t.Errorf("%v: result mode %v", mode, res.Mode)
		}
		ex := exact.VerdictSet()
		for _, v := range res.Verdicts {
			if !ex[v] {
				t.Errorf("%v: verdict %v outside exact set", mode, v)
			}
		}
	}
}
