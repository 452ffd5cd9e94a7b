package core

import (
	"math/rand"
	"testing"
	"time"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/lattice"
	"decentmon/internal/ltl"
	"decentmon/internal/transport"
	"decentmon/internal/transport/transporttest"
)

// TestNoFinalizeConclusiveCompleteness checks the heart of the paper's
// claim with the finalization pass disabled: conclusive verdicts (⊤/⊥) must
// be detected by the token machinery alone, and never unsoundly.
func TestNoFinalizeConclusiveCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(3)
		ts := dist.Generate(dist.GenConfig{
			N: n, InternalPerProc: 5 + rng.Intn(4),
			CommMu: 2 + rng.Float64()*5, CommSigma: 1,
			Seed: rng.Int63(),
		})
		f := ltl.RandomFormula(rng, 8, ts.Props.Names)
		mon, err := automaton.Build(f, ts.Props.Names)
		if err != nil {
			t.Fatal(err)
		}
		res, err := lattice.Evaluate(ts, mon)
		if err != nil {
			t.Fatal(err)
		}
		want := res.VerdictSet()
		run, err := Run(RunConfig{Traces: ts, Automaton: mon, SkipFinalize: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []automaton.Verdict{automaton.Top, automaton.Bottom} {
			if want[v] && !run.Verdicts[v] {
				t.Errorf("trial %d: conclusive %v missed without finalization (formula %s)", trial, v, f)
			}
			if run.Verdicts[v] && !want[v] {
				t.Errorf("trial %d: UNSOUND %v (formula %s)", trial, v, f)
			}
		}
	}
}

// TestNoCommunicationPrograms: without program messages every event pair
// across processes is concurrent — the hardest case for path exploration
// (the "No comm" extreme of Fig. 5.9).
func TestNoCommunicationPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(2)
		ts := dist.Generate(dist.GenConfig{
			N: n, InternalPerProc: 4, CommMu: -1, Seed: rng.Int63(),
		})
		f := ltl.RandomFormula(rng, 7, ts.Props.Names)
		mon, err := automaton.Build(f, ts.Props.Names)
		if err != nil {
			t.Fatal(err)
		}
		want, err := lattice.Evaluate(ts, mon)
		if err != nil {
			t.Fatal(err)
		}
		run, err := Run(RunConfig{Traces: ts, Automaton: mon})
		if err != nil {
			t.Fatal(err)
		}
		if setString(run.Verdicts) != setString(want.VerdictSet()) {
			t.Errorf("trial %d formula %s: got %s want %s", trial, f,
				setString(run.Verdicts), setString(want.VerdictSet()))
		}
	}
}

// TestWithNetworkLatency injects randomized per-pair delivery delays so
// tokens, fetches, TERM and FINI messages interleave adversarially.
func TestWithNetworkLatency(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		n := 3
		ts := dist.Generate(dist.GenConfig{
			N: n, InternalPerProc: 5, CommMu: 3, CommSigma: 1,
			PlantGoal: trial%2 == 0, Seed: rng.Int63(),
		})
		f := ltl.RandomFormula(rng, 7, ts.Props.Names)
		mon, err := automaton.Build(f, ts.Props.Names)
		if err != nil {
			t.Fatal(err)
		}
		want, err := lattice.Evaluate(ts, mon)
		if err != nil {
			t.Fatal(err)
		}
		nw := transport.NewChanNetwork(n, transport.WithLatency(300*time.Microsecond, 150*time.Microsecond, rng.Int63()))
		run, err := Run(RunConfig{Traces: ts, Automaton: mon, Network: nw})
		if err != nil {
			t.Fatal(err)
		}
		if setString(run.Verdicts) != setString(want.VerdictSet()) {
			t.Errorf("trial %d formula %s: got %s want %s", trial, f,
				setString(run.Verdicts), setString(want.VerdictSet()))
		}
	}
}

// TestFiveProcesses exercises the paper's maximum scale.
func TestFiveProcesses(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{
		N: 5, InternalPerProc: 6, CommMu: 3, CommSigma: 1, PlantGoal: true, Seed: 2015,
	})
	for name, f := range propsAF(5) {
		mon := mustMonitor(t, f, ts.Props.Names)
		want := oracleSet(t, ts, mon)
		res, err := Run(RunConfig{Traces: ts, Automaton: mon})
		if err != nil {
			t.Fatalf("prop %s: %v", name, err)
		}
		if setString(res.Verdicts) != setString(want) {
			t.Errorf("prop %s: got %s want %s", name, setString(res.Verdicts), setString(want))
		}
	}
}

// TestDecentralizedOverTCP runs the full algorithm over real loopback
// sockets.
func TestDecentralizedOverTCP(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{
		N: 3, InternalPerProc: 5, CommMu: 3, CommSigma: 1, PlantGoal: true, Seed: 7,
	})
	mon := mustMonitor(t, propsAF(3)["D"], ts.Props.Names)
	want := oracleSet(t, ts, mon)
	nw, err := transport.NewTCPNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunConfig{Traces: ts, Automaton: mon, Network: nw})
	if err != nil {
		t.Fatal(err)
	}
	if setString(res.Verdicts) != setString(want) {
		t.Errorf("TCP run: got %s want %s", setString(res.Verdicts), setString(want))
	}
}

// TestAdversarialOracleModes threads the tractable oracles through the
// random-formula adversarial harness: for every generated execution and
// random property, the sliced oracle must equal the exact DP whenever the
// formula is ○-free, and the sampling oracle's verdicts must be a subset
// of the exact set regardless. The decentralized engine runs every trial
// too, once per message path, and must report the exact set on both.
func TestAdversarialOracleModes(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(3)
		ts := dist.Generate(dist.GenConfig{
			N: n, InternalPerProc: 4 + rng.Intn(3),
			CommMu: 2 + rng.Float64()*4, CommSigma: 1,
			Seed: rng.Int63(),
		})
		f := ltl.RandomFormula(rng, 7, ts.Props.Names)
		mon, err := automaton.Build(f, ts.Props.Names)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := lattice.Evaluate(ts, mon)
		if err != nil {
			t.Fatal(err)
		}
		// The engine against the same ground truth on both message paths:
		// handed over in memory, and through the codec.
		for path, nw := range map[string]transport.Network{
			"hand-over": transport.NewChanNetwork(n),
			"bytes":     transporttest.BytesOnly(transport.NewChanNetwork(n)),
		} {
			run, err := Run(RunConfig{Traces: ts, Automaton: mon, Network: nw})
			if err != nil {
				t.Fatalf("trial %d (%s), %s: %v", trial, f, path, err)
			}
			if setString(run.Verdicts) != setString(exact.VerdictSet()) {
				t.Errorf("trial %d formula %s, %s: engine %s != exact %s",
					trial, f, path, setString(run.Verdicts), setString(exact.VerdictSet()))
			}
		}
		if f.HasNext() {
			if _, err := lattice.EvaluateSliced(ts, mon); err == nil {
				t.Errorf("trial %d: sliced oracle accepted ○ formula %s", trial, f)
			}
		} else {
			sliced, err := lattice.EvaluateSliced(ts, mon)
			if err != nil {
				t.Fatalf("trial %d (%s): %v", trial, f, err)
			}
			if setString(sliced.VerdictSet()) != setString(exact.VerdictSet()) {
				t.Errorf("trial %d formula %s: sliced %s != exact %s (support %v)",
					trial, f, setString(sliced.VerdictSet()), setString(exact.VerdictSet()), sliced.SupportProcs)
			}
		}
		sampled, err := lattice.EvaluateSampled(ts, mon, 1+rng.Intn(32), rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		ex := exact.VerdictSet()
		for v := range sampled.VerdictSet() {
			if !ex[v] {
				t.Errorf("trial %d formula %s: sampled verdict %v outside exact set %s",
					trial, f, v, setString(ex))
			}
		}
	}
}

// TestEightProcessesSlicedOracle is the adversarial cross-check at the
// first size the exact DP cannot reach: random ○-free formulas whose
// support is confined to three of eight processes, decentralized detection
// verdicts against the sliced oracle (which is exact there).
func TestEightProcessesSlicedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 8; trial++ {
		ts := dist.Generate(dist.GenConfig{
			N: 8, InternalPerProc: 4,
			CommMu: 6, CommSigma: 1,
			Topology:  dist.TopoRing,
			TrueProbs: map[string]float64{"p": 0.8, "q": 0.7},
			PlantGoal: true, Seed: rng.Int63(),
		})
		// Restrict the alphabet to the first three processes' propositions
		// and synthesize over that sub-space (a full-width 16-proposition
		// machine is the thing reduced arity exists to avoid), then re-bind
		// the 8-process execution to it — the production pairing of
		// props.BuildAt + WithProps.
		pm := dist.PerProcess(3, "p", "q")
		var f *ltl.Formula
		for f == nil || f.HasNext() || len(f.Props()) == 0 {
			f = ltl.RandomFormula(rng, 6, pm.Names)
		}
		mon, err := automaton.Build(f, pm.Names)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := ts.WithProps(pm)
		if err != nil {
			t.Fatal(err)
		}
		want, err := lattice.EvaluateSliced(bound, mon)
		if err != nil {
			t.Fatal(err)
		}
		run, err := Run(RunConfig{Traces: bound, Automaton: mon, SkipFinalize: true})
		if err != nil {
			t.Fatal(err)
		}
		oracleSet := want.VerdictSet()
		for _, v := range []automaton.Verdict{automaton.Top, automaton.Bottom} {
			if oracleSet[v] && !run.Verdicts[v] {
				t.Errorf("trial %d: conclusive %v missed at n=8 (formula %s)", trial, v, f)
			}
			if run.Verdicts[v] && !oracleSet[v] {
				t.Errorf("trial %d: UNSOUND %v at n=8 (formula %s)", trial, v, f)
			}
		}
	}
}

// TestRepeatedRunsDeterministicVerdicts: message interleavings vary between
// runs, but the verdict set must not.
func TestRepeatedRunsDeterministicVerdicts(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{
		N: 3, InternalPerProc: 6, CommMu: 2, CommSigma: 0.5, Seed: 31,
	})
	mon := mustMonitor(t, propsAF(3)["A"], ts.Props.Names)
	first := ""
	for i := 0; i < 5; i++ {
		res, err := Run(RunConfig{Traces: ts, Automaton: mon})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = setString(res.Verdicts)
		} else if got := setString(res.Verdicts); got != first {
			t.Fatalf("run %d verdicts %s != first run %s", i, got, first)
		}
	}
}
