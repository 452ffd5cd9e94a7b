package central

import (
	"math/rand"
	"strings"
	"testing"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/lattice"
	"decentmon/internal/ltl"
	"decentmon/internal/props"
)

func TestCentralRunningExample(t *testing.T) {
	ts := dist.RunningExample()
	mon, err := automaton.Build(ltl.MustParse(dist.RunningExampleProperty), ts.Props.Names)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ts, mon)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdicts[automaton.Bottom] || !res.Verdicts[automaton.Unknown] || res.Verdicts[automaton.Top] {
		t.Fatalf("central verdicts %v, want {F,?}", res.Verdicts)
	}
	if res.Messages != 4 {
		t.Errorf("messages = %d, want 4 (P1's events)", res.Messages)
	}
	// The centralized monitor materializes the whole lattice: 17 cuts.
	if res.NodesCreated != 17 {
		t.Errorf("nodes = %d, want 17", res.NodesCreated)
	}
	if res.FirstConclusiveEvents < 1 {
		t.Errorf("no detection latency recorded: %d", res.FirstConclusiveEvents)
	}
}

func TestCentralEqualsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(3)
		ts := dist.Generate(dist.GenConfig{
			N: n, InternalPerProc: 4 + rng.Intn(4),
			CommMu: 2 + rng.Float64()*5, CommSigma: 1,
			Seed: rng.Int63(),
		})
		f := ltl.RandomFormula(rng, 8, ts.Props.Names)
		mon, err := automaton.Build(f, ts.Props.Names)
		if err != nil {
			t.Fatal(err)
		}
		want, err := lattice.Evaluate(ts, mon)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(ts, mon)
		if err != nil {
			t.Fatal(err)
		}
		ws := want.VerdictSet()
		if len(ws) != len(got.Verdicts) {
			t.Fatalf("trial %d formula %s: central %v != oracle %v", trial, f, got.Verdicts, ws)
		}
		for v := range ws {
			if !got.Verdicts[v] {
				t.Fatalf("trial %d formula %s: central %v != oracle %v", trial, f, got.Verdicts, ws)
			}
		}
		if got.NodesCreated != want.NumCuts {
			t.Errorf("trial %d: central nodes %d != lattice cuts %d", trial, got.NodesCreated, want.NumCuts)
		}
	}
}

func TestCentralCaseStudy(t *testing.T) {
	for n := 2; n <= 4; n++ {
		ts := dist.Generate(dist.GenConfig{
			N: n, InternalPerProc: 6, CommMu: 3, CommSigma: 1, PlantGoal: true, Seed: int64(n),
		})
		for name := range props.All(n) {
			mon, err := props.Build(name, n, false)
			if err != nil {
				t.Fatal(err)
			}
			want, err := lattice.Evaluate(ts, mon)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(ts, mon)
			if err != nil {
				t.Fatalf("prop %s n=%d: %v", name, n, err)
			}
			for v := range want.VerdictSet() {
				if !got.Verdicts[v] {
					t.Errorf("prop %s n=%d: central missed %v", name, n, v)
				}
			}
		}
	}
}

func TestFeedOutOfOrder(t *testing.T) {
	ts := dist.RunningExample()
	mon, err := automaton.Build(ltl.MustParse(dist.RunningExampleProperty), ts.Props.Names)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(mon, ts.Props, 2, ts.InitialState())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Feed(ts.Traces[0].Events[1]); err == nil {
		t.Error("out-of-order feed accepted")
	}
}

func TestFinishIncomplete(t *testing.T) {
	ts := dist.RunningExample()
	mon, err := automaton.Build(ltl.MustParse(dist.RunningExampleProperty), ts.Props.Names)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(mon, ts.Props, 2, ts.InitialState())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Finish(); err == nil {
		t.Error("Finish on incomplete run accepted")
	}
}

// TestNewRefusesUndeclaredProposition: both centralized monitors bind the
// automaton's propositions to the process space by name, and refuse one the
// space does not declare.
func TestNewRefusesUndeclaredProposition(t *testing.T) {
	ts := dist.RunningExample()
	mon, err := automaton.Build(ltl.MustParse("F ghost"), append(ts.Props.Names, "ghost"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(mon, ts.Props, 2, ts.InitialState()); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("New: %v, want an error naming ghost", err)
	}
	if _, err := NewPath(mon, ts.Props, 2, ts.InitialState()); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("NewPath: %v, want an error naming ghost", err)
	}
}
