package core

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/lattice"
	"decentmon/internal/ltl"
	"decentmon/internal/props"
	"decentmon/internal/transport"
)

func mustMonitor(t *testing.T, formula string, props []string) *automaton.Monitor {
	t.Helper()
	m, err := automaton.Build(ltl.MustParse(formula), props)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// mustLetters is the letter table compile builds for mon over pm.
func mustLetters(t *testing.T, mon *automaton.Monitor, pm *dist.PropMap, n int) *letterTable {
	t.Helper()
	prog, err := compile(&SessionConfig{N: n, Automaton: mon, Props: pm})
	if err != nil {
		t.Fatal(err)
	}
	return prog.lt
}

// builtSession is a session whose monitors are built and never launched, for
// tests that drive a monitor's handlers by hand. The test's cleanup cancels it
// and closes its network.
func builtSession(t *testing.T, cfg SessionConfig) *Session {
	t.Helper()
	s, err := buildSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.cancel()
		s.nw.Close()
	})
	return s
}

func oracleSet(t *testing.T, ts *dist.TraceSet, mon *automaton.Monitor) map[automaton.Verdict]bool {
	t.Helper()
	res, err := lattice.Evaluate(ts, mon)
	if err != nil {
		t.Fatal(err)
	}
	return res.VerdictSet()
}

func setString(s map[automaton.Verdict]bool) string {
	out := ""
	for _, v := range []automaton.Verdict{automaton.Top, automaton.Bottom, automaton.Unknown} {
		if s[v] {
			out += v.String()
		}
	}
	return out
}

// propsAF returns the paper's six case-study properties (§5.1) for n procs.
func propsAF(n int) map[string]string { return props.All(n) }

func TestRunningExampleDecentralized(t *testing.T) {
	ts := dist.RunningExample()
	mon := mustMonitor(t, dist.RunningExampleProperty, ts.Props.Names)
	want := oracleSet(t, ts, mon)
	res, err := Run(RunConfig{Traces: ts, Automaton: mon})
	if err != nil {
		t.Fatal(err)
	}
	if setString(res.Verdicts) != setString(want) {
		t.Fatalf("decentralized verdicts %s != oracle %s", setString(res.Verdicts), setString(want))
	}
	if !res.Verdicts[automaton.Bottom] {
		t.Error("running example must detect the violation path")
	}
}

func TestCaseStudyPropertiesMatchOracle(t *testing.T) {
	for n := 2; n <= 4; n++ {
		for seed := int64(0); seed < 3; seed++ {
			ts := dist.Generate(dist.GenConfig{
				N: n, InternalPerProc: 6,
				CommMu: 3, CommSigma: 1,
				PlantGoal: true, Seed: seed,
			})
			for name, f := range propsAF(n) {
				mon := mustMonitor(t, f, ts.Props.Names)
				want := oracleSet(t, ts, mon)
				res, err := Run(RunConfig{Traces: ts, Automaton: mon})
				if err != nil {
					t.Fatalf("n=%d seed=%d prop %s: %v", n, seed, name, err)
				}
				got := res.Verdicts
				// Soundness: every reported verdict is an oracle verdict.
				for v := range got {
					if !want[v] {
						t.Errorf("n=%d seed=%d prop %s: UNSOUND verdict %v (oracle %s, got %s)",
							n, seed, name, v, setString(want), setString(got))
					}
				}
				// Completeness: every oracle verdict is reported.
				for v := range want {
					if !got[v] {
						t.Errorf("n=%d seed=%d prop %s: MISSED verdict %v (oracle %s, got %s)",
							n, seed, name, v, setString(want), setString(got))
					}
				}
			}
		}
	}
}

func TestRandomProgramsSoundAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(2)
		ts := dist.Generate(dist.GenConfig{
			N: n, InternalPerProc: 4 + rng.Intn(3),
			CommMu: 2 + rng.Float64()*5, CommSigma: 1,
			Seed: rng.Int63(),
		})
		f := ltl.RandomFormula(rng, 7, ts.Props.Names)
		mon, err := automaton.Build(f, ts.Props.Names)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleSet(t, ts, mon)
		res, err := Run(RunConfig{Traces: ts, Automaton: mon})
		if err != nil {
			t.Fatalf("trial %d formula %s: %v", trial, f, err)
		}
		got := res.Verdicts
		for v := range got {
			if !want[v] {
				t.Errorf("trial %d formula %s: UNSOUND verdict %v (oracle %s, got %s)",
					trial, f, v, setString(want), setString(got))
			}
		}
		for v := range want {
			if !got[v] {
				t.Errorf("trial %d formula %s: MISSED verdict %v (oracle %s, got %s)",
					trial, f, v, setString(want), setString(got))
			}
		}
	}
}

func TestSingleProcess(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{N: 1, InternalPerProc: 8, Seed: 3})
	mon := mustMonitor(t, "F (P0.p && P0.q)", ts.Props.Names)
	want := oracleSet(t, ts, mon)
	res, err := Run(RunConfig{Traces: ts, Automaton: mon})
	if err != nil {
		t.Fatal(err)
	}
	if setString(res.Verdicts) != setString(want) {
		t.Fatalf("n=1 verdicts %s != oracle %s", setString(res.Verdicts), setString(want))
	}
	if res.NetMessages != 0 {
		t.Errorf("n=1 run sent %d messages, want 0", res.NetMessages)
	}
}

func TestMetricsSanity(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{
		N: 3, InternalPerProc: 8, CommMu: 3, CommSigma: 1, PlantGoal: true, Seed: 11,
	})
	mon := mustMonitor(t, propsAF(3)["B"], ts.Props.Names)
	res, err := Run(RunConfig{Traces: ts, Automaton: mon})
	if err != nil {
		t.Fatal(err)
	}
	totalGV, totalEvents := 0, 0
	for i, mm := range res.Metrics {
		if mm.EventsProcessed != ts.Traces[i].Len() {
			t.Errorf("monitor %d processed %d events, trace has %d", i, mm.EventsProcessed, ts.Traces[i].Len())
		}
		totalGV += mm.GlobalViewsCreated
		totalEvents += mm.EventsProcessed
	}
	if totalGV == 0 {
		t.Error("no global views created")
	}
	if res.NetMessages == 0 {
		t.Error("no monitoring messages on a communicating run")
	}
	if res.Wall <= 0 {
		t.Error("wall time not recorded")
	}
}

func TestSkipFinalizeStillSoundOnConclusives(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{
		N: 3, InternalPerProc: 6, CommMu: 3, PlantGoal: true, Seed: 13,
	})
	mon := mustMonitor(t, propsAF(3)["B"], ts.Props.Names)
	want := oracleSet(t, ts, mon)
	res, err := Run(RunConfig{Traces: ts, Automaton: mon, SkipFinalize: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []automaton.Verdict{automaton.Top, automaton.Bottom} {
		if res.Verdicts[v] && !want[v] {
			t.Errorf("no-finalize run reported conclusive %v not in oracle %s", v, setString(want))
		}
	}
	// Property B with a planted goal must still be detected without
	// finalization — detection is the token mechanism's job.
	if !res.Verdicts[automaton.Top] {
		t.Error("no-finalize run missed the planted ⊤ detection")
	}
}

func TestPacedRun(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{N: 2, InternalPerProc: 3, CommMu: 3, Seed: 17})
	mon := mustMonitor(t, propsAF(2)["B"], ts.Props.Names)
	res, err := Run(RunConfig{Traces: ts, Automaton: mon, Pace: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if res.ProgramWall <= 0 || res.Wall < res.ProgramWall {
		t.Errorf("pacing timings inconsistent: program %v wall %v", res.ProgramWall, res.Wall)
	}
}

// swappedNetwork numbers its two endpoints the wrong way round.
type swappedNetwork struct{ transport.Network }

func (nw swappedNetwork) Endpoint(i int) transport.Endpoint { return nw.Network.Endpoint(1 - i) }

// TestConfigValidation: a caller's network must hand monitor i the endpoint
// whose ID is i; the session refuses one that does not.
func TestConfigValidation(t *testing.T) {
	ts := dist.RunningExample()
	mon := mustMonitor(t, dist.RunningExampleProperty, ts.Props.Names)
	_, err := buildSession(context.Background(), SessionConfig{
		N: 2, Automaton: mon, Props: ts.Props, Init: ts.InitialState(),
		Network: swappedNetwork{transport.NewChanNetwork(2)},
	})
	if err == nil || !strings.Contains(err.Error(), "endpoint id") {
		t.Errorf("misnumbered endpoints: err = %v", err)
	}
}

// TestLettersBoundByName: the engine binds the automaton's propositions to
// the process space by name, not by position. A monitor whose propositions
// were declared in another order than the traces' reaches the oracle's
// verdicts, and one reading a proposition the space lacks is refused with an
// error naming it.
func TestLettersBoundByName(t *testing.T) {
	ts := dist.RunningExample()
	want := setString(oracleSet(t, ts, mustMonitor(t, dist.RunningExampleProperty, ts.Props.Names)))
	if want != "F?" {
		t.Fatalf("fixture: oracle %q, want F?", want)
	}
	permuted := mustMonitor(t, dist.RunningExampleProperty, []string{"x2>=15", "x1>=5", "x1=10"})
	res, err := Run(RunConfig{Traces: ts, Automaton: permuted})
	if err != nil {
		t.Fatal(err)
	}
	if got := setString(res.Verdicts); got != want {
		t.Errorf("monitor declared in another order: verdicts %q, oracle %q", got, want)
	}

	ghost := mustMonitor(t, "G (x1>=5 -> F ghost)", append(slices.Clone(ts.Props.Names), "ghost"))
	s, err := NewSession(context.Background(), SessionConfig{N: 2, Automaton: ghost, Props: ts.Props, Init: ts.InitialState()})
	if err == nil {
		s.Close()
		t.Fatal("a monitor reading an undeclared proposition was accepted")
	}
	if !strings.Contains(err.Error(), `"ghost"`) {
		t.Errorf("error %q does not name the proposition", err)
	}
}
