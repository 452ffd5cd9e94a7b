package decentmon

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"decentmon/internal/core"
	"decentmon/internal/gauntlet"
	"decentmon/internal/transport/transporttest"
)

// The cross-engine conformance gauntlet: every engine of the repository —
// the decentralized monitors, the bounded single-path evaluator and the live
// Session — must agree with the oracle on the six case-study properties
// across the five communication topologies at n ∈ {2, 5, 8, 16}, and
// property B over a ring at n = 32.
//
// Ground truth is the one oracle (Oracle). At n ≤ 5 the properties run at
// full arity, so it walks the full lattice; at n ≥ 8 they run as arity-3
// instances and it walks the lattice projected onto their three support
// processes (exact, since the properties are ○-free) — the full lattice has
// ~10¹⁵ cuts there and full-width monitors are not even synthesizable.
// internal/lattice's tests hold that projection to the full DP.
//
// Engine coverage per size:
//
//   - n ≤ 5: all engines, at full verdict-set equality. The decentralized
//     engine and the live Session reach
//     the same bar because finalization now retains a residual view per
//     absorbed conclusive pivot, so inconclusive paths that avoid every
//     cut chain still report (the gap this gauntlet first exhibited at
//     D/ring/n=5 — TestFinalizeResidualRegression pins that cell).
//   - n ≥ 8: decentralized (finalization-free: the finalize pass explores
//     an n-dimensional box and is intractable by construction at n = 16),
//     bounded path and live Session; conclusive verdicts must match the
//     oracle exactly.
//
// Cells are seeded; -short trims the matrix (two topologies, n ≤ 8).

func verdictSetString(set map[Verdict]bool) string {
	out := ""
	for _, v := range []Verdict{Top, Bottom, Unknown} {
		if set[v] {
			out += v.String()
		}
	}
	return out
}

func conclusives(set map[Verdict]bool) string {
	out := ""
	for _, v := range []Verdict{Top, Bottom} {
		if set[v] {
			out += v.String()
		}
	}
	return out
}

// checkVerdictSetEqual pins the finalize-enabled decentralized contract
// against a complete oracle: full verdict-set equality, ? included.
// Soundness and conclusive-completeness are subsumed; ?-completeness is
// what the residual-view finalization bought (see TestFinalizeResidual-
// Regression for the cell that used to fail this bar).
func checkVerdictSetEqual(t *testing.T, engine string, got map[Verdict]bool, oracle *OracleResult) {
	t.Helper()
	if g, w := verdictSetString(got), verdictSetString(oracle.VerdictSet()); g != w {
		t.Errorf("%s: verdict set %q != oracle %q", engine, g, w)
	}
}

// feedSession replays a stream through a live Session and returns the
// terminal result plus the conclusive verdicts observed on the
// subscription channel.
func feedSession(t *testing.T, spec *Spec, ts *TraceSet, opts ...Option) (*RunResult, map[Verdict]bool) {
	t.Helper()
	sess, err := NewSession(spec, ts.N(), append(opts, WithInitialState(ts.InitialState()))...)
	if err != nil {
		t.Fatal(err)
	}
	observed := map[Verdict]bool{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range sess.Verdicts() {
			if ev.Conclusive {
				observed[ev.Verdict] = true
			}
		}
	}()
	src := ts.Stream()
	for {
		e, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	<-done
	return res, observed
}

// gauntletSpecs caches compiled specs across cells — synthesis of the big
// full-width machines (D and F at n=5 have 63 and 85 paper-shape states)
// dominates a cell otherwise, and every topology reuses the same spec.
var gauntletSpecs = map[string]*Spec{}

func gauntletSpec(t *testing.T, prop string, arity int) *Spec {
	t.Helper()
	key := fmt.Sprintf("%s/%d", prop, arity)
	if s, ok := gauntletSpecs[key]; ok {
		return s
	}
	s, err := CaseStudySpecAt(prop, arity)
	if err != nil {
		t.Fatal(err)
	}
	gauntletSpecs[key] = s
	return s
}

func TestConformanceGauntlet(t *testing.T) {
	short := testing.Short()
	// Verdict variety across the matrix: a gauntlet whose ground truth
	// degenerates to one verdict pins nothing; all three LTL3 verdicts must
	// be exercised somewhere (full matrix only).
	variety := map[Verdict]bool{}
	for _, cell := range gauntlet.Cells(short) {
		cell := cell
		t.Run(cell.Name(), func(t *testing.T) {
			spec := gauntletSpec(t, cell.Prop, cell.Arity)
			ts, err := Generate(cell.Gen()).WithProps(spec.Props)
			if err != nil {
				t.Fatal(err)
			}
			var oracle *OracleResult
			if cell.N <= 5 {
				oracle = conformSmall(t, spec, ts)
			} else {
				oracle = conformLarge(t, spec, ts, cell.Arity)
			}
			for v := range oracle.VerdictSet() {
				variety[v] = true
			}
		})
	}
	if !short && !t.Failed() {
		for _, v := range []Verdict{Top, Bottom, Unknown} {
			if !variety[v] {
				t.Errorf("gauntlet matrix never exercises verdict %v", v)
			}
		}
	}
}

// TestFinalizeResidualRegression pins the finalization-?' completeness
// counterexample the PR 5 gauntlet surfaced: property D, ring, n=5, seed
// 2015. The exact oracle's verdict set is {⊥, ?} — some interleavings of
// the trace violate the until obligation, others stay inconclusive to the
// final cut. Before residual-view finalization every monitor reported only
// ⊥: each monitor's own cut chain stepped every surviving view into the
// absorbing ⊥ state, so the finalize pass had no view left to extend and
// the inconclusive interleavings (which avoid every chain) went
// unreported. The retained residuals now re-explore exactly those paths.
func TestFinalizeResidualRegression(t *testing.T) {
	cell := gauntlet.Cell{Prop: "D", N: 5, Arity: 5, Topo: TopoRing, Seed: 2015}
	spec := gauntletSpec(t, cell.Prop, cell.Arity)
	ts, err := Generate(cell.Gen()).WithProps(spec.Props)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Oracle(spec, ts)
	if err != nil {
		t.Fatal(err)
	}
	// Fixture guard: the counterexample only bites while the ground truth
	// is exactly {⊥, ?}. If generator or property drift ever changes the
	// oracle set, this cell no longer pins the gap — fail loudly rather
	// than degrade into a vacuous pass.
	if got := verdictSetString(oracle.VerdictSet()); got != Bottom.String()+Unknown.String() {
		t.Fatalf("fixture drift: oracle set %q, want {⊥, ?} — repin the counterexample", got)
	}
	dec, err := Run(spec, ts)
	if err != nil {
		t.Fatal(err)
	}
	checkVerdictSetEqual(t, "decentralized", dec.Verdicts, oracle)
	sess, _ := feedSession(t, spec, ts)
	checkVerdictSetEqual(t, "session", sess.Verdicts, oracle)
}

// TestFullWidthSpaceCell: an n = 16 cell whose traces keep their whole
// PerProcess(16, "p", "q") space, 32 propositions. The arity-3 B spec runs
// against them as generated, with no WithProps: each engine binds the three
// propositions the monitor reads by name, and the verdicts equal the sliced
// oracle's.
func TestFullWidthSpaceCell(t *testing.T) {
	cell := gauntlet.Cell{Prop: "B", N: 16, Arity: 3, Topo: TopoRing, Seed: 2015}
	ts := Generate(cell.Gen())
	if ts.Props.Len() != 32 {
		t.Fatalf("the traces declare %d propositions, want 32", ts.Props.Len())
	}
	conformLarge(t, gauntletSpec(t, cell.Prop, cell.Arity), ts, cell.Arity)
}

// conformSmall checks every engine against the oracle: full verdict-set
// equality for every finalize-enabled engine.
func conformSmall(t *testing.T, spec *Spec, ts *TraceSet) *OracleResult {
	oracle, err := Oracle(spec, ts)
	if err != nil {
		t.Fatal(err)
	}
	want := verdictSetString(oracle.VerdictSet())

	dec, err := Run(spec, ts)
	if err != nil {
		t.Fatal(err)
	}
	checkVerdictSetEqual(t, "decentralized", dec.Verdicts, oracle)
	path, err := RunBounded(spec, ts.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if !oracle.HasVerdict(path.Verdict) {
		t.Errorf("bounded path verdict %v outside oracle set %s", path.Verdict, want)
	}
	sess, observed := feedSession(t, spec, ts)
	checkVerdictSetEqual(t, "session", sess.Verdicts, oracle)
	for v := range observed {
		if !oracle.HasVerdict(v) {
			t.Errorf("session emitted conclusive %v outside oracle set %s", v, want)
		}
	}
	return oracle
}

// conformLarge checks the streaming-scale engines against the oracle, which
// must have sliced the lattice to the arity-process support: detection-time
// (finalization-free) conclusive verdicts must match it exactly, and the
// bounded path must stay inside its set.
func conformLarge(t *testing.T, spec *Spec, ts *TraceSet, arity int) *OracleResult {
	oracle, err := Oracle(spec, ts)
	if err != nil {
		t.Fatal(err)
	}
	if len(oracle.SupportProcs) > arity {
		t.Fatalf("the oracle spanned %v, more than the %d support processes", oracle.SupportProcs, arity)
	}
	wantConc := conclusives(oracle.VerdictSet())

	dec, err := Run(spec, ts, WithoutFinalization())
	if err != nil {
		t.Fatal(err)
	}
	if got := conclusives(dec.Verdicts); got != wantConc {
		t.Errorf("decentralized conclusive %q != oracle %q (oracle set %v)", got, wantConc, oracle.Verdicts)
	}
	path, err := RunBounded(spec, ts.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if !oracle.HasVerdict(path.Verdict) {
		t.Errorf("bounded path verdict %v outside oracle set %v", path.Verdict, oracle.Verdicts)
	}
	sess, observed := feedSession(t, spec, ts, WithoutFinalization())
	if got := conclusives(sess.Verdicts); got != wantConc {
		t.Errorf("session conclusive %q != oracle %q", got, wantConc)
	}
	for v := range observed {
		if !oracle.HasVerdict(v) {
			t.Errorf("session emitted conclusive %v outside oracle set %v", v, oracle.Verdicts)
		}
	}
	return oracle
}

// TestCodecPathParity runs the -short gauntlet cells once per way a monitor
// message can travel and demands one verdict set from all of them: handed over
// in memory (the default in-process network), through the codec on the same
// network (transporttest.BytesOnly hides the hand-over), and through the codec
// over loopback sockets. Which path runs is decided by what the endpoint is,
// so in-process runs no longer exercise encodeMsg/decodeMsg at all; this test
// is what keeps the two representations interchangeable. The n = 8 cells run
// finalization-free like the gauntlet's, where '?' depends on which views
// survive and only the conclusive verdicts are pinned.
func TestCodecPathParity(t *testing.T) {
	for _, cell := range gauntlet.Cells(true) {
		cell := cell
		t.Run(fmt.Sprintf("%s/n%d/%v", cell.Prop, cell.N, cell.Topo), func(t *testing.T) {
			spec := gauntletSpec(t, cell.Prop, cell.Arity)
			ts, err := Generate(cell.Gen()).WithProps(spec.Props)
			if err != nil {
				t.Fatal(err)
			}
			var opts []Option
			render := verdictSetString
			if cell.N > 5 {
				opts, render = []Option{WithoutFinalization()}, conclusives
			}
			handed, err := Run(spec, ts, opts...)
			if err != nil {
				t.Fatal(err)
			}
			want := render(handed.Verdicts)
			tcp, err := NewTCPNetwork(ts.N())
			if err != nil {
				t.Fatal(err)
			}
			for path, nw := range map[string]Network{
				"bytes-only": transporttest.BytesOnly(NewChanNetwork(ts.N())),
				"tcp":        tcp,
			} {
				res, err := Run(spec, ts, append(opts, WithNetwork(nw))...)
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				if got := render(res.Verdicts); got != want {
					t.Errorf("%s run: verdicts %q != hand-over run %q", path, got, want)
				}
				// The byte counters are the paper's communication overhead: a
				// handed-over message accounts the bytes it would have been.
				if res.NetBytes == 0 || handed.NetBytes == 0 {
					t.Errorf("%s: NetBytes %d, hand-over %d — a path stopped accounting", path, res.NetBytes, handed.NetBytes)
				}
			}
			sess, _ := feedSession(t, spec, ts, append(opts, WithNetwork(transporttest.BytesOnly(NewChanNetwork(ts.N()))))...)
			if got := render(sess.Verdicts); got != want {
				t.Errorf("bytes-only session: verdicts %q != hand-over run %q", got, want)
			}
		})
	}
}

// TestFeedRunEqualsFeed: core.Session.FeedRun — the one window-feeding
// function, under RunStream and under dlmond's read loop — is event-by-event
// Feed with the gate and the hand-off amortized. On every -short gauntlet cell
// the stream fed in windows of 1, 7, 16 and all of it ends with the verdicts
// and the per-process fed counts of the stream fed one Feed at a time, and a
// window with one bad event in it feeds none of its events.
func TestFeedRunEqualsFeed(t *testing.T) {
	for _, cell := range gauntlet.Cells(true) {
		cell := cell
		t.Run(fmt.Sprintf("%s/n%d/%v", cell.Prop, cell.N, cell.Topo), func(t *testing.T) {
			spec := gauntletSpec(t, cell.Prop, cell.Arity)
			ts, err := Generate(cell.Gen()).WithProps(spec.Props)
			if err != nil {
				t.Fatal(err)
			}
			o := buildOptions([]Option{WithInitialState(ts.InitialState())})
			render := verdictSetString
			if cell.N > 5 {
				o, render = buildOptions([]Option{WithInitialState(ts.InitialState()), WithoutFinalization()}), conclusives
			}
			cfg, err := engineConfig(spec, ts.N(), o)
			if err != nil {
				t.Fatal(err)
			}
			var events []*Event
			for src := ts.Stream(); ; {
				e, err := src.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				events = append(events, e)
			}
			// run feeds the stream through feed, a window at a time, and
			// returns the verdicts and the fed counts at Close.
			run := func(window int, feed func(*core.Session, []*Event) error) (string, []int) {
				t.Helper()
				s, err := core.NewSession(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				for rest := events; len(rest) > 0; {
					w := min(window, len(rest))
					if err := feed(s, rest[:w]); err != nil {
						t.Fatal(err)
					}
					rest = rest[w:]
				}
				fed := s.Fed()
				res, err := s.Close()
				if err != nil {
					t.Fatal(err)
				}
				return render(res.Verdicts), fed
			}
			want, wantFed := run(1, func(s *core.Session, w []*Event) error { return s.Feed(w[0]) })
			var fs core.FeedScratch // one feeder's, reused across sessions as across frames
			for _, window := range []int{1, 7, 16, len(events)} {
				got, fed := run(window, func(s *core.Session, w []*Event) error { return s.FeedRun(&fs, w) })
				if got != want || !slices.Equal(fed, wantFed) {
					t.Errorf("windows of %d: verdicts %q, fed %v; event by event %q, %v", window, got, fed, want, wantFed)
				}
			}

			// One bad event — a clock of the wrong width — in the middle of
			// the first window: nothing of the window is fed.
			s, err := core.NewSession(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			window := slices.Clone(events[:min(7, len(events))])
			bad := *window[len(window)/2]
			bad.VC = append(bad.VC.Clone(), 0)
			window[len(window)/2] = &bad
			if err := s.FeedRun(&fs, window); err == nil {
				t.Error("a window with a malformed event was accepted")
			}
			if fed := s.Fed(); slices.Max(fed) != 0 {
				t.Errorf("a refused window fed %v", fed)
			}
			if err := s.FeedRun(&fs, events[:len(window)]); err != nil {
				t.Errorf("the same window without the bad event: %v", err)
			}
		})
	}
}

// TestLargeNDecentralizedSlicedCrossCheck lights up the sizes the exact
// oracle kept dark: decentralized runs at n ∈ {8, 16, 32} cross-checked
// against the sliced oracle. n = 32 uses the single-suffix proposition
// space (two suffixes would overflow the 32-bit letter encoding), so only
// the pure-p properties run there.
func TestLargeNDecentralizedSlicedCrossCheck(t *testing.T) {
	cells := []struct {
		n     int
		props []string
	}{
		{8, []string{"A", "B", "C", "D", "E", "F"}},
		{16, []string{"A", "B", "C", "D", "E", "F"}},
		{32, []string{"A", "B", "C"}},
	}
	for _, cell := range cells {
		if testing.Short() && cell.n > 8 {
			continue
		}
		for _, prop := range cell.props {
			t.Run(fmt.Sprintf("n%d/%s", cell.n, prop), func(t *testing.T) {
				spec, err := CaseStudySpecAt(prop, 3)
				if err != nil {
					t.Fatal(err)
				}
				cfg := GenConfig{
					N: cell.n, InternalPerProc: 4,
					EvtMu: 3, EvtSigma: 1, CommMu: 6, CommSigma: 1,
					Topology: TopoRing, PlantGoal: true, Seed: 7,
					TrueProbs: map[string]float64{"p": 0.9, "q": 0.8},
				}
				if 2*cell.n > 32 {
					cfg.Suffixes = []string{"p"}
				}
				ts, err := Generate(cfg).WithProps(spec.Props)
				if err != nil {
					t.Fatal(err)
				}
				oracle, err := Oracle(spec, ts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(spec, ts, WithoutFinalization())
				if err != nil {
					t.Fatal(err)
				}
				if got, want := conclusives(res.Verdicts), conclusives(oracle.VerdictSet()); got != want {
					t.Errorf("n=%d %s: run conclusive %q != sliced oracle %q", cell.n, prop, got, want)
				}
			})
		}
	}
}

// TestDenseBroadcastSlicedTractable pins the workload the sliced sweep was
// built for: broadcast at n = 16 with Commµ = 6 makes every clock causally
// dense, so the full-width region between a monitor's cut and its knowledge
// frontier spans most of the 16-dimensional lattice and the exact DP *must*
// die on its node budget — the gauntlet has always excluded this pairing for
// exactly that reason. A ○-formula over the same propositions is not
// stutter-invariant, so its support is every process and the engine takes
// that full-width DP. Slicing the same region onto the ○-free arity-3
// property's three support processes collapses it to a 3-dimensional
// projected poset: under the same node budget (the engine's constant 2²¹) the
// run completes and its conclusive verdicts match the sliced oracle.
func TestDenseBroadcastSlicedTractable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the exploding exact DP up to its node budget")
	}
	spec := gauntletSpec(t, "B", 3)
	// The calibrated 16-process engine workload (the same regime the engine
	// benchmarks use), over broadcast at the ring's communication density.
	ts, err := Generate(GenConfig{
		N: 16, InternalPerProc: 4, CommMu: 6, CommSigma: 1,
		Topology: TopoBroadcast, PlantGoal: true, Seed: 1,
		TrueProbs: map[string]float64{"p": 0.9, "q": 0.8},
	}).WithProps(spec.Props)
	if err != nil {
		t.Fatal(err)
	}
	next, err := Compile("X (F (P0.p && P1.p && P2.p))", spec.Props)
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.Run(core.RunConfig{Traces: ts, Automaton: next.mon, SkipFinalize: true})
	if err == nil {
		t.Fatal("exact DP completed the dense-broadcast cell — the explosion fixture lost its teeth (tighten the workload or drop the cell)")
	}
	if !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("exact DP failed for the wrong reason: %v", err)
	}

	oracle, err := Oracle(spec, ts)
	if err != nil {
		t.Fatal(err)
	}
	if len(oracle.SupportProcs) > 3 {
		t.Fatalf("the oracle spanned %v, more than the 3 support processes", oracle.SupportProcs)
	}
	res, err := core.Run(core.RunConfig{Traces: ts, Automaton: spec.mon, SkipFinalize: true})
	if err != nil {
		t.Fatalf("sliced run under the same node budget: %v", err)
	}
	if got, want := conclusives(res.Verdicts), conclusives(oracle.VerdictSet()); got != want {
		t.Errorf("sliced conclusive %q != sliced oracle %q (oracle set %v)", got, want, oracle.Verdicts)
	}
}
