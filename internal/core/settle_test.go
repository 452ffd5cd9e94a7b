package core

import (
	"context"
	"slices"
	"testing"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/lattice"
	"decentmon/internal/vclock"
)

// streamProperty is the response property the stream workloads run. Every
// state of its monitor is settled: no finite trace makes it conclusive.
const streamProperty = "G (P0.p -> F (P1.p && P2.p))"

// TestSettleStreamProperty runs the response property on an n = 8 ring. Its
// initial state is settled, so every monitor records '?' at the initial cut
// during INIT and keeps no view: no search, box exploration or fetch ever
// runs. What crosses the network is the termination wave, 4(n−1) messages,
// and the one floor announcement each monitor sends each peer when its
// need-floor becomes infinite, n(n−1).
func TestSettleStreamProperty(t *testing.T) {
	const n = 8
	ts := dist.Generate(dist.GenConfig{
		N: n, InternalPerProc: 200, CommMu: 6, CommSigma: 1,
		Topology: dist.TopoRing, Suffixes: []string{"p"}, Seed: 2015,
		TrueProbs: map[string]float64{"p": 0.5},
	})
	cfg := sessionCfg(t, ts, streamProperty)
	s, err := NewSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range allEvents(t, ts) {
		if err := s.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := setString(res.Verdicts); got != "?" {
		t.Errorf("verdicts %s, want ?", got)
	}
	for i, mt := range res.Metrics {
		if mt.BoxExplorations != 0 || mt.FetchesSent != 0 || mt.SearchesLaunched != 0 {
			t.Errorf("monitor %d: %d box explorations, %d fetches, %d searches; want none",
				i, mt.BoxExplorations, mt.FetchesSent, mt.SearchesLaunched)
		}
	}
	if want := int64(4*(n-1) + n*(n-1)); res.NetMessages != want {
		t.Errorf("%d monitor messages, want %d (termination wave plus one floor announcement per ordered pair)", res.NetMessages, want)
	}
	atInit := 0
	for ev := range s.Verdicts() {
		if ev.Verdict != automaton.Unknown || ev.Conclusive {
			t.Errorf("verdict event %+v, want an inconclusive '?'", ev)
		}
		if slices.Equal(ev.Cut, make([]int, n)) {
			atInit++
		}
	}
	if atInit != n {
		t.Errorf("%d '?' events at the initial cut, want %d (one per monitor)", atInit, n)
	}
}

// TestSettleMixedMatchesOracle runs (P0.p U P1.p) || G F P2.p, whose initial
// state is live and whose paths settle once P0.p and P1.p are both false, over
// random executions that start with P0.p and P2.p raised and P1.p lowered. Its
// verdict set must be
// the oracle's when the session is fed live, when the execution is replayed,
// and when the session is restored from a snapshot taken after a monitor
// settled a path and then fed the rest.
func TestSettleMixedMatchesOracle(t *testing.T) {
	const formula = "(P0.p U P1.p) || G F P2.p"
	restored := 0
	for seed := int64(1); seed <= 12; seed++ {
		ts := dist.Generate(dist.GenConfig{
			N: 3, InternalPerProc: 6, CommMu: 2, CommSigma: 1,
			Topology: dist.TopoRing, Suffixes: []string{"p"}, InitTrue: []string{"p"},
			TrueProbs: map[string]float64{"p": 0.4}, Seed: seed,
		})
		ts.Traces[1].Init = 0
		cfg := sessionCfg(t, ts, formula)
		oracle, err := lattice.Evaluate(ts, cfg.Automaton)
		if err != nil {
			t.Fatal(err)
		}
		want := setString(oracle.VerdictSet())
		events := allEvents(t, ts)

		live, err := NewSession(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := setString(runToVerdicts(t, live, events, nil)); got != want {
			t.Errorf("seed %d: live verdicts %s, oracle %s", seed, got, want)
		}
		res, err := Run(RunConfig{Traces: ts, Automaton: cfg.Automaton})
		if err != nil {
			t.Fatal(err)
		}
		if got := setString(res.Verdicts); got != want {
			t.Errorf("seed %d: replayed verdicts %s, oracle %s", seed, got, want)
		}

		// Feed event by event until some monitor has settled a path, snapshot
		// there, and finish the run from the blob.
		s, err := NewSession(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var blob []byte
		for _, e := range events {
			if err := s.Feed(e); err != nil {
				t.Fatal(err)
			}
			snap, err := s.Snapshot(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if settledAny(s) {
				blob = snap
				break
			}
		}
		s.Close()
		if blob == nil {
			continue
		}
		r, err := RestoreSession(context.Background(), cfg, blob)
		if err != nil {
			t.Fatal(err)
		}
		if got := setString(runToVerdicts(t, r, events, r.Fed())); got != want {
			t.Errorf("seed %d: verdicts after a restore past a settled path %s, oracle %s", seed, got, want)
		}
		restored++
	}
	t.Logf("%d of 12 executions restored past a settled path", restored)
	if restored < 3 {
		t.Errorf("only %d executions settled a path before their end; the restore case is not exercised", restored)
	}
}

// settledAny reports whether the session has emitted a settled state's '?'.
func settledAny(s *Session) bool {
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	for _, ev := range s.emitted {
		if s.cfg.Automaton.Settled(ev.State) {
			return true
		}
	}
	return false
}

// TestLaunchLedgerBounded runs a detection-only session whose searches wait
// long for a conjunction that rarely holds, at two trace lengths four times
// apart. The launch ledger (searches.launched) drops every entry below the
// need-floor, so the fleet's ledgers stay under the same bound at both
// lengths (they held 24–467 entries at exit over sixteen runs); unpruned, they
// held about 1,150 entries after 500 internal events per process and 4,650
// after 2,000.
func TestLaunchLedgerBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("two unpaced runs of 4,000 and 16,000 events")
	}
	const bound = 1000
	for _, events := range []int{500, 2000} {
		ts := dist.Generate(dist.GenConfig{
			N: 8, InternalPerProc: events, CommMu: 6, CommSigma: 1,
			Topology: dist.TopoRing, Suffixes: []string{"p"}, Seed: 1,
			TrueProbs: map[string]float64{"p": 0.08},
		})
		cfg := sessionCfg(t, ts, "F (P0.p && P1.p && P2.p && P3.p)")
		cfg.SkipFinalize = true
		s, err := NewSession(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		runToVerdicts(t, s, allEvents(t, ts), nil)
		entries := 0
		for _, m := range s.monitors { // the run loops have returned
			entries += len(m.searches.launched)
		}
		if entries > bound {
			t.Errorf("%d internal events per process: the launch ledgers hold %d entries, bound %d", events, entries, bound)
		}
		t.Logf("%d internal events per process: %d ledger entries", events, entries)
	}
}

// TestLaunchLedgerKeyCut reads the cut out of ledger keys as
// maybeLaunchSearches writes them, against floors below, at and above it.
func TestLaunchLedgerKeyCut(t *testing.T) {
	key := "0|3,4;2|7;@12,0,105"
	for _, c := range []struct {
		floor vclock.VC
		want  bool
	}{
		{vclock.VC{0, 0, 0}, true},
		{vclock.VC{12, 0, 105}, true},
		{vclock.VC{11, 0, 104}, true},
		{vclock.VC{13, 0, 0}, false},
		{vclock.VC{0, 1, 0}, false},
		{vclock.VC{0, 0, 106}, false},
		{vclock.VC{floorInf, floorInf, floorInf}, false},
	} {
		if got := atOrAbove(key, c.floor); got != c.want {
			t.Errorf("atOrAbove(%q, %v) = %v, want %v", key, c.floor, got, c.want)
		}
	}
}
