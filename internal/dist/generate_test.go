package dist

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// checkComputation asserts the ISSUE-level validity properties directly
// (beyond Validate): per-process clocks tick by exactly one own-component
// step per event, and every Recv is matched by a Send with the same MsgID
// that is in the receive's causal past.
func checkComputation(t *testing.T, ts *TraceSet) {
	t.Helper()
	if err := ts.Validate(); err != nil {
		t.Fatalf("invalid computation: %v", err)
	}
	sends := map[int]*Event{}
	for _, tr := range ts.Traces {
		for i, e := range tr.Events {
			if e.VC[tr.Proc] != i+1 {
				t.Fatalf("process %d event %d: own clock component %d", tr.Proc, i+1, e.VC[tr.Proc])
			}
			if i > 0 {
				prev := tr.Events[i-1]
				if !prev.VC.Less(e.VC) {
					t.Fatalf("process %d: clock %v not strictly after %v", tr.Proc, e.VC, prev.VC)
				}
				if e.Time <= prev.Time {
					t.Fatalf("process %d: time %v not after %v", tr.Proc, e.Time, prev.Time)
				}
			}
			if e.Type == Send {
				sends[e.MsgID] = e
			}
		}
	}
	for _, tr := range ts.Traces {
		for _, e := range tr.Events {
			if e.Type != Recv {
				continue
			}
			s, ok := sends[e.MsgID]
			if !ok {
				t.Fatalf("recv of message %d has no send", e.MsgID)
			}
			if !s.VC.Less(e.VC) {
				t.Fatalf("send clock %v not in causal past of recv clock %v", s.VC, e.VC)
			}
			if s.Time >= e.Time {
				t.Fatalf("message %d received at %v before sent at %v", e.MsgID, e.Time, s.Time)
			}
			if len(ts.Traces) <= s.Proc || s.Peer != e.Proc || s.Proc != e.Peer {
				t.Fatalf("message %d endpoints inconsistent: send %d->%d, recv at %d from %d",
					e.MsgID, s.Proc, s.Peer, e.Proc, e.Peer)
			}
		}
	}
}

func TestGenerateValidComputations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		cfg := GenConfig{
			N:               1 + rng.Intn(5),
			InternalPerProc: rng.Intn(12),
			CommMu:          []float64{-1, 0, 1, 3, 8}[rng.Intn(5)],
			CommSigma:       rng.Float64() * 2,
			PlantGoal:       trial%2 == 0,
			Seed:            rng.Int63(),
		}
		ts := Generate(cfg)
		if ts.N() != cfg.N {
			t.Fatalf("trial %d: %d traces, want %d", trial, ts.N(), cfg.N)
		}
		if ts.Props.Len() != 2*cfg.N {
			t.Fatalf("trial %d: %d props, want %d", trial, ts.Props.Len(), 2*cfg.N)
		}
		checkComputation(t, ts)
		// Every process performs exactly InternalPerProc internal events.
		for p, tr := range ts.Traces {
			internals := 0
			for _, e := range tr.Events {
				if e.Type == Internal {
					internals++
				}
			}
			if internals != cfg.InternalPerProc {
				t.Fatalf("trial %d: process %d has %d internal events, want %d",
					trial, p, internals, cfg.InternalPerProc)
			}
		}
	}
}

func TestGenerateNoCommIsInternalOnly(t *testing.T) {
	ts := Generate(GenConfig{N: 3, InternalPerProc: 4, CommMu: -1, Seed: 9})
	for p, tr := range ts.Traces {
		if tr.Len() != 4 {
			t.Errorf("process %d has %d events, want 4", p, tr.Len())
		}
		for _, e := range tr.Events {
			if e.Type != Internal {
				t.Errorf("process %d has a %v event without communication", p, e.Type)
			}
		}
	}
}

func TestGenerateSeedDeterminism(t *testing.T) {
	cfg := GenConfig{N: 4, InternalPerProc: 8, CommMu: 3, CommSigma: 1, PlantGoal: true, Seed: 42}
	a, b := Generate(cfg), Generate(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different trace sets")
	}
	cfg.Seed = 43
	c := Generate(cfg)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical trace sets")
	}
}

func TestGeneratePlantGoalReachable(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		ts := Generate(GenConfig{
			N: 3, InternalPerProc: 5, CommMu: 2, CommSigma: 0.5,
			TrueProbs: map[string]float64{"p": 0.1, "q": 0.1},
			PlantGoal: true, Seed: seed,
		})
		final := ts.StateAtCut(ts.FinalCut())
		for p, s := range final {
			if s != 0b11 {
				t.Errorf("seed %d: process %d final state %b, want all propositions true", seed, p, s)
			}
		}
	}
}

func TestGenerateInitTrueAndProbs(t *testing.T) {
	ts := Generate(GenConfig{
		N: 2, InternalPerProc: 30, CommMu: -1,
		TrueProbs: map[string]float64{"p": 1, "q": 0},
		InitTrue:  []string{"p"},
		Seed:      5,
	})
	for p, tr := range ts.Traces {
		if tr.Init != 0b01 {
			t.Errorf("process %d initial state %b, want p only", p, tr.Init)
		}
		for _, e := range tr.Events {
			if e.State != 0b01 {
				t.Errorf("process %d state %b under p=1/q=0 probabilities", p, e.State)
			}
		}
	}
}

func TestGenerateGlobalTimesStrictlyIncrease(t *testing.T) {
	ts := Generate(GenConfig{N: 4, InternalPerProc: 6, CommMu: 1, CommSigma: 0.2, Seed: 11})
	var all []float64
	for _, tr := range ts.Traces {
		for _, e := range tr.Events {
			all = append(all, e.Time)
		}
	}
	seen := map[float64]bool{}
	for _, tm := range all {
		if seen[tm] {
			t.Fatalf("duplicate global timestamp %v", tm)
		}
		seen[tm] = true
	}
}

func TestGenerateEmpty(t *testing.T) {
	ts := Generate(GenConfig{})
	if ts.N() != 0 || ts.TotalEvents() != 0 {
		t.Errorf("zero config produced %d traces / %d events", ts.N(), ts.TotalEvents())
	}
	if ts.Props == nil || ts.Props.Len() != 0 {
		t.Error("zero config must still carry an (empty) proposition map")
	}
}

// --- communication topologies ---

// sendPairs collects every (from, to) send pair of the execution.
func sendPairs(ts *TraceSet) [][2]int {
	var out [][2]int
	for _, tr := range ts.Traces {
		for _, e := range tr.Events {
			if e.Type == Send {
				out = append(out, [2]int{e.Proc, e.Peer})
			}
		}
	}
	return out
}

func topoCfg(topo Topology, n int) GenConfig {
	return GenConfig{
		N: n, InternalPerProc: 6,
		CommMu: 2, CommSigma: 0.5,
		Topology: topo, Seed: 17,
	}
}

func TestTopologyRing(t *testing.T) {
	n := 7
	ts := Generate(topoCfg(TopoRing, n))
	checkComputation(t, ts)
	pairs := sendPairs(ts)
	if len(pairs) == 0 {
		t.Fatal("ring execution has no sends")
	}
	for _, pr := range pairs {
		if pr[1] != (pr[0]+1)%n {
			t.Errorf("ring send %d -> %d, want successor %d", pr[0], pr[1], (pr[0]+1)%n)
		}
	}
}

func TestTopologyStar(t *testing.T) {
	cfg := topoCfg(TopoStar, 6)
	cfg.Hub = 2
	ts := Generate(cfg)
	checkComputation(t, ts)
	pairs := sendPairs(ts)
	if len(pairs) == 0 {
		t.Fatal("star execution has no sends")
	}
	for _, pr := range pairs {
		if pr[0] != cfg.Hub && pr[1] != cfg.Hub {
			t.Errorf("star send %d -> %d bypasses hub %d", pr[0], pr[1], cfg.Hub)
		}
		if pr[0] == cfg.Hub && pr[1] == cfg.Hub {
			t.Errorf("hub sends to itself")
		}
	}
}

func TestTopologyBroadcast(t *testing.T) {
	n := 5
	ts := Generate(topoCfg(TopoBroadcast, n))
	checkComputation(t, ts)
	// Every broadcast burst sends to all n-1 peers, so per-process send
	// counts must be multiples of n-1 covering every destination equally.
	for p, tr := range ts.Traces {
		perDst := map[int]int{}
		sends := 0
		for _, e := range tr.Events {
			if e.Type == Send {
				sends++
				perDst[e.Peer]++
			}
		}
		if sends == 0 {
			continue
		}
		if sends%(n-1) != 0 {
			t.Errorf("process %d made %d sends, not a multiple of %d", p, sends, n-1)
		}
		for d, c := range perDst {
			if c != sends/(n-1) {
				t.Errorf("process %d sent %d times to %d, want %d", p, c, d, sends/(n-1))
			}
		}
	}
}

func TestTopologyClusteredPartitioned(t *testing.T) {
	cfg := topoCfg(TopoClustered, 8)
	cfg.Clusters = 2 // processes 0..3 and 4..7
	ts := Generate(cfg)
	checkComputation(t, ts)
	pairs := sendPairs(ts)
	if len(pairs) == 0 {
		t.Fatal("clustered execution has no sends")
	}
	for _, pr := range pairs {
		if (pr[0] < 4) != (pr[1] < 4) {
			t.Errorf("partitioned send %d -> %d crosses clusters", pr[0], pr[1])
		}
	}
}

func TestTopologyClusteredCrossTraffic(t *testing.T) {
	cfg := topoCfg(TopoClustered, 8)
	cfg.Clusters = 2
	cfg.CrossProb = 0.5
	cfg.InternalPerProc = 20
	ts := Generate(cfg)
	checkComputation(t, ts)
	cross := 0
	for _, pr := range sendPairs(ts) {
		if (pr[0] < 4) != (pr[1] < 4) {
			cross++
		}
	}
	if cross == 0 {
		t.Error("CrossProb=0.5 produced no cross-cluster traffic")
	}
}

func TestTopologiesValidUpTo32(t *testing.T) {
	// The full ceiling: 32 processes with a single proposition suffix.
	for _, topo := range Topologies {
		cfg := GenConfig{
			N: 32, InternalPerProc: 3,
			CommMu: 2, CommSigma: 0.5,
			Topology: topo, Suffixes: []string{"p"},
			Seed: 23,
		}
		if topo == TopoClustered {
			cfg.Clusters = 4
			cfg.CrossProb = 0.1
		}
		ts := Generate(cfg)
		if ts.N() != 32 || ts.Props.Len() != 32 {
			t.Fatalf("%v: %d processes / %d props", topo, ts.N(), ts.Props.Len())
		}
		checkComputation(t, ts)
	}
}

func TestTopologySeedDeterminism(t *testing.T) {
	for _, topo := range Topologies {
		cfg := topoCfg(topo, 6)
		cfg.Clusters = 3
		cfg.CrossProb = 0.2
		a, b := Generate(cfg), Generate(cfg)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: same seed produced different executions", topo)
		}
		cfg.Seed++
		if reflect.DeepEqual(a, Generate(cfg)) {
			t.Errorf("%v: different seeds produced identical executions", topo)
		}
	}
}

func TestGenerateStreamMatchesGenerate(t *testing.T) {
	for _, topo := range Topologies {
		cfg := topoCfg(topo, 5)
		want := Generate(cfg)
		got := &TraceSet{Props: cfg.Props()}
		init := cfg.InitState()
		for p := 0; p < cfg.N; p++ {
			got.Traces = append(got.Traces, &Trace{Proc: p, Init: init[p]})
		}
		prev := -1.0
		if err := GenerateStream(cfg, func(e *Event) error {
			if e.Time <= prev {
				t.Fatalf("%v: stream time %v not after %v", topo, e.Time, prev)
			}
			prev = e.Time
			got.Traces[e.Proc].Events = append(got.Traces[e.Proc].Events, e)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%v: GenerateStream and Generate disagree", topo)
		}
	}
}

// suffixes returns k distinct proposition suffixes.
func suffixes(k int) []string {
	suf := make([]string, k)
	for i := range suf {
		suf[i] = fmt.Sprintf("s%d", i)
	}
	return suf
}

// TestGenerateStreamRejectsOversizedConfig pins both bounds a generated
// execution meets, at the bound and one past it: a process's propositions
// fill at most its 32-bit local state (MaxLocalProps suffixes), and the
// process and proposition counts are ones a trace reader accepts (MaxSpace).
// 48 processes × 2 suffixes, 96 declared propositions, generate.
func TestGenerateStreamRejectsOversizedConfig(t *testing.T) {
	none := func(*Event) error { return nil }
	if err := GenerateStream(GenConfig{N: 2, InternalPerProc: 1, Suffixes: suffixes(MaxLocalProps)}, none); err != nil {
		t.Errorf("%d suffixes rejected: %v", MaxLocalProps, err)
	}
	err := GenerateStream(GenConfig{N: 2, InternalPerProc: 1, Suffixes: suffixes(MaxLocalProps + 1)}, none)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d proposition suffixes", MaxLocalProps+1)) {
		t.Errorf("%d suffixes accepted: %v", MaxLocalProps+1, err)
	}
	if err := GenerateStream(GenConfig{N: 48, InternalPerProc: 1}, none); err != nil {
		t.Errorf("48 two-suffix processes rejected: %v", err)
	}
	for _, c := range []struct {
		cfg  GenConfig
		want string // "" = accepted
	}{
		{GenConfig{N: MaxSpace, Suffixes: []string{"p"}}, ""},
		{GenConfig{N: MaxSpace + 1, Suffixes: []string{"p"}}, fmt.Sprintf("%d processes (max %d)", MaxSpace+1, MaxSpace)},
		{GenConfig{N: MaxSpace / 2}, ""},
		{GenConfig{N: MaxSpace/2 + 1}, fmt.Sprintf("%d propositions (max %d)", MaxSpace+2, MaxSpace)},
	} {
		err := c.cfg.Check()
		if c.want == "" && err != nil {
			t.Errorf("%d×%d: %v", c.cfg.N, len(c.cfg.suffixes()), err)
		}
		if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%d×%d: %v, want an error containing %q", c.cfg.N, len(c.cfg.suffixes()), err, c.want)
		}
	}
}

func TestCheckRejectsBadSuffixes(t *testing.T) {
	if err := (GenConfig{N: 2, Suffixes: []string{"p", "p"}}).Check(); err == nil {
		t.Error("duplicate suffix accepted")
	}
	if err := (GenConfig{N: 2, Suffixes: []string{""}}).Check(); err == nil {
		t.Error("empty suffix accepted")
	}
}

func TestGeneratePanicsWithDescriptiveError(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("oversized config did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), fmt.Sprintf("%d proposition suffixes, more than the %d", MaxLocalProps+1, MaxLocalProps)) {
			t.Errorf("panic %v lacks Check's message", r)
		}
	}()
	if ts := Generate(GenConfig{N: 1, InternalPerProc: 1, Suffixes: suffixes(MaxLocalProps)}); ts.Props.Len() != MaxLocalProps {
		t.Fatalf("%d suffixes declared %d propositions", MaxLocalProps, ts.Props.Len())
	}
	Generate(GenConfig{N: 1, InternalPerProc: 1, Suffixes: suffixes(MaxLocalProps + 1)})
}

func TestClusteredSingleClusterNeverCrosses(t *testing.T) {
	// One cluster spanning every process has nowhere to cross to; the
	// cross-probability must be ignored rather than panic.
	cfg := topoCfg(TopoClustered, 4)
	cfg.Clusters = 1
	cfg.CrossProb = 0.9
	ts := Generate(cfg)
	checkComputation(t, ts)
	if len(sendPairs(ts)) == 0 {
		t.Error("single-cluster execution has no sends")
	}
}
