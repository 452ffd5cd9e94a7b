// Package experiments regenerates every table and figure of the paper's
// evaluation (Chapter 5) on the simulated device network: Table 5.1 and
// Fig. 5.1 (automaton sizes), Figs. 5.2/5.3 (the automata themselves),
// Figs. 5.4/5.5 (message overhead), Fig. 5.6 (delay-time percentage),
// Fig. 5.7 (delayed events), Fig. 5.8 (memory overhead as global views) and
// Fig. 5.9 (communication-frequency sweep). The cmd/experiments binary and
// the repository-level benchmarks are thin wrappers around this package.
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"decentmon/internal/automaton"
	"decentmon/internal/core"
	"decentmon/internal/dist"
	"decentmon/internal/lattice"
	"decentmon/internal/ltl"
	"decentmon/internal/props"
)

// Config tunes the experiment sweep; zero values take the paper's settings.
// The sweeps monitor with the paper-shape (progression) machines, whose
// intermediate ?-states the paper's figures depend on.
type Config struct {
	Ns              []int   // process counts (paper: 2..5)
	Seeds           []int64 // replications averaged (paper: 3)
	InternalPerProc int     // valuation-change events per process
	EvtMu, EvtSigma float64 // seconds (paper: 3, 1)
	CommMu          float64 // seconds (paper: 3; <=0 disables)
	CommSigma       float64
	// Topology shapes the communication pattern (default dist.TopoUniform,
	// the paper's workload).
	Topology dist.Topology
	Pace     float64 // real-time replay scale for delay experiments
}

func (c Config) withDefaults() Config {
	if len(c.Ns) == 0 {
		c.Ns = []int{2, 3, 4, 5}
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1, 2, 3}
	}
	if c.InternalPerProc == 0 {
		c.InternalPerProc = 15
	}
	if c.EvtMu == 0 {
		c.EvtMu = 3
	}
	if c.EvtSigma == 0 {
		c.EvtSigma = 1
	}
	if c.CommMu == 0 {
		c.CommMu = 3
	}
	if c.CommSigma == 0 {
		c.CommSigma = 1
	}
	return c
}

// --- Table 5.1 / Fig 5.1 ---

// Table51Row is one cell of Table 5.1: our synthesized automaton versus the
// counts the paper reports.
type Table51Row struct {
	Property                      string
	N                             int
	States                        int
	Total, Outgoing, Self         int
	PaperTot, PaperOut, PaperSelf int
}

// paper51 is Table 5.1 as printed in the thesis (including its two
// arithmetic typos at B/5 and D/4, kept verbatim).
var paper51 = map[string][4][3]int{
	"A": {{7, 4, 3}, {11, 7, 4}, {15, 11, 4}, {21, 16, 5}},
	"B": {{4, 1, 3}, {5, 1, 4}, {6, 1, 5}, {7, 1, 7}},
	"C": {{7, 4, 3}, {11, 7, 4}, {15, 11, 4}, {19, 13, 6}},
	"D": {{15, 11, 4}, {27, 22, 5}, {43, 35, 7}, {63, 56, 7}},
	"E": {{6, 1, 5}, {8, 1, 7}, {10, 1, 9}, {12, 1, 11}},
	"F": {{31, 23, 8}, {49, 37, 12}, {67, 51, 16}, {85, 65, 20}},
}

// Table51 synthesizes all 24 automata (paper-shape construction) and
// returns the comparison rows; it also serves Fig. 5.1, which plots the
// same data.
func Table51() ([]Table51Row, error) {
	var rows []Table51Row
	for _, name := range props.Names {
		for n := 2; n <= 5; n++ {
			m, err := props.Build(name, n, true)
			if err != nil {
				return nil, err
			}
			tot, out, self := m.CountTransitions()
			p := paper51[name][n-2]
			rows = append(rows, Table51Row{
				Property: name, N: n, States: m.NumStates(),
				Total: tot, Outgoing: out, Self: self,
				PaperTot: p[0], PaperOut: p[1], PaperSelf: p[2],
			})
		}
	}
	return rows, nil
}

// Automata renders the monitor automata of Figs. 5.2/5.3 (and Fig. 2.3's
// running example) in DOT format, keyed by "<property>/<n>".
func Automata(n int) (map[string]string, error) {
	out := map[string]string{}
	for _, name := range props.Names {
		m, err := props.Build(name, n, true)
		if err != nil {
			return nil, err
		}
		out[fmt.Sprintf("%s/%d", name, n)] = m.Dot(fmt.Sprintf("prop%s_%d", name, n))
	}
	return out, nil
}

// --- shared measurement cell ---

// Cell aggregates one (property, n) measurement averaged over seeds. It
// feeds Figs. 5.4–5.9.
type Cell struct {
	Property string
	N        int
	// Events is the average total number of program events (internal +
	// send + receive), the x-baseline of Figs. 5.4/5.5.
	Events float64
	// Messages is the average number of monitoring messages exchanged
	// (token hops, fetches and replies, termination handshake).
	Messages float64
	// GlobalViews is the average total number of global views created
	// across all monitors (Fig. 5.8).
	GlobalViews float64
	// DelayedEvents is the average local-event queue length observed at
	// monitors (Fig. 5.7).
	DelayedEvents float64
	// DelayPct is the paper's Fig. 5.6 metric:
	// ((monitorExtraTime/programTime)*100) / totalGlobalViews.
	DelayPct float64
	// KnowledgePeak is the average (over seeds) of the largest knowledge
	// store any monitor held — the memory-boundedness metric of the
	// GC-enabled streaming path.
	KnowledgePeak float64
	// Verdicts observed (union across monitors), for sanity reporting.
	Verdicts string
}

// Measure runs the decentralized algorithm for one property at one size
// over the config's seeds and returns the averaged cell.
func Measure(property string, n int, cfg Config) (*Cell, error) {
	mon, err := props.Build(property, n, true)
	if err != nil {
		return nil, err
	}
	return MeasureMonitor(mon, property, n, cfg)
}

// MeasureMonitor is Measure with the property's monitor built by the caller,
// for ablations against the paper shape such as the minimal LTL3 monitor.
func MeasureMonitor(mon *automaton.Monitor, property string, n int, cfg Config) (*Cell, error) {
	cfg = cfg.withDefaults()
	cell := &Cell{Property: property, N: n}
	verdicts := map[automaton.Verdict]bool{}
	for _, seed := range cfg.Seeds {
		gc := genConfig(property, n, seed, cfg)
		if err := gc.Check(); err != nil {
			return nil, fmt.Errorf("%s n=%d: %w", property, n, err)
		}
		ts := dist.Generate(gc)
		res, err := core.Run(core.RunConfig{
			Traces:       ts,
			Automaton:    mon,
			SkipFinalize: true, // measure detection traffic, like the paper
			Pace:         cfg.Pace,
		})
		if err != nil {
			return nil, fmt.Errorf("%s n=%d seed=%d: %w", property, n, seed, err)
		}
		cell.Events += float64(ts.TotalEvents())
		cell.Messages += float64(res.NetMessages)
		gv, peak := 0, 0
		delayedSum, delaySamples := 0, 0
		for _, m := range res.Metrics {
			gv += m.GlobalViewsCreated
			delayedSum += m.DelayedEventsSum
			delaySamples += m.DelaySamples
			if m.KnowledgePeak > peak {
				peak = m.KnowledgePeak
			}
		}
		cell.KnowledgePeak += float64(peak)
		cell.GlobalViews += float64(gv)
		if delaySamples > 0 {
			cell.DelayedEvents += float64(delayedSum) / float64(delaySamples)
		}
		// The Fig. 5.6 delay metric is only meaningful on paced (real-time)
		// replays; unpaced runs have a degenerate program wall time.
		if cfg.Pace > 0 && res.ProgramWall > 0 && gv > 0 {
			extra := res.Wall - res.ProgramWall
			cell.DelayPct += (float64(extra) / float64(res.ProgramWall) * 100) / float64(gv)
		}
		for v := range res.Verdicts {
			verdicts[v] = true
		}
	}
	k := float64(len(cfg.Seeds))
	cell.Events /= k
	cell.Messages /= k
	cell.GlobalViews /= k
	cell.DelayedEvents /= k
	cell.DelayPct /= k
	cell.KnowledgePeak /= k
	cell.Verdicts = verdictString(verdicts)
	return cell, nil
}

func verdictString(set map[automaton.Verdict]bool) string {
	var vs []string
	for v := range set {
		vs = append(vs, v.String())
	}
	sort.Strings(vs)
	return strings.Join(vs, ",")
}

// genConfig reproduces the paper's "designed" traces (§5.1), which differ by
// property family. For the □((…p) U (…q)) family (A, C, D, F) the initial
// state raises all p (so the until obligation holds at time zero) and keeps
// p biased true / q biased false, leaving a long inconclusive prefix. For
// the reachability family (B, E) the propositions start false and drift, so
// the target conjunction is not satisfied trivially. In both cases the
// final internal event of every process raises all propositions, ensuring a
// lattice path into a final automaton state exists ("the variable valuation
// change events were designed such that there would be a path in the
// execution lattice that would lead to a final state").
func genConfig(property string, n int, seed int64, cfg Config) dist.GenConfig {
	gc := dist.GenConfig{
		N: n, InternalPerProc: cfg.InternalPerProc,
		EvtMu: cfg.EvtMu, EvtSigma: cfg.EvtSigma,
		CommMu: cfg.CommMu, CommSigma: cfg.CommSigma,
		Topology: cfg.Topology, PlantGoal: true,
		Seed: seed,
	}
	switch property {
	case "B", "E":
		// Reachability targets: propositions drift mostly false, so local
		// conjuncts rarely hold and monitors rarely need to consult peers —
		// the regime in which the paper reports sub-linear message growth
		// for B and E (Figs. 5.4b/5.5b).
		gc.TrueProbs = map[string]float64{"p": 0.3, "q": 0.25}
	case "F":
		// F's two untils require both p and q obligations to hold from the
		// start; both stay biased high so the run remains inconclusive over
		// a long prefix.
		gc.TrueProbs = map[string]float64{"p": 0.95, "q": 0.9}
		gc.InitTrue = []string{"p", "q"}
	default: // A, C, D
		gc.TrueProbs = map[string]float64{"p": 0.95, "q": 0.2}
		gc.InitTrue = []string{"p"}
	}
	return gc
}

// Sweep measures the given properties across the config's process counts.
func Sweep(properties []string, cfg Config) ([]*Cell, error) {
	cfg = cfg.withDefaults()
	var cells []*Cell
	for _, p := range properties {
		for _, n := range cfg.Ns {
			c, err := Measure(p, n, cfg)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// --- Fig 5.9: communication frequency sweep ---

// CommFreqCell is one bar group of Fig. 5.9: property C, 4 processes,
// varying Commµ (the paper uses 3, 6, 9, 15 and no communication).
type CommFreqCell struct {
	Label string
	Cell
}

// CommFrequency reproduces Fig. 5.9.
func CommFrequency(cfg Config) ([]*CommFreqCell, error) {
	cfg = cfg.withDefaults()
	var out []*CommFreqCell
	for _, mu := range []float64{3, 6, 9, 15, -1} {
		c := cfg
		c.CommMu = mu
		label := fmt.Sprintf("commMu=%g", mu)
		if mu < 0 {
			label = "no comm"
		}
		cell, err := Measure("C", 4, c)
		if err != nil {
			return nil, err
		}
		out = append(out, &CommFreqCell{Label: label, Cell: *cell})
	}
	return out, nil
}

// --- topology ablation ---

// TopologyCell is one row of the communication-topology sweep: the same
// property and process count measured under a different communication
// pattern. It extends the paper's Fig. 5.9 frequency sweep into the shape
// dimension — rings, hubs, broadcast storms and partitioned clusters stress
// the token routing and causal-gap fetching very differently.
type TopologyCell struct {
	Topology string
	Cell
}

// Topologies measures one property at one size under each topology (all of
// dist.Topologies when none are given).
func Topologies(property string, n int, cfg Config, topos ...dist.Topology) ([]*TopologyCell, error) {
	cfg = cfg.withDefaults()
	if len(topos) == 0 {
		topos = dist.Topologies
	}
	var out []*TopologyCell
	for _, topo := range topos {
		c := cfg
		c.Topology = topo
		cell, err := Measure(property, n, c)
		if err != nil {
			return nil, fmt.Errorf("topology %v: %w", topo, err)
		}
		out = append(out, &TopologyCell{Topology: topo.String(), Cell: *cell})
	}
	return out, nil
}

// --- baselines ablation ---

// BaselineRow compares three monitoring configurations on the same trace:
// the paper's decentralized algorithm, replicated broadcast (every monitor
// sends every event to every peer), and the centralized monitor of Fig.
// 1.1(a). Only the first is run: the other two are closed forms over the
// trace, and the centralized monitor's verdict set is the oracle's.
type BaselineRow struct {
	Property    string
	N           int
	Events      int
	DecMsgs     int64 // decentralized monitoring messages
	RepMsgs     int64 // replicated-broadcast messages, (n−1)·events + 2n(n−1)
	CentralMsgs int   // events shipped to a central node on process 0, Σ_{p≠0} |E_p|
	DecGVs      int   // global views (decentralized memory)
	CentralCuts int   // lattice nodes a central node materializes, lattice.CountCuts
	Agree       bool  // decentralized and oracle verdict sets equal
}

// Baselines runs the ablation for one property/size/seed.
func Baselines(property string, n int, seed int64, cfg Config) (*BaselineRow, error) {
	cfg = cfg.withDefaults()
	mon, err := props.Build(property, n, true)
	if err != nil {
		return nil, err
	}
	ts := dist.Generate(genConfig(property, n, seed, cfg))
	dec, err := core.Run(core.RunConfig{Traces: ts, Automaton: mon})
	if err != nil {
		return nil, err
	}
	oracle, err := lattice.Evaluate(ts, mon)
	if err != nil {
		return nil, err
	}
	events := ts.TotalEvents()
	row := &BaselineRow{
		Property: property, N: n, Events: events,
		DecMsgs: dec.NetMessages,
		// Schedule-free closed forms: every event but process 0's to the
		// central node; each event to n−1 peers, then two all-to-all
		// termination rounds.
		CentralMsgs: events - len(ts.Traces[0].Events),
		RepMsgs:     int64((n-1)*events + 2*n*(n-1)),
		CentralCuts: lattice.CountCuts(ts),
	}
	for _, m := range dec.Metrics {
		row.DecGVs += m.GlobalViewsCreated
	}
	row.Agree = sameVerdicts(dec.Verdicts, oracle.VerdictSet())
	return row, nil
}

func sameVerdicts(a, b map[automaton.Verdict]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

// --- oracle cost sweep ---

// OracleCell is one row of the oracle-cost sweep: the oracle on one property
// at one size, averaged over the config's seeds.
type OracleCell struct {
	Property     string
	N            int
	Arity        int // property arity (equals N when full width)
	Support      int // processes the oracle's DP spanned
	Events       float64
	Cuts         float64
	WallSeconds  float64
	EventsPerSec float64
	Verdicts     string
}

// OracleSweep measures the oracle on one reachability and one safety
// property (B and D): at full width up to the paper's 5 processes, where it
// walks the full lattice, and at arity 3 up to 16, where it walks the lattice
// projected onto three processes. Seeds are averaged like Measure.
func OracleSweep(cfg Config) ([]*OracleCell, error) {
	cfg = cfg.withDefaults()
	plan := []struct {
		ns    []int
		arity int // 0 = full width
	}{
		{[]int{2, 3, 4, 5}, 0},
		{[]int{5, 8, 16}, 3},
	}
	var out []*OracleCell
	for _, property := range []string{"B", "D"} {
		for _, p := range plan {
			for _, n := range p.ns {
				cell, err := measureOracle(property, n, p.arity, cfg)
				if err != nil {
					return nil, err
				}
				out = append(out, cell)
			}
		}
	}
	return out, nil
}

// measureOracle times the oracle alone (no decentralized run) for one
// property at one size: the paper's full-width instance when arity is 0 or at
// least n, the reduced-arity instance otherwise.
func measureOracle(property string, n, arity int, cfg Config) (*OracleCell, error) {
	cfg = cfg.withDefaults()
	var (
		mon *automaton.Monitor
		err error
	)
	if arity == 0 || arity >= n {
		arity = n
		mon, err = props.Build(property, n, true)
	} else {
		mon, _, err = props.BuildAt(property, arity, true)
	}
	if err != nil {
		return nil, err
	}
	cell := &OracleCell{Property: property, N: n, Arity: arity}
	verdicts := map[automaton.Verdict]bool{}
	var wall time.Duration
	for _, seed := range cfg.Seeds {
		gc := genConfig(property, n, seed, cfg)
		if err := gc.Check(); err != nil {
			return nil, fmt.Errorf("%s n=%d: %w", property, n, err)
		}
		ts := dist.Generate(gc)
		t0 := time.Now()
		res, err := lattice.Evaluate(ts, mon)
		if err != nil {
			return nil, fmt.Errorf("%s n=%d seed=%d: %w", property, n, seed, err)
		}
		wall += time.Since(t0)
		cell.Events += float64(ts.TotalEvents())
		cell.Cuts += float64(res.NumCuts)
		cell.Support = max(cell.Support, len(res.SupportProcs))
		for _, v := range res.Verdicts {
			verdicts[v] = true
		}
	}
	k := float64(len(cfg.Seeds))
	cell.Events /= k
	cell.Cuts /= k
	cell.WallSeconds = wall.Seconds() / k
	if cell.WallSeconds > 0 {
		cell.EventsPerSec = cell.Events / cell.WallSeconds
	}
	cell.Verdicts = verdictString(verdicts)
	return cell, nil
}

// --- engine throughput sweep (the BENCH_engine.json trajectory) ---

// EngineCell is one row of the engine hot-path benchmark: a full
// decentralized detection run of the arity-3 reachability property on one
// (topology, n) workload, repeated until the measurement is stable, with
// throughput and per-event allocation cost. The CI bench job serializes the
// sweep as BENCH_engine.json; the copy committed at the repository root is
// the engine's perf trajectory (see PERFORMANCE.md for the field-by-field
// reading guide).
type EngineCell struct {
	Workload       string  `json:"workload"` // "<topology>/n=<n>", "stream/<topology>/n=<n>"
	Topology       string  `json:"topology"`
	N              int     `json:"n"`
	CommMu         float64 `json:"comm_mu"`
	GoMax          int     `json:"gomaxprocs"` // GOMAXPROCS the cell was measured under
	Events         int     `json:"events"`     // program events per run (internal+send+recv)
	Reps           int     `json:"reps"`       // timed repetitions averaged
	EventsPerSec   float64 `json:"events_per_sec"`
	NsPerEvent     float64 `json:"ns_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`  // heap bytes allocated / event
	AllocsPerEvent float64 `json:"allocs_per_event"` // heap objects allocated / event
	Verdicts       string  `json:"verdicts"`
}

// EngineBench is the BENCH_engine.json document: the sweep cells plus the
// pre-overhaul baseline they are measured against. The baseline is the
// calibrated n=16 ring regime (the BenchmarkDecentralizedRun16 workload) as
// measured immediately before the hot-path overhaul, so the speedup column
// tracks the whole engine trajectory across PRs, not just run-to-run noise.
type EngineBench struct {
	Date  string `json:"date"`
	GoMax int    `json:"gomaxprocs"`
	// Baseline: events/s of the n=16 ring cell at the pre-overhaul commit.
	BaselineCommit       string  `json:"baseline_commit"`
	BaselineEventsPerSec float64 `json:"baseline_events_per_sec"`
	// Speedup = (n=16 ring cell events/s) / BaselineEventsPerSec.
	SpeedupN16Ring float64 `json:"speedup_n16_ring"`
	// TwoCoreRatioN16Ring = events/s of the n=16 ring cell at GOMAXPROCS 2 ÷
	// at GOMAXPROCS 1, measured back to back by this run on this machine, the
	// median of three such pairs (the cell "ring/n=16/procs=2" is that pair's
	// numerator); 0 when the machine has a single CPU and the cell was
	// skipped. A short session is mostly hand-offs between goroutines: below
	// 1 a second core makes it slower, and how far below is what
	// scripts/perfgate.go gates.
	TwoCoreRatioN16Ring float64       `json:"two_core_ratio_n16_ring"`
	Note                string        `json:"note"`
	Cells               []*EngineCell `json:"cells"`
}

// engineNote is the reading caveat embedded in every BENCH_engine.json: each
// cell says which GOMAXPROCS it ran under, and the one cell measured on two
// cores exists for the ratio.
const engineNote = "each cell is measured at its recorded gomaxprocs, every round on its monitor's own goroutine; ring/n=16/procs=2 is that workload at GOMAXPROCS 2 and two_core_ratio_n16_ring its events/s over those of a GOMAXPROCS 1 run taken beside it (median of three pairs)"

// engineBaseline pins the pre-overhaul reference measurement: the calibrated
// n=16 ring workload ran at ~1.7k events/s on the CI-class 1-CPU box at the
// commit before the hot-path overhaul landed.
const (
	engineBaselineCommit       = "b625045"
	engineBaselineEventsPerSec = 1711.0
)

// engineWorkloads is the sweep plan: the ring scaling axis (n = 2..64), the
// topology axis at n = 8, and the dense-broadcast cell at n = 16.
// Communication density is the calibrated Commµ = 6 everywhere. Broadcast at
// that density was intractable for the full-width exact box DP (its regions
// span most of the n-dimensional lattice); the support-sliced sweep explores
// the property's 3-dimensional projection instead, which is what admits the
// broadcast cells — see PERFORMANCE.md's explosion-modes section.
var engineWorkloads = []struct {
	topo dist.Topology
	n    int
}{
	{dist.TopoRing, 2}, {dist.TopoRing, 8}, {dist.TopoRing, 16}, {dist.TopoRing, 32}, {dist.TopoRing, 64},
	{dist.TopoUniform, 8}, {dist.TopoRing, 8}, {dist.TopoStar, 8},
	{dist.TopoBroadcast, 8}, {dist.TopoClustered, 8},
	{dist.TopoBroadcast, 16},
}

// EngineSweep measures the full engine workload plan. minWall is the minimum
// measured wall time per cell (repetitions scale to reach it; <=0 takes
// 200ms). The returned document embeds the pinned pre-overhaul baseline, and
// the n=16 ring cell a second time on two cores.
func EngineSweep(minWall time.Duration) (*EngineBench, error) {
	if minWall <= 0 {
		minWall = 200 * time.Millisecond
	}
	doc := &EngineBench{
		Date:                 time.Now().UTC().Format(time.RFC3339),
		GoMax:                runtime.GOMAXPROCS(0),
		BaselineCommit:       engineBaselineCommit,
		BaselineEventsPerSec: engineBaselineEventsPerSec,
		Note:                 engineNote,
	}
	seen := map[string]bool{}
	for _, w := range engineWorkloads {
		cell, err := MeasureEngine(w.topo, w.n, minWall)
		if err != nil {
			return nil, err
		}
		if seen[cell.Workload] {
			continue // the plan lists ring/8 on both axes; keep one row
		}
		seen[cell.Workload] = true
		doc.Cells = append(doc.Cells, cell)
		if w.topo == dist.TopoRing && w.n == 16 {
			doc.SpeedupN16Ring = cell.EventsPerSec / engineBaselineEventsPerSec
			if err := doc.measureTwoCores(minWall); err != nil {
				return nil, err
			}
		}
	}
	stream, err := MeasureEngineStream(minWall)
	if err != nil {
		return nil, err
	}
	doc.Cells = append(doc.Cells, stream)
	return doc, nil
}

// twoCorePairs is how many (1 proc, 2 procs) pairs measureTwoCores takes the
// median ratio of: single pairs read 0.67–0.83 on a shared two-core box,
// which reaches down to the gate's floor.
const twoCorePairs = 3

// measureTwoCores measures the n=16 ring cell in back-to-back pairs at
// GOMAXPROCS 1 and 2, records the median pair's ratio and appends that pair's
// two-core cell. On a single-CPU machine it only says that it was skipped.
func (doc *EngineBench) measureTwoCores(minWall time.Duration) error {
	if runtime.NumCPU() < 2 {
		doc.Note += "; skipped here: the machine has one CPU"
		return nil
	}
	at := func(procs int) (*EngineCell, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return MeasureEngine(dist.TopoRing, 16, minWall)
	}
	type pair struct {
		ratio float64
		two   *EngineCell
	}
	var pairs []pair
	for len(pairs) < twoCorePairs {
		one, err := at(1)
		if err != nil {
			return err
		}
		two, err := at(2)
		if err != nil {
			return err
		}
		pairs = append(pairs, pair{two.EventsPerSec / one.EventsPerSec, two})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].ratio < pairs[j].ratio })
	mid := pairs[len(pairs)/2]
	mid.two.Workload += "/procs=2"
	doc.Cells = append(doc.Cells, mid.two)
	doc.TwoCoreRatioN16Ring = mid.ratio
	return nil
}

// MeasureEngine times repeated decentralized runs of one engine workload.
// The property is B at arity 3 (arity 2 when n = 2: the arity-3 instance
// names a third process), detection-only, over the calibrated generator
// regime of BenchmarkDecentralizedRun16. Heap cost is read from the
// runtime's allocation counters around the timed repetitions, so
// bytes/allocs per event include every layer: generator-free replay,
// transport, codec, and monitor state.
func MeasureEngine(topo dist.Topology, n int, minWall time.Duration) (*EngineCell, error) {
	arity := 3
	if n < arity {
		arity = n
	}
	mon, _, err := props.BuildAt("B", arity, false)
	if err != nil {
		return nil, err
	}
	gc := dist.GenConfig{
		N: n, InternalPerProc: 4, CommMu: 6, CommSigma: 1,
		Topology: topo, PlantGoal: true, Seed: 1,
		TrueProbs: map[string]float64{"p": 0.9, "q": 0.8},
	}
	ts := dist.Generate(gc)
	cell := &EngineCell{
		Workload: fmt.Sprintf("%s/n=%d", topo, n),
		Topology: topo.String(), N: n, CommMu: gc.CommMu,
		GoMax:  runtime.GOMAXPROCS(0),
		Events: ts.TotalEvents(),
	}
	return cell, timeEngineCell(cell, minWall, func() (map[automaton.Verdict]bool, error) {
		res, err := core.Run(core.RunConfig{Traces: ts, Automaton: mon, SkipFinalize: true})
		if err != nil {
			return nil, err
		}
		return res.Verdicts, nil
	})
}

// streamCommMu is the stream execution's mean events between communications.
const streamCommMu = 6

// streamExecution generates the long-lived-session workload shared by the
// engine sweep's stream cell and the dlmond long-session pair, with the
// property it is monitored against (see MeasureEngineStream).
func streamExecution() (*dist.TraceSet, string) {
	return dist.Generate(dist.GenConfig{
		N: 8, InternalPerProc: 5000, CommMu: streamCommMu, CommSigma: 1,
		Topology: dist.TopoRing, Suffixes: []string{"p"}, Seed: 2,
		TrueProbs: map[string]float64{"p": 0.5},
	}), "G (P0.p -> F (P1.p && P2.p))"
}

// MeasureEngineStream times the long-lived-session regime the short cells
// cannot see: one ring n=8 execution of 5,000 internal events per process
// (~8×10⁴ events) streamed through a finalizing session against the response
// property G (P0.p -> F (P1.p && P2.p)), while session set-up amortizes to
// nothing. It is the regime of the benchmark's stream-steady workload
// (bench/README.md). The property never concludes, and every state of its
// monitor is settled, so each monitor records '?' at INIT and keeps no view:
// no search, box exploration or fetch runs, and the cell prices feeding the
// events, knowledge collection and the termination wave, not the box DP.
func MeasureEngineStream(minWall time.Duration) (*EngineCell, error) {
	ts, formula := streamExecution()
	f, err := ltl.Parse(formula)
	if err != nil {
		return nil, err
	}
	mon, err := automaton.Build(f, ts.Props.Names)
	if err != nil {
		return nil, err
	}
	cell := &EngineCell{
		Workload: "stream/ring/n=8",
		Topology: dist.TopoRing.String(), N: ts.N(), CommMu: streamCommMu,
		GoMax:  runtime.GOMAXPROCS(0),
		Events: ts.TotalEvents(),
	}
	return cell, timeEngineCell(cell, minWall, func() (map[automaton.Verdict]bool, error) {
		res, err := core.Run(core.RunConfig{Traces: ts, Automaton: mon})
		if err != nil {
			return nil, err
		}
		return res.Verdicts, nil
	})
}

// timeEngineCell fills in a cell's measurements: one warm-up run (pools fill,
// lazily-built tables build, verdicts recorded), then repetitions until
// minWall has passed.
func timeEngineCell(cell *EngineCell, minWall time.Duration, runOnce func() (map[automaton.Verdict]bool, error)) error {
	verdicts, err := runOnce()
	if err != nil {
		return fmt.Errorf("engine %s: %w", cell.Workload, err)
	}
	cell.Verdicts = verdictString(verdicts)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var elapsed time.Duration
	for elapsed < minWall {
		if _, err := runOnce(); err != nil {
			return fmt.Errorf("engine %s: %w", cell.Workload, err)
		}
		cell.Reps++
		elapsed = time.Since(start)
	}
	runtime.ReadMemStats(&ms1)
	totalEvents := float64(cell.Events) * float64(cell.Reps)
	cell.EventsPerSec = totalEvents / elapsed.Seconds()
	cell.NsPerEvent = float64(elapsed.Nanoseconds()) / totalEvents
	cell.BytesPerEvent = float64(ms1.TotalAlloc-ms0.TotalAlloc) / totalEvents
	cell.AllocsPerEvent = float64(ms1.Mallocs-ms0.Mallocs) / totalEvents
	return nil
}

// Log10 is a small helper for rendering the paper's log-scale figures.
func Log10(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Log10(x)
}
