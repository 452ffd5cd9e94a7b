package decentmon

// One benchmark per table and figure of the paper's evaluation (Chapter 5),
// plus micro-benchmarks of the substrates and an ablation against the
// centralized and replicated baselines. Each benchmark reports the paper's
// metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the quantities behind Table 5.1 and Figs. 5.1–5.9 (see
// EXPERIMENTS.md for the measured-vs-paper comparison).

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"testing"

	"decentmon/internal/automaton"
	"decentmon/internal/boolfn"
	"decentmon/internal/central"
	"decentmon/internal/core"
	"decentmon/internal/dist"
	"decentmon/internal/experiments"
	"decentmon/internal/lattice"
	"decentmon/internal/ltl"
	"decentmon/internal/props"
	"decentmon/internal/vclock"
)

// benchCfg keeps the figure benchmarks fast enough for -bench=. while
// preserving the paper's workload shape (µ=3s, σ=1s, Commµ=3s, 2..5
// processes; we use a reduced event count and a single seed per iteration).
var benchCfg = experiments.Config{
	Ns:              []int{2, 3, 4, 5},
	Seeds:           []int64{1},
	InternalPerProc: 10,
	EvtMu:           3, EvtSigma: 1,
	CommMu: 3, CommSigma: 1,
}

// BenchmarkTable5_1_AutomatonSynthesis regenerates Table 5.1: the paper-shape
// automata for all six properties at n=2..5, reporting total transitions and
// the number of cells matching the paper exactly.
func BenchmarkTable5_1_AutomatonSynthesis(b *testing.B) {
	var rows []experiments.Table51Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table51()
		if err != nil {
			b.Fatal(err)
		}
	}
	total, exact := 0, 0
	for _, r := range rows {
		total += r.Total
		if r.Total == r.PaperTot && r.Outgoing == r.PaperOut && r.Self == r.PaperSelf {
			exact++
		}
	}
	b.ReportMetric(float64(total), "transitions")
	b.ReportMetric(float64(exact), "exact-cells/24")
}

// BenchmarkFig5_1_TransitionCounts reports the Fig. 5.1 series (total and
// outgoing transition counts per property and size).
func BenchmarkFig5_1_TransitionCounts(b *testing.B) {
	outgoing := 0
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table51()
		if err != nil {
			b.Fatal(err)
		}
		outgoing = 0
		for _, r := range rows {
			outgoing += r.Outgoing
		}
	}
	b.ReportMetric(float64(outgoing), "outgoing-transitions")
}

// BenchmarkFig5_2_5_3_MonitorAutomata renders the monitor automata shown in
// Figs. 5.2 and 5.3 (DOT form).
func BenchmarkFig5_2_5_3_MonitorAutomata(b *testing.B) {
	bytes := 0
	for i := 0; i < b.N; i++ {
		figs, err := experiments.Automata(2)
		if err != nil {
			b.Fatal(err)
		}
		bytes = 0
		for _, d := range figs {
			bytes += len(d)
		}
	}
	b.ReportMetric(float64(bytes), "dot-bytes")
}

func benchMessages(b *testing.B, properties []string) {
	var msgs, events float64
	for i := 0; i < b.N; i++ {
		msgs, events = 0, 0
		for _, p := range properties {
			cells, err := experiments.Sweep([]string{p}, benchCfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, c := range cells {
				msgs += c.Messages
				events += c.Events
			}
		}
	}
	b.ReportMetric(msgs, "monitor-msgs")
	b.ReportMetric(events, "events")
	b.ReportMetric(msgs/events, "msgs/event")
}

// BenchmarkFig5_4_MessagesABC measures monitoring-message overhead for
// properties A, B, C across n=2..5 (Fig. 5.4).
func BenchmarkFig5_4_MessagesABC(b *testing.B) { benchMessages(b, []string{"A", "B", "C"}) }

// BenchmarkFig5_5_MessagesDEF measures monitoring-message overhead for
// properties D, E, F across n=2..5 (Fig. 5.5).
func BenchmarkFig5_5_MessagesDEF(b *testing.B) { benchMessages(b, []string{"D", "E", "F"}) }

// BenchmarkFig5_6_DelayTimePct measures the paced-replay delay-time
// percentage per global view (Fig. 5.6) for properties A and D at n=3.
func BenchmarkFig5_6_DelayTimePct(b *testing.B) {
	cfg := benchCfg
	cfg.Ns = []int{3}
	cfg.InternalPerProc = 6
	cfg.Pace = 2e-4 // one simulated second = 0.2ms
	var delay float64
	for i := 0; i < b.N; i++ {
		delay = 0
		for _, p := range []string{"A", "D"} {
			cell, err := experiments.Measure(p, 3, cfg)
			if err != nil {
				b.Fatal(err)
			}
			delay += cell.DelayPct
		}
	}
	b.ReportMetric(delay, "delay-pct-per-gv")
}

// BenchmarkFig5_7_DelayedEvents measures the average delayed-event queue
// (Fig. 5.7) across all six properties at n=4.
func BenchmarkFig5_7_DelayedEvents(b *testing.B) {
	cfg := benchCfg
	cfg.Ns = []int{4}
	var delayed float64
	for i := 0; i < b.N; i++ {
		delayed = 0
		for _, p := range props.Names {
			cell, err := experiments.Measure(p, 4, cfg)
			if err != nil {
				b.Fatal(err)
			}
			delayed += cell.DelayedEvents
		}
		delayed /= float64(len(props.Names))
	}
	b.ReportMetric(delayed, "delayed-events")
}

// BenchmarkFig5_8_MemoryGlobalViews measures the total number of global
// views created (Fig. 5.8's memory-overhead proxy) across the sweep.
func BenchmarkFig5_8_MemoryGlobalViews(b *testing.B) {
	var gvs float64
	for i := 0; i < b.N; i++ {
		gvs = 0
		for _, p := range props.Names {
			cells, err := experiments.Sweep([]string{p}, benchCfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, c := range cells {
				gvs += c.GlobalViews
			}
		}
	}
	b.ReportMetric(gvs, "global-views")
}

// BenchmarkFig5_9_CommFrequency runs the communication-frequency sweep
// (property C, 4 processes, Commµ ∈ {3,6,9,15,∞}) of Fig. 5.9.
func BenchmarkFig5_9_CommFrequency(b *testing.B) {
	cfg := benchCfg
	cfg.InternalPerProc = 8
	var msgs float64
	for i := 0; i < b.N; i++ {
		cells, err := experiments.CommFrequency(cfg)
		if err != nil {
			b.Fatal(err)
		}
		msgs = 0
		for _, c := range cells {
			msgs += c.Messages
		}
	}
	b.ReportMetric(msgs, "monitor-msgs")
}

// BenchmarkBaselines compares the decentralized algorithm against the
// replicated-broadcast and centralized configurations (the Fig. 1.1 /
// Table 6.1 design space) on property D at n=4.
func BenchmarkBaselines(b *testing.B) {
	var row *experiments.BaselineRow
	for i := 0; i < b.N; i++ {
		var err error
		row, err = experiments.Baselines("D", 4, 1, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if !row.Agree {
			b.Fatal("baselines disagree")
		}
	}
	b.ReportMetric(float64(row.DecMsgs), "dec-msgs")
	b.ReportMetric(float64(row.RepMsgs), "repl-msgs")
	b.ReportMetric(float64(row.CentralMsgs), "central-msgs")
}

// --- ablations and micro-benchmarks of the substrates ---

// BenchmarkAblationMinimalVsPaperShape compares monitoring cost under the
// minimal versus paper-shape automata (the §5.1 design choice).
func BenchmarkAblationMinimalVsPaperShape(b *testing.B) {
	cfg := benchCfg
	cfg.Ns = []int{3}
	var minMsgs, shapeMsgs float64
	for i := 0; i < b.N; i++ {
		cfg.MinimalAutomata = true
		cmin, err := experiments.Measure("F", 3, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.MinimalAutomata = false
		cshape, err := experiments.Measure("F", 3, cfg)
		if err != nil {
			b.Fatal(err)
		}
		minMsgs, shapeMsgs = cmin.Messages, cshape.Messages
	}
	b.ReportMetric(minMsgs, "msgs-minimal")
	b.ReportMetric(shapeMsgs, "msgs-paper-shape")
}

// BenchmarkSynthesisMinimal measures minimal-monitor synthesis for the
// heaviest evaluation property (F at n=5, 10 propositions).
func BenchmarkSynthesisMinimal(b *testing.B) {
	fs, err := props.Formula("F", 5)
	if err != nil {
		b.Fatal(err)
	}
	f := ltl.MustParse(fs)
	pm := dist.PerProcess(5, "p", "q")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := automaton.Build(f, pm.Names); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesisWideAlphabet measures minimal-monitor synthesis of
// formulas that read a few of many declared propositions: dlmond's
// registration shape, PerProcess(8, "p") with the serve-detect property (3 of
// 8 read) and the stream property (3 of 8). The monitor, δ included, spans
// only the propositions the formula reads.
func BenchmarkSynthesisWideAlphabet(b *testing.B) {
	pm := dist.PerProcess(8, "p")
	for _, c := range []struct{ name, formula string }{
		{"detect", "F (P1.p && P4.p && P6.p)"},
		{"stream", "G (P0.p -> F (P1.p && P2.p))"},
	} {
		f := ltl.MustParse(c.formula)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := automaton.Build(f, pm.Names); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSynthesisProgression measures paper-shape synthesis for the same
// property as BenchmarkSynthesisMinimal.
func BenchmarkSynthesisProgression(b *testing.B) {
	fs, err := props.Formula("F", 5)
	if err != nil {
		b.Fatal(err)
	}
	f := ltl.MustParse(fs)
	pm := dist.PerProcess(5, "p", "q")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := automaton.BuildProgression(f, pm.Names); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOracleDP measures the Chapter-3 oracle over a 4-process run.
func BenchmarkOracleDP(b *testing.B) {
	ts := dist.Generate(dist.GenConfig{
		N: 4, InternalPerProc: 10, CommMu: 3, CommSigma: 1, PlantGoal: true, Seed: 1,
	})
	mon, err := props.Build("D", 4, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lattice.Evaluate(ts, mon); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOracleSliced16 times the oracle on a 16-process execution with
// an arity-3 property: it walks the lattice projected onto the property's
// three processes, in the regime the full lattice cannot reach at all (it
// has ~10¹⁵ cuts there).
func BenchmarkOracleSliced16(b *testing.B) {
	mon, _, err := props.BuildAt("B", 3, false)
	if err != nil {
		b.Fatal(err)
	}
	ts := dist.Generate(dist.GenConfig{
		N: 16, InternalPerProc: 6, CommMu: 6, CommSigma: 1,
		Topology: dist.TopoRing, PlantGoal: true, Seed: 1,
		TrueProbs: map[string]float64{"p": 0.9, "q": 0.8},
	})
	events := int64(ts.TotalEvents())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := lattice.Evaluate(ts, mon)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.NumCuts), "cuts/op")
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkDecentralizedRun16 measures the first decentralized size the
// exact oracle kept dark: 16 monitors, arity-3 property, detection only.
func BenchmarkDecentralizedRun16(b *testing.B) {
	mon, _, err := props.BuildAt("B", 3, false)
	if err != nil {
		b.Fatal(err)
	}
	ts := dist.Generate(dist.GenConfig{
		N: 16, InternalPerProc: 4, CommMu: 6, CommSigma: 1,
		Topology: dist.TopoRing, PlantGoal: true, Seed: 1,
		TrueProbs: map[string]float64{"p": 0.9, "q": 0.8},
	})
	events := int64(ts.TotalEvents())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.RunConfig{Traces: ts, Automaton: mon, SkipFinalize: true})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Verdicts[automaton.Top] {
			b.Fatal("goal verdict lost")
		}
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkBoxBroadcast16 measures the dense-broadcast workload the sliced
// box sweep made tractable: the calibrated 16-process regime over broadcast
// at the ring's communication density (Commµ = 6). The full-width exact DP
// deterministically dies on its node budget here (the conformance suite pins
// that in TestDenseBroadcastSlicedTractable); the default sliced engine
// explores the arity-3 property's 3-dimensional projected region instead.
func BenchmarkBoxBroadcast16(b *testing.B) {
	mon, _, err := props.BuildAt("B", 3, false)
	if err != nil {
		b.Fatal(err)
	}
	ts := dist.Generate(dist.GenConfig{
		N: 16, InternalPerProc: 4, CommMu: 6, CommSigma: 1,
		Topology: dist.TopoBroadcast, PlantGoal: true, Seed: 1,
		TrueProbs: map[string]float64{"p": 0.9, "q": 0.8},
	})
	events := int64(ts.TotalEvents())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.RunConfig{Traces: ts, Automaton: mon, SkipFinalize: true})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Verdicts[automaton.Top] {
			b.Fatal("goal verdict lost")
		}
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkDetectFinalize8 runs the serve-detect workload's sessions in
// process: ring, n = 8, 8 internal events per process, the goal planted,
// p = 0.3, F (P0.p && P1.p && P2.p), finalization on, one op per execution
// over 40 seeds. Finalization explores a box per surviving view, so box
// nodes per op count the kernel's work; -benchmem its allocations.
func BenchmarkDetectFinalize8(b *testing.B) {
	pm := dist.PerProcess(8, "p")
	mon, err := automaton.Build(ltl.MustParse("F (P0.p && P1.p && P2.p)"), pm.Names)
	if err != nil {
		b.Fatal(err)
	}
	var sets []*dist.TraceSet
	for seed := int64(1); seed <= 40; seed++ {
		sets = append(sets, dist.Generate(dist.GenConfig{
			N: 8, InternalPerProc: 8, CommMu: 6, CommSigma: 1,
			Topology: dist.TopoRing, PlantGoal: true, Suffixes: []string{"p"}, Seed: seed,
			TrueProbs: map[string]float64{"p": 0.3},
		}))
	}
	nodes := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.RunConfig{Traces: sets[i%len(sets)], Automaton: mon})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Verdicts[automaton.Top] {
			b.Fatal("goal verdict lost")
		}
		for _, mt := range res.Metrics {
			nodes += mt.BoxNodes
		}
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "boxnodes/op")
}

// BenchmarkDecentralizedRun measures one full decentralized run end to end.
func BenchmarkDecentralizedRun(b *testing.B) {
	ts := dist.Generate(dist.GenConfig{
		N: 4, InternalPerProc: 10, CommMu: 3, CommSigma: 1, PlantGoal: true, Seed: 1,
	})
	mon, err := props.Build("D", 4, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(core.RunConfig{Traces: ts, Automaton: mon}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorStep measures a single automaton transition.
func BenchmarkMonitorStep(b *testing.B) {
	mon, err := props.Build("F", 4, true)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	letters := make([]uint32, 1024)
	for i := range letters {
		letters[i] = uint32(rng.Intn(1 << len(mon.Props)))
	}
	b.ResetTimer()
	q := 0
	for i := 0; i < b.N; i++ {
		q = mon.Step(q, letters[i%len(letters)])
	}
	_ = q
}

// BenchmarkVectorClocks measures merge+compare on 8-process clocks.
func BenchmarkVectorClocks(b *testing.B) {
	a := vclock.VC{1, 5, 3, 9, 2, 8, 4, 7}
	c := vclock.VC{2, 4, 3, 8, 3, 7, 5, 6}
	for i := 0; i < b.N; i++ {
		_ = vclock.Max(a, c).Less(a)
	}
}

// BenchmarkQuineMcCluskey measures guard minimization on an 8-variable
// random onset.
func BenchmarkQuineMcCluskey(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var onset []uint32
	for m := uint32(0); m < 256; m++ {
		if rng.Intn(2) == 0 {
			onset = append(onset, m)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boolfn.Minimize(onset, 8)
	}
}

// BenchmarkTraceGeneration measures the workload generator at the paper's
// largest scale.
func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dist.Generate(dist.GenConfig{
			N: 5, InternalPerProc: 20, CommMu: 3, CommSigma: 1, Seed: int64(i),
		})
	}
}

// BenchmarkLassoEvaluator measures the reference LTL checker used for
// cross-validation.
func BenchmarkLassoEvaluator(b *testing.B) {
	f := ltl.MustParse("G ((a U b) && (b U a)) || F G (a && !b)")
	word := make([]uint32, 64)
	rng := rand.New(rand.NewSource(3))
	for i := range word {
		word[i] = uint32(rng.Intn(4))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		automaton.EvalLasso(f, []string{"a", "b"}, word, 16)
	}
}

// --- topology scenarios (beyond the paper's uniform unicast) ---

// benchTopology runs a decentralized detection-only run of property B over
// 6 processes communicating in the given shape — beyond the paper's largest
// scale (5), with drifting valuations.
func benchTopology(b *testing.B, topo dist.Topology) {
	cfg := dist.GenConfig{
		N: 6, InternalPerProc: 8,
		CommMu: 3, CommSigma: 1,
		Topology: topo,
		Clusters: 2, CrossProb: 0.1,
		TrueProbs: map[string]float64{"p": 0.3, "q": 0.25},
		PlantGoal: true, Seed: 1,
	}
	mon, err := props.Build("B", 6, false)
	if err != nil {
		b.Fatal(err)
	}
	ts := dist.Generate(cfg)
	b.ResetTimer()
	var msgs int64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.RunConfig{Traces: ts, Automaton: mon, SkipFinalize: true})
		if err != nil {
			b.Fatal(err)
		}
		msgs = res.NetMessages
	}
	b.ReportMetric(float64(ts.TotalEvents()), "events")
	b.ReportMetric(float64(msgs), "monitor-msgs")
}

// BenchmarkTopologyRing monitors a 6-process ring pipeline.
func BenchmarkTopologyRing(b *testing.B) { benchTopology(b, dist.TopoRing) }

// BenchmarkTopologyStar monitors hub-and-spoke communication through
// process 0.
func BenchmarkTopologyStar(b *testing.B) { benchTopology(b, dist.TopoStar) }

// BenchmarkTopologyBroadcast monitors broadcast bursts (every communication
// event fans out to all 5 peers).
func BenchmarkTopologyBroadcast(b *testing.B) { benchTopology(b, dist.TopoBroadcast) }

// BenchmarkTopologyClustered monitors two partitioned clusters with 10%
// cross-cluster traffic.
func BenchmarkTopologyClustered(b *testing.B) { benchTopology(b, dist.TopoClustered) }

// BenchmarkTopologySweep runs the experiments-package topology ablation
// (property C, 4 processes, all five shapes) end to end.
func BenchmarkTopologySweep(b *testing.B) {
	cfg := benchCfg
	cfg.InternalPerProc = 8
	var msgs float64
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Topologies("C", 4, cfg)
		if err != nil {
			b.Fatal(err)
		}
		msgs = 0
		for _, c := range cells {
			msgs += c.Messages
		}
	}
	b.ReportMetric(msgs, "monitor-msgs")
}

// --- streaming pipeline ---

// streamBuf renders a generated execution through the given codec once, for
// the reader-side benchmarks.
func streamBuf(b *testing.B, codec dist.Codec, cfg dist.GenConfig) []byte {
	b.Helper()
	var buf bytes.Buffer
	if err := dist.Generate(cfg).WriteStream(codec, &buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// benchReaderCfg is the ~29k-event execution decoded by the codec
// benchmarks; identical for both codecs so events/s compare directly.
var benchReaderCfg = dist.GenConfig{
	N: 4, InternalPerProc: 5000, CommMu: 3, CommSigma: 1, Seed: 1,
}

// benchStreamingReader measures one codec's reader — decode + incremental
// validation — reporting MB/s (via SetBytes) and events/s.
func benchStreamingReader(b *testing.B, codec dist.Codec) {
	data := streamBuf(b, codec, benchReaderCfg)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	events := 0
	for i := 0; i < b.N; i++ {
		src, err := codec.Open(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		events = 0
		for {
			_, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			events++
		}
	}
	b.ReportMetric(float64(events), "events")
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)*float64(b.N)/s, "events/s")
	}
}

// BenchmarkStreamingReader measures the JSON-lines validating reader.
func BenchmarkStreamingReader(b *testing.B) { benchStreamingReader(b, dist.CodecForPath(".jsonl")) }

// BenchmarkBinaryStreamingReader measures the ".dmtb" binary reader over
// the same execution; the events/s ratio against BenchmarkStreamingReader
// is the codec speedup the streaming pipeline gains end to end.
func BenchmarkBinaryStreamingReader(b *testing.B) {
	benchStreamingReader(b, dist.CodecForPath(".dmtb"))
}

// benchStreamWriter measures one codec's writer alone — header + records
// into memory, no disk and no per-iteration re-validation (the set is
// validated once during setup, like SaveFile does) — reporting MB/s of
// output produced.
func benchStreamWriter(b *testing.B, codec dist.Codec) {
	ts := dist.Generate(benchReaderCfg)
	if err := ts.Validate(); err != nil {
		b.Fatal(err)
	}
	var size bytes.Buffer
	if err := ts.WriteStream(codec, &size); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(size.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		buf.Grow(size.Len())
		sink, err := codec.Create(&buf, ts.Props, ts.InitialState())
		if err != nil {
			b.Fatal(err)
		}
		src := ts.Stream()
		for {
			e, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			if err := sink.Write(e); err != nil {
				b.Fatal(err)
			}
		}
		if err := sink.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamWriter measures the JSON-lines stream writer.
func BenchmarkStreamWriter(b *testing.B) { benchStreamWriter(b, dist.CodecForPath(".jsonl")) }

// BenchmarkBinaryStreamWriter measures the ".dmtb" binary stream writer.
func BenchmarkBinaryStreamWriter(b *testing.B) { benchStreamWriter(b, dist.CodecForPath(".dmtb")) }

// BenchmarkPathMonitor measures the bounded-memory single-path evaluator
// (dlmon's -bounded mode) over a ~29k-event execution.
func BenchmarkPathMonitor(b *testing.B) {
	ts := dist.Generate(dist.GenConfig{
		N: 4, InternalPerProc: 5000, CommMu: 3, CommSigma: 1, PlantGoal: true, Seed: 1,
	})
	mon, err := props.Build("B", 4, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := central.RunPath(ts.Stream(), mon)
		if err != nil {
			b.Fatal(err)
		}
		if res.Verdict != automaton.Top {
			b.Fatalf("path verdict %v, want T", res.Verdict)
		}
	}
}

// BenchmarkStreamedDecentralizedRun measures one full decentralized run fed
// from the streaming path (compare BenchmarkDecentralizedRun), reporting
// the knowledge-GC metrics of the run.
func BenchmarkStreamedDecentralizedRun(b *testing.B) {
	ts := dist.Generate(dist.GenConfig{
		N: 4, InternalPerProc: 10, CommMu: 3, CommSigma: 1, PlantGoal: true, Seed: 1,
	})
	mon, err := props.Build("D", 4, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	peak, collected := 0, 0
	for i := 0; i < b.N; i++ {
		res, err := core.RunStreamContext(context.Background(), ts.Stream(), core.RunConfig{Automaton: mon})
		if err != nil {
			b.Fatal(err)
		}
		peak, collected = 0, 0
		for _, m := range res.Metrics {
			if m.KnowledgePeak > peak {
				peak = m.KnowledgePeak
			}
			collected += m.KnowledgeCollected
		}
	}
	b.ReportMetric(float64(peak), "know-peak")
	b.ReportMetric(float64(collected), "know-collected")
}
