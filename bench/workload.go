package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"

	"decentmon/internal/automaton"
	"decentmon/internal/core"
	"decentmon/internal/dist"
	"decentmon/internal/lattice"
	"decentmon/internal/ltl"
)

// workload is one named set of inputs and the way they are driven. The
// tables in README.md say why each exists and which layers it stresses.
type workload struct {
	name string
	why  string
	// family salts the generator seeds; workloads of one family replay the
	// same traces ("" is the workload's own name).
	family string
	// serve workloads run against a dlmond; the rest run in this process.
	serve bool
	// durable starts dlmond with -state (default checkpoint cadence).
	durable bool
	// rate > 0 makes the workload an open loop of that many sessions/s;
	// 0 is a closed loop, one session at a time.
	rate float64
	// pool is the number of distinct traces cycled through.
	pool int
	// gen is the generator configuration of pool trace i (Seed unset).
	gen func(i int) dist.GenConfig
	// formula is the property monitored on pool trace i.
	formula func(i int) string
	// props is the proposition space the property is compiled over.
	props func() *dist.PropMap
	// detectOnly disables finalization (in-process only); the verdict
	// comparison is then restricted to conclusive verdicts.
	detectOnly bool
	// sliceLen is the minimum slice of the closed-loop window; 0 cuts one
	// slice per replay.
	sliceLen float64
	// quietTail cuts each trace at the quietest point of its last tenth
	// (see quietCut), so that finalization does not decide the result.
	quietTail bool
	// neverConclusive asserts the automaton has no conclusive state, so the
	// long trace cannot be short-circuited by an early verdict.
	neverConclusive bool
	// warmFormula, when set, replaces formula during warm-up so that the
	// measured window's first registrations still miss the automaton cache.
	warmFormula func(i int) string
}

const (
	// streamInternalPerProc sizes the long-lived-session trace: 8 processes
	// × 5,000 internal events plus as many communication events again,
	// ~80k events, about half a second of engine time per replay.
	streamInternalPerProc = 5000
	// oraclePrefixEvents is the prefix of the stream trace cross-checked
	// against the oracle during set-up.
	oraclePrefixEvents = 2000
)

// triples enumerates the 56 process triples i<j<k of an 8-process system.
func triples(n int) [][3]int {
	var out [][3]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for k := j + 1; k < n; k++ {
				out = append(out, [3]int{i, j, k})
			}
		}
	}
	return out
}

var detectTriples = triples(8)

func streamGen(int) dist.GenConfig {
	return dist.GenConfig{
		N: 8, InternalPerProc: streamInternalPerProc, CommMu: 6, CommSigma: 1,
		Topology: dist.TopoRing, Suffixes: []string{"p"},
		TrueProbs: map[string]float64{"p": 0.5},
	}
}

const streamFormula = "G (P0.p -> F (P1.p && P2.p))"

func streamWorkload(name, why string, serve, durable bool) *workload {
	return &workload{
		name: name, why: why, serve: serve, durable: durable,
		family:          "stream",
		pool:            3,
		gen:             streamGen,
		formula:         func(int) string { return streamFormula },
		props:           func() *dist.PropMap { return dist.PerProcess(3, "p") },
		neverConclusive: true,
		quietTail:       true,
	}
}

// workloads lists the benchmark's workloads in reporting order.
var workloads = []*workload{
	{
		name: "replay-short",
		why:  "paper Chapter-5 shape (ring n=16, ~110-event sessions, property B): session set-up, transport and wire codec dominate",
		pool: 64,
		gen: func(int) dist.GenConfig {
			// The calibrated BENCH_engine.json regime (experiments.MeasureEngine).
			return dist.GenConfig{
				N: 16, InternalPerProc: 4, CommMu: 6, CommSigma: 1,
				Topology: dist.TopoRing, PlantGoal: true,
				TrueProbs: map[string]float64{"p": 0.9, "q": 0.8},
			}
		},
		formula:    func(int) string { return "F (P0.p && P1.p && P2.p)" },
		props:      func() *dist.PropMap { return dist.PerProcess(3, "p") },
		detectOnly: true,
		sliceLen:   1,
	},
	streamWorkload("stream-steady",
		"one long-lived in-process session on a never-conclusive response property: view step, box DP and knowledge GC dominate",
		false, false),
	streamWorkload("serve-stream",
		"the stream-steady trace through a dlmond socket: adds RPC framing, per-event flush, registry hop and verdict pump",
		true, false),
	streamWorkload("serve-durable",
		"serve-stream with dlmond -state at the default checkpoint cadence: prices quiescence barrier, DMSN encode and fsync+rename",
		true, true),
	{
		name:  "serve-detect",
		why:   "open loop of 100 short sessions/s against dlmond, each with a verdict to wait for: register/close-heavy, measures latency",
		serve: true,
		rate:  100,
		pool:  len(detectTriples),
		gen: func(int) dist.GenConfig {
			return dist.GenConfig{
				N: 8, InternalPerProc: 8, CommMu: 6, CommSigma: 1,
				Topology: dist.TopoRing, PlantGoal: true, Suffixes: []string{"p"},
				TrueProbs: map[string]float64{"p": 0.3},
			}
		},
		formula: func(i int) string {
			t := detectTriples[i%len(detectTriples)]
			return fmt.Sprintf("F (P%d.p && P%d.p && P%d.p)", t[0], t[1], t[2])
		},
		warmFormula: func(i int) string {
			t := detectTriples[i%len(detectTriples)]
			return fmt.Sprintf("F (P%d.p && P%d.p)", t[0], t[1])
		},
		props: func() *dist.PropMap { return dist.PerProcess(8, "p") },
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// genSeed derives the generator seed of pool trace i of workload w from the
// run's seed (splitmix64 finalizer, so nearby seeds give unrelated traces).
func genSeed(seed int64, w *workload, i int) int64 {
	family := w.family
	if family == "" {
		family = w.name
	}
	h := fnv.New64a()
	io.WriteString(h, family)
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xd1342543de82ef95 + h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// input is one pool trace, ready to drive: the encoded bytes the program
// under test reads, the events decoded back from them (what a dlmond client
// ingests), the compiled property and the reference verdict set.
type input struct {
	dmtb   []byte
	events []*dist.Event // decoded from dmtb, in stream order
	// sendIndex[p][sn-1] is the position in events of process p's sn-th event.
	sendIndex [][]int
	n         int
	init      dist.GlobalState
	formula   string
	mon       *automaton.Monitor
	pm        *dist.PropMap
	ref       map[automaton.Verdict]bool
}

// inputs is a workload's whole pool plus what the report records about it.
type inputs struct {
	pool []*input
	hash uint64 // FNV-1a over every trace's .dmtb bytes, in pool order
}

func (in *inputs) totalEvents() int {
	n := 0
	for _, x := range in.pool {
		n += len(x.events)
	}
	return n
}

// corruptReference is the test-only hook behind -corrupt-reference: it flips
// every reference verdict set so that the correctness gate must trip.
var corruptReference bool

// encodeTrace generates one execution and encodes it as .dmtb bytes. With
// support set, the execution is cut at quietCut first.
func encodeTrace(gc dist.GenConfig, support []int) ([]byte, error) {
	var evs []*dist.Event
	if err := dist.GenerateStream(gc, func(e *dist.Event) error {
		evs = append(evs, e)
		return nil
	}); err != nil {
		return nil, err
	}
	if support != nil {
		evs = evs[:quietCut(evs, gc.N, support)]
	}
	var buf bytes.Buffer
	bw, err := dist.NewBinaryWriter(&buf, gc.Props(), gc.InitState())
	if err != nil {
		return nil, err
	}
	for _, e := range evs {
		if err := bw.Write(e); err != nil {
			return nil, err
		}
	}
	if err := bw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// quietCut returns how many leading events of a stream (a causally closed
// prefix) to keep so that it ends at the quietest point of its last tenth:
// the point where the property's support processes know most about each
// other, measured as the number of each one's events the others' latest
// events have not yet heard of. Finalization explores the lattice between
// where the monitors' views stand and the final cut; left to chance, that
// region is between a handful and a million nodes (4 to 320 ms on the
// stream trace, depending on the seed alone), which would make a workload
// meant to measure the steady state measure its last few hundred events.
func quietCut(evs []*dist.Event, n int, support []int) int {
	last := make([]*dist.Event, n)
	best, bestGap := len(evs), -1
	for k, e := range evs {
		last[e.Proc] = e
		if k < len(evs)*9/10 {
			continue
		}
		gap := 0
		for _, a := range support {
			for _, b := range support {
				if a != b && last[a] != nil && last[b] != nil {
					gap += last[a].SN - last[b].VC[a]
				}
			}
		}
		if bestGap < 0 || gap <= bestGap {
			best, bestGap = k+1, gap
		}
	}
	return best
}

// supportProcs lists the processes that own a proposition of pm.
func supportProcs(pm *dist.PropMap) []int {
	seen := map[int]bool{}
	var out []int
	for _, o := range pm.Owner {
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	sort.Ints(out)
	return out
}

// openTrace opens .dmtb bytes as an event source re-bound to the property's
// proposition space.
func openTrace(dmtb []byte, pm *dist.PropMap) (dist.EventSource, error) {
	src, err := dist.OpenBinaryStream(bytes.NewReader(dmtb))
	if err != nil {
		return nil, err
	}
	return dist.SourceWithProps(src, pm)
}

// compile parses and synthesizes a property.
func compile(formula string, pm *dist.PropMap) (*automaton.Monitor, error) {
	f, err := ltl.Parse(formula)
	if err != nil {
		return nil, err
	}
	return automaton.Build(f, pm.Names)
}

// buildInputs generates, encodes and decodes a workload's pool, compiles its
// properties and computes every reference verdict set.
func buildInputs(w *workload, seed int64, scale float64) (*inputs, error) {
	in := &inputs{}
	h := fnv.New64a()
	pm := w.props()
	mons := map[string]*automaton.Monitor{}
	for i := 0; i < w.pool; i++ {
		gc := w.gen(i)
		gc.Seed = genSeed(seed, w, i)
		if scale < 1 && w.neverConclusive {
			gc.InternalPerProc = max(200, int(float64(gc.InternalPerProc)*scale))
		}
		var support []int
		if w.quietTail {
			support = supportProcs(pm)
		}
		dmtb, err := encodeTrace(gc, support)
		if err != nil {
			return nil, fmt.Errorf("%s: trace %d: %w", w.name, i, err)
		}
		h.Write(dmtb)
		x := &input{dmtb: dmtb, n: gc.N, init: gc.InitState(), formula: w.formula(i), pm: pm}
		if x.events, err = decodeAll(dmtb, pm); err != nil {
			return nil, fmt.Errorf("%s: decoding trace %d: %w", w.name, i, err)
		}
		x.sendIndex = make([][]int, x.n)
		for k, e := range x.events {
			x.sendIndex[e.Proc] = append(x.sendIndex[e.Proc], k)
		}
		if x.mon = mons[x.formula]; x.mon == nil {
			if x.mon, err = compile(x.formula, pm); err != nil {
				return nil, fmt.Errorf("%s: property %q: %w", w.name, x.formula, err)
			}
			mons[x.formula] = x.mon
		}
		if x.ref, err = reference(w, x); err != nil {
			return nil, fmt.Errorf("%s: reference for trace %d: %w", w.name, i, err)
		}
		if corruptReference {
			x.ref = map[automaton.Verdict]bool{automaton.Bottom: !x.ref[automaton.Bottom]}
		}
		in.pool = append(in.pool, x)
	}
	in.hash = h.Sum64()
	return in, nil
}

// decodeAll decodes .dmtb bytes into their events, in stream order.
func decodeAll(dmtb []byte, pm *dist.PropMap) ([]*dist.Event, error) {
	src, err := openTrace(dmtb, pm)
	if err != nil {
		return nil, err
	}
	var out []*dist.Event
	for {
		e, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}

// traceSet materializes a causally closed run of x's events (a prefix of the
// stream order always is one) for the oracle.
func (x *input) traceSet(events []*dist.Event) (*dist.TraceSet, error) {
	ts := &dist.TraceSet{Props: x.pm}
	for p := 0; p < x.n; p++ {
		ts.Traces = append(ts.Traces, &dist.Trace{Proc: p, Init: x.init[p]})
	}
	for _, e := range events {
		ts.Traces[e.Proc].Events = append(ts.Traces[e.Proc].Events, e)
	}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	return ts, nil
}

// reference computes the verdict set a run of x must return. Short traces go
// through the sliced oracle whole. The stream trace is too long for any
// oracle: its property has no conclusive state, so the only verdict a
// finalizing run can return is '?'; a prefix is cross-checked against the
// oracle and the engine to tie that argument to the real code.
func reference(w *workload, x *input) (map[automaton.Verdict]bool, error) {
	if !w.neverConclusive {
		ts, err := x.traceSet(x.events)
		if err != nil {
			return nil, err
		}
		res, err := lattice.EvaluateSliced(ts, x.mon)
		if err != nil {
			return nil, err
		}
		return res.VerdictSet(), nil
	}
	for q := 0; q < x.mon.NumStates(); q++ {
		if x.mon.Final(q) {
			return nil, fmt.Errorf("property %q has a conclusive state; a long stream of it would idle after the first verdict", x.formula)
		}
	}
	prefix, err := x.traceSet(x.events[:min(oraclePrefixEvents, len(x.events))])
	if err != nil {
		return nil, err
	}
	res, err := lattice.EvaluateSliced(prefix, x.mon)
	if err != nil {
		return nil, err
	}
	run, err := core.Run(core.RunConfig{Traces: prefix, Automaton: x.mon})
	if err != nil {
		return nil, err
	}
	if !sameVerdicts(run.Verdicts, res.VerdictSet(), false) {
		return nil, fmt.Errorf("engine and oracle disagree on the %d-event prefix: engine %s, oracle %s",
			oraclePrefixEvents, verdictString(run.Verdicts), verdictString(res.VerdictSet()))
	}
	return map[automaton.Verdict]bool{automaton.Unknown: true}, nil
}

// sameVerdicts compares a returned verdict set with its reference. A
// detection-only run cannot report '?' faithfully, so only the conclusive
// members are compared there.
func sameVerdicts(got, want map[automaton.Verdict]bool, conclusiveOnly bool) bool {
	vs := []automaton.Verdict{automaton.Top, automaton.Bottom}
	if !conclusiveOnly {
		vs = append(vs, automaton.Unknown)
	}
	for _, v := range vs {
		if got[v] != want[v] {
			return false
		}
	}
	return true
}

func verdictString(set map[automaton.Verdict]bool) string {
	var vs []string
	for v, ok := range set {
		if ok {
			vs = append(vs, v.String())
		}
	}
	sort.Strings(vs)
	return "{" + strings.Join(vs, ",") + "}"
}
