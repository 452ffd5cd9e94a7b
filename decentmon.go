// Package decentmon is a complete implementation of "Decentralized Runtime
// Verification of LTL Specifications in Distributed Systems" (IPDPS 2015 /
// Hasabelnaby's 2016 thesis): sound and complete runtime verification of
// LTL3 properties over the global state of an asynchronous message-passing
// program, with a fully decentralized monitor — one monitor process per
// program process, each holding a replica of the monitor automaton and
// exchanging tokens to detect global-state predicates.
//
// The package is a facade over the internal building blocks:
//
//	internal/ltl        LTL parser and AST
//	internal/automaton  LTL3 monitor synthesis (minimal and paper-shape)
//	internal/dist       distributed program model, traces, workload generator
//	internal/lattice    computation lattice and the ground-truth oracle
//	internal/core       the decentralized monitoring algorithm and its sessions
//	internal/central    the centralized baseline
//	internal/transport  in-memory and TCP monitor networks
//	internal/server     dlmond, the multi-tenant monitoring session daemon
//	internal/wire       the byte-level kernel under every binary format
//
// ARCHITECTURE.md walks the full package graph, the Session lifecycle and
// the machine-checked concurrency invariants; PERFORMANCE.md is the
// engine's performance model and benchmark-reading guide.
//
// A minimal end-to-end replay:
//
//	props := decentmon.PerProcessProps(3, "p", "q")
//	spec, _ := decentmon.Compile("F (P0.p && P1.p && P2.p)", props)
//	traces := decentmon.Generate(decentmon.GenConfig{N: 3, InternalPerProc: 10, CommMu: 3, PlantGoal: true})
//	res, _ := decentmon.Run(spec, traces)
//	fmt.Println(res.VerdictList()) // e.g. [T ?]
//
// Monitoring is online by construction — Run and RunStream are replay
// adapters over the Session engine, which can just as well be attached to a
// live execution:
//
//	sess, _ := decentmon.NewSession(spec, 3)
//	p0 := sess.Process(0)                   // one handle per live process
//	p0.Internal(0b01)                       // stamped + monitored as it happens
//	tok, _ := p0.Send(1, 0b01)              // token rides the app's own message
//	sess.Process(1).Recv(tok, 0b00)
//	for ev := range sess.Verdicts() { ... } // verdicts as they are detected
//	res, _ := sess.Close()                  // finalization + terminal result
//
// Soundness and completeness can be checked against the oracle:
//
//	oracle, _ := decentmon.Oracle(spec, traces)  // exact verdict set over all lattice paths
//
// Past the exact oracle's ~5-process reach, the sliced and sampling
// oracles (EvaluateOracle) pair with reduced-arity properties
// (CaseStudySpecAt + (*TraceSet).WithProps) to cross-check systems of
// 8–32 processes.
package decentmon

import (
	"context"
	"fmt"

	"decentmon/internal/automaton"
	"decentmon/internal/central"
	"decentmon/internal/core"
	"decentmon/internal/dist"
	"decentmon/internal/lattice"
	"decentmon/internal/ltl"
	"decentmon/internal/props"
	"decentmon/internal/transport"
)

// Re-exported types. Aliases keep the internal packages as the single source
// of truth while giving users one import.
type (
	// Verdict is the three-valued LTL3 evaluation result.
	Verdict = automaton.Verdict
	// Automaton is an LTL3 monitor Moore machine (Definition 12).
	Automaton = automaton.Monitor
	// Transition is a symbolic conjunctive monitor transition.
	Transition = automaton.Transition
	// PropMap binds atomic propositions to owning processes.
	PropMap = dist.PropMap
	// TraceSet is a complete recorded execution of a distributed program.
	TraceSet = dist.TraceSet
	// Trace is one process's event sequence.
	Trace = dist.Trace
	// Event is one internal/send/receive event with its vector clock.
	Event = dist.Event
	// LocalState is one process's bit-packed valuation.
	LocalState = dist.LocalState
	// GlobalState is the vector of local states across all processes.
	GlobalState = dist.GlobalState
	// MsgToken pairs a live Send with its Recv (Process.Send/Recv).
	MsgToken = dist.MsgToken
	// VerdictEvent is one incremental verdict detection (Session.Verdicts).
	VerdictEvent = core.VerdictEvent
	// GenConfig parameterizes the case-study workload generator (§5.2).
	GenConfig = dist.GenConfig
	// Topology selects the workload's communication pattern.
	Topology = dist.Topology
	// EventSource iterates an execution's events in timestamp order.
	EventSource = dist.EventSource
	// Codec is one on-disk serialization of the streaming trace format
	// (".jsonl" JSON lines, ".dmtb" length-prefixed binary).
	Codec = dist.Codec
	// StreamSink consumes an execution's events in timestamp order.
	StreamSink = dist.StreamSink
	// PathResult is the outcome of a bounded-memory single-path run.
	PathResult = central.PathResult
	// RunResult is the outcome of a decentralized run.
	RunResult = core.RunResult
	// MonitorMetrics are one monitor's overhead counters.
	MonitorMetrics = core.Metrics
	// OracleResult is the ground-truth evaluation of an execution.
	OracleResult = lattice.Result
	// OracleMode selects the oracle implementation (exact, sliced, sampling).
	OracleMode = lattice.Mode
	// OracleConfig selects and tunes an oracle (see EvaluateOracle).
	OracleConfig = lattice.OracleConfig
	// Network is a monitor communication substrate.
	Network = transport.Network
)

// The three verdicts of LTL3 (Definition 11).
const (
	Top     = automaton.Top     // ⊤: every extension satisfies the property
	Bottom  = automaton.Bottom  // ⊥: every extension violates it
	Unknown = automaton.Unknown // ?: inconclusive
)

// The oracle modes of the pluggable oracle family (EvaluateOracle): the
// exact full-lattice DP, the support-projected sliced oracle (exact for
// ○-free properties, tractable at any system size when the property's
// alphabet touches few processes), and the seeded bounded-frontier sampling
// oracle (a sound subset of the exact verdict set).
const (
	OracleExact    = lattice.ModeExact
	OracleSliced   = lattice.ModeSliced
	OracleSampling = lattice.ModeSampling
)

// The communication topologies of the workload generator.
const (
	TopoUniform   = dist.TopoUniform   // uniform random unicast (the paper's §5.1 workload)
	TopoRing      = dist.TopoRing      // p sends to (p+1) mod n
	TopoStar      = dist.TopoStar      // all traffic through a hub process
	TopoBroadcast = dist.TopoBroadcast // every communication fans out to all peers
	TopoClustered = dist.TopoClustered // partitioned clusters with optional cross traffic
)

// Spec is a compiled property: an LTL formula over a proposition space plus
// its synthesized monitor automaton.
type Spec struct {
	Formula string
	Props   *PropMap
	mon     *Automaton
}

// CompileOption tunes property compilation.
type CompileOption func(*compileCfg)

type compileCfg struct{ paperShape bool }

// PaperShape selects the formula-progression construction used by the
// paper's own monitor generator (non-minimal machines with diagnostic
// ?-states, matching Figs. 2.3/5.2/5.3 and Table 5.1). The default is the
// minimal LTL3 Moore machine; both have identical verdict semantics.
func PaperShape() CompileOption { return func(c *compileCfg) { c.paperShape = true } }

// Compile parses an LTL formula and synthesizes its monitor over the given
// proposition space.
func Compile(formula string, pm *PropMap, opts ...CompileOption) (*Spec, error) {
	var cfg compileCfg
	for _, o := range opts {
		o(&cfg)
	}
	f, err := ltl.Parse(formula)
	if err != nil {
		return nil, err
	}
	var mon *Automaton
	if cfg.paperShape {
		mon, err = automaton.BuildProgression(f, pm.Names)
	} else {
		mon, err = automaton.Build(f, pm.Names)
	}
	if err != nil {
		return nil, err
	}
	return &Spec{Formula: formula, Props: pm, mon: mon}, nil
}

// MustCompile is Compile that panics on error.
func MustCompile(formula string, pm *PropMap, opts ...CompileOption) *Spec {
	s, err := Compile(formula, pm, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// Automaton returns the compiled monitor automaton.
func (s *Spec) Automaton() *Automaton { return s.mon }

// Dot renders the monitor automaton in Graphviz format.
func (s *Spec) Dot(name string) string { return s.mon.Dot(name) }

// Describe renders a human-readable summary of the monitor.
func (s *Spec) Describe() string { return s.mon.Describe() }

// NewProps returns an empty proposition space; add propositions with Add.
func NewProps() *PropMap { return dist.NewPropMap() }

// PerProcessProps builds the standard space where each of n processes owns
// one proposition per suffix: P0.p, P0.q, P1.p, ...
func PerProcessProps(n int, suffixes ...string) *PropMap {
	return dist.PerProcess(n, suffixes...)
}

// Generate produces a reproducible execution of the §5.1 case-study
// program: normal-distribution waits, point-to-point communication events,
// two boolean propositions per process.
func Generate(cfg GenConfig) *TraceSet { return dist.Generate(cfg) }

// LoadTraces reads a trace set saved by (*TraceSet).SaveFile.
func LoadTraces(path string) (*TraceSet, error) { return dist.LoadFile(path) }

// StreamTraces opens a trace file as an event stream: the streaming formats
// (".jsonl", and the faster binary ".dmtb") are read incrementally with
// memory independent of their length, the materialized formats are loaded
// whole behind the same interface (IsStreamingPath distinguishes the two).
func StreamTraces(path string) (EventSource, error) { return dist.StreamFile(path) }

// Codecs returns the registered streaming trace codecs.
func Codecs() []Codec { return dist.Codecs() }

// CodecByName returns the streaming codec with the given name ("jsonl",
// "dmtb").
func CodecByName(name string) (Codec, error) { return dist.CodecByName(name) }

// CodecForPath returns the streaming codec registered for the path's
// extension, if any.
func CodecForPath(path string) (Codec, bool) { return dist.CodecForPath(path) }

// IsStreamingPath reports whether path names a trace format that streams
// incrementally end to end.
func IsStreamingPath(path string) bool { return dist.IsStreamingPath(path) }

// CreateStream creates path and returns a sink writing the streaming trace
// format chosen by the path's extension (".jsonl" by default).
func CreateStream(path string, pm *PropMap, init GlobalState) (StreamSink, error) {
	return dist.CreateStream(path, pm, init)
}

// CreateStreamCodec is CreateStream with the codec forced explicitly,
// regardless of the path's extension (tracegen -format does this).
func CreateStreamCodec(codec Codec, path string, pm *PropMap, init GlobalState) (StreamSink, error) {
	return dist.CreateStreamCodec(codec, path, pm, init)
}

// RunningExample returns the paper's Fig. 2.1 two-process program, and
// RunningExampleProperty its Fig. 2.3 property.
func RunningExample() *TraceSet { return dist.RunningExample() }

// RunningExampleProperty is ψ = G((x1≥5) → ((x2≥15) U (x1=10))).
const RunningExampleProperty = dist.RunningExampleProperty

// CaseStudyProperty returns the LTL text of one of the paper's six
// evaluation properties ("A".."F") for n processes, over
// PerProcessProps(n, "p", "q").
func CaseStudyProperty(name string, n int) (string, error) {
	return props.Formula(name, n)
}

// Option tunes a replay run (Run, RunStream, RunBounded) or an online
// monitoring session (NewSession). Options that do not apply to an entry
// point are rejected by it with an error rather than silently ignored.
type Option func(*options)

type options struct {
	ctx      context.Context
	cfg      core.RunConfig
	init     GlobalState
	validate bool
}

func buildOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.ctx == nil {
		o.ctx = context.Background()
	}
	return o
}

// WithContext attaches a context: cancelling it aborts the run or session
// promptly (Feed, End and Close return the context's error).
func WithContext(ctx context.Context) Option {
	return func(o *options) { o.ctx = ctx }
}

// WithNetwork supplies a transport (e.g. NewTCPNetwork) instead of the
// default in-memory one. The run or session closes it on completion.
func WithNetwork(nw Network) Option {
	return func(o *options) { o.cfg.Network = nw }
}

// WithoutFinalization skips extending surviving views to the final cut;
// monitors then report only what the token machinery detected online.
func WithoutFinalization() Option {
	return func(o *options) { o.cfg.SkipFinalize = true }
}

// WithPace replays events in real time scaled by the factor (simulated
// seconds × pace = wall seconds). Replay entry points only.
func WithPace(pace float64) Option {
	return func(o *options) { o.cfg.Pace = pace }
}

// WithMaxLag bounds each monitor's retained-knowledge backlog: Feed (and
// the replay feeders) block while any monitor retains at least n events and
// the pipeline is still making progress, which keeps an unpaced replay's
// memory bounded on collectible workloads. 0 keeps the default
// (core.DefaultMaxLag); a negative n disables backpressure.
func WithMaxLag(n int) Option {
	return func(o *options) { o.cfg.MaxLag = n }
}

// WithExactBoxes forces the full-width exact DP for every lattice-box
// exploration. By default, a ○-free property whose propositions touch only
// a proper subset of the processes is explored *sliced*: each box region is
// projected onto the property's support processes before sweeping, which is
// verdict-exact for stutter-invariant properties (LTL without ○) and turns
// dense-broadcast workloads from a deterministic MaxBoxNodes failure into a
// tractable run (see PERFORMANCE.md "Explosion modes"). Properties with ○
// always use the exact DP; this option exists to pin the exact strategy for
// cross-checks and A/B measurements.
func WithExactBoxes() Option {
	return func(o *options) { o.cfg.ExactBoxes = true }
}

// WithInitialState sets the initial global state of an online session (one
// LocalState per process, defaults to all-zero valuations). Sessions only;
// replays take the initial state from the trace header.
func WithInitialState(init GlobalState) Option {
	return func(o *options) { o.init = init.Clone() }
}

// WithValidation rejects mis-wired events at the session boundary: every
// event fed (through Feed or the Process handles) is checked against the
// session's causal contract — contiguous per-process sequence numbers,
// monotone clocks that never reference unseen events, per-process monotone
// timestamps, and send/receive pairing with no message-id reuse — before it
// reaches the monitors. This catches forged or replayed Recv tokens, tokens
// from a different session, and out-of-order handle use, which the internal
// stamper alone cannot see. Sessions only; replays are validated by the
// trace codecs.
func WithValidation() Option {
	return func(o *options) { o.validate = true }
}

// checkReplay rejects options a decentralized replay entry point (Run,
// RunStream) cannot honor.
func (o *options) checkReplay(entry string) error {
	if o.init != nil {
		return fmt.Errorf("decentmon: %s takes the initial state from the trace header; WithInitialState applies to NewSession", entry)
	}
	if o.validate {
		return fmt.Errorf("decentmon: %s replays codec-validated traces; WithValidation applies to NewSession", entry)
	}
	return nil
}

// Run deploys one monitor per process, replays the traces, and returns the
// union verdict set plus per-monitor overhead metrics. It is a replay
// adapter over the online Session engine: each process's events are fed in
// recorded order (optionally paced), then the session is closed.
func Run(spec *Spec, ts *TraceSet, opts ...Option) (*RunResult, error) {
	if err := checkSpecTraces(spec, ts); err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	if err := o.checkReplay("Run"); err != nil {
		return nil, err
	}
	cfg := o.cfg
	cfg.Traces = ts
	cfg.Automaton = spec.mon
	return core.RunContext(o.ctx, cfg)
}

// RunStream is Run over an event stream (e.g. StreamTraces on a ".jsonl"
// file): the decentralized monitors are fed incrementally as events are
// read, never materializing the execution. Verdict sets equal Run's on the
// equivalent trace set, and the feeder-side backpressure (WithMaxLag) keeps
// memory bounded even without pacing on collectible workloads.
func RunStream(spec *Spec, src EventSource, opts ...Option) (*RunResult, error) {
	if src == nil {
		return nil, fmt.Errorf("decentmon: nil event source")
	}
	if err := checkSpecProps(spec, src.Props()); err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	if err := o.checkReplay("RunStream"); err != nil {
		return nil, err
	}
	cfg := o.cfg
	cfg.Automaton = spec.mon
	return core.RunStreamContext(o.ctx, src, cfg)
}

// RunBounded evaluates the property along the stream's physical-time
// lattice path in O(n) memory — the verdict is always a member of the
// oracle's verdict set, and arbitrarily long executions can be monitored
// with a footprint independent of trace length. It is the evaluator behind
// dlmon -bounded, and the stream must be causally ordered (timestamp-ordered
// replays are). Of the options it takes WithContext alone: the path
// evaluator has no monitor network, finalization, pacing, lag gate, lattice
// boxes or validator, and the initial state comes from the stream header.
func RunBounded(spec *Spec, src EventSource, opts ...Option) (*PathResult, error) {
	if src == nil {
		return nil, fmt.Errorf("decentmon: nil event source")
	}
	if err := checkSpecProps(spec, src.Props()); err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	for _, opt := range []struct {
		name string
		set  bool
	}{
		{"WithNetwork", o.cfg.Network != nil},
		{"WithoutFinalization", o.cfg.SkipFinalize},
		{"WithPace", o.cfg.Pace != 0},
		{"WithMaxLag", o.cfg.MaxLag != 0},
		{"WithExactBoxes", o.cfg.ExactBoxes},
		{"WithInitialState", o.init != nil},
		{"WithValidation", o.validate},
	} {
		if opt.set {
			return nil, fmt.Errorf("decentmon: RunBounded takes WithContext only; %s does not apply to a single-path evaluation", opt.name)
		}
	}
	return central.RunPathContext(o.ctx, src, spec.mon)
}

// Oracle computes the exact verdict set over every path of the execution's
// computation lattice (Chapter 3) — the ground truth that a sound and
// complete decentralized run must reproduce. For executions too wide for
// the full lattice, see EvaluateOracle.
func Oracle(spec *Spec, ts *TraceSet) (*OracleResult, error) {
	return EvaluateOracle(spec, ts, OracleConfig{})
}

// EvaluateOracle runs the selected oracle over the execution: OracleExact
// is the Chapter-3 DP, OracleSliced projects the lattice onto the
// property's support processes (same verdict set for ○-free properties at
// the cost of a |support|-process oracle), and OracleSampling explores a
// seeded bounded frontier whose verdicts are a sound subset of the exact
// set (OracleResult.Complete reports which contract holds).
func EvaluateOracle(spec *Spec, ts *TraceSet, cfg OracleConfig) (*OracleResult, error) {
	if err := checkSpecTraces(spec, ts); err != nil {
		return nil, err
	}
	return lattice.EvaluateOracle(ts, spec.mon, cfg)
}

// ParseOracleMode parses an oracle mode name ("exact", "sliced",
// "sampling").
func ParseOracleMode(s string) (OracleMode, error) { return lattice.ParseMode(s) }

// CaseStudySpecAt compiles the named case-study property at the given
// arity: the formula is the arity-process instance, bound to the
// PerProcess(arity, ...) proposition space of exactly the suffixes it uses.
// Pair it with (*TraceSet).WithProps or SourceWithProps to monitor a system
// of n >= arity processes — the enabler for n >= 8 runs, where full-width
// properties are no longer synthesizable and the exact oracle is
// intractable, but an arity-k property keeps both the monitor and the
// sliced oracle at k-process cost.
func CaseStudySpecAt(name string, arity int, opts ...CompileOption) (*Spec, error) {
	var cfg compileCfg
	for _, o := range opts {
		o(&cfg)
	}
	mon, pm, err := props.BuildAt(name, arity, cfg.paperShape)
	if err != nil {
		return nil, err
	}
	formula, err := props.Formula(name, arity)
	if err != nil {
		return nil, err
	}
	return &Spec{Formula: formula, Props: pm, mon: mon}, nil
}

// SourceWithProps re-binds an event stream to a smaller proposition space
// (see CaseStudySpecAt); events pass through unchanged.
func SourceWithProps(src EventSource, pm *PropMap) (EventSource, error) {
	return dist.SourceWithProps(src, pm)
}

// NewChanNetwork returns an in-memory monitor network for n processes.
func NewChanNetwork(n int) Network { return transport.NewChanNetwork(n) }

// NewTCPNetwork returns a loopback TCP monitor network for n processes.
func NewTCPNetwork(n int) (Network, error) { return transport.NewTCPNetwork(n) }

func checkSpecTraces(spec *Spec, ts *TraceSet) error {
	if ts == nil {
		return fmt.Errorf("decentmon: nil trace set")
	}
	return checkSpecProps(spec, ts.Props)
}

func checkSpecProps(spec *Spec, pm *PropMap) error {
	if spec == nil || spec.mon == nil {
		return fmt.Errorf("decentmon: nil spec")
	}
	if pm == nil {
		return fmt.Errorf("decentmon: nil proposition map")
	}
	if len(spec.mon.Props) != pm.Len() {
		return fmt.Errorf("decentmon: spec has %d propositions, traces declare %d", len(spec.mon.Props), pm.Len())
	}
	for i, p := range spec.mon.Props {
		if pm.Names[i] != p {
			return fmt.Errorf("decentmon: proposition %d mismatch: %q vs %q", i, p, pm.Names[i])
		}
	}
	return nil
}
