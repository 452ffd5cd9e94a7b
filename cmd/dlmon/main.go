// dlmon runs the decentralized monitoring algorithm over a recorded trace
// set: one monitor process per program process, communicating over an
// in-memory or loopback-TCP network, and reports the verdict set plus the
// overhead metrics of Chapter 5.
//
// Trace files are consumed either materialized (the default for .json)
// or as a stream: -stream feeds the decentralized monitors incrementally
// from the reader without materializing the trace (garbage-collecting each
// monitor's knowledge below the global minimal cut as it goes), and
// -bounded evaluates the physical-time lattice path in O(n) memory — with a
// streaming trace (".jsonl", or the faster binary ".dmtb") the pipeline's
// footprint is then independent of trace length, so multi-million-event
// executions can be monitored on a laptop.
//
// Usage:
//
//	tracegen -n 3 -events 10 -plant -o t.dmtb
//	dlmon -trace t.dmtb 'F (P0.p && P1.p && P2.p)'
//	dlmon -trace t.dmtb -case B -tcp -compare
//	tracegen -n 8 -events 200000 -topo ring -o big.dmtb
//	dlmon -trace big.dmtb -bounded -case B
//	tracegen -n 16 -events 5 -topo ring -plant -o wide.json
//	dlmon -trace wide.json -case B -arity 4 -nofinalize -compare -oracle sliced
//
// Beyond the paper's five processes the full computation lattice (and the
// full-width property) stops being tractable: -arity instantiates a
// case-study property over the first k processes only, and -compare's
// -oracle flag selects the sliced oracle (projected to those processes,
// exact for these properties) or the seeded sampling oracle (a sound
// subset) as ground truth.
//
// Exit status: 0 on success, 1 on error, 2 on usage mistakes, and 3 when
// the final verdict set contains ⊥ (a property violation) — so shell
// pipelines and CI smoke tests can gate on violations:
//
//	dlmon -trace t.jsonl -stream -case B || echo "violated or failed"
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"decentmon/internal/automaton"
	"decentmon/internal/central"
	"decentmon/internal/core"
	"decentmon/internal/dist"
	"decentmon/internal/lattice"
	"decentmon/internal/ltl"
	"decentmon/internal/props"
	"decentmon/internal/transport"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "trace set file (.json, .jsonl or .dmtb) from tracegen")
		caseProp  = flag.String("case", "", "use a case-study property A..F instead of a formula argument")
		arity     = flag.Int("arity", 0, "with -case: instantiate the property at this arity instead of the full process count (its alphabet then touches only the first processes — required beyond ~12 processes, and what keeps the sliced oracle tractable)")
		shape     = flag.String("shape", "minimal", "automaton construction: minimal or paper")
		oracleM   = flag.String("oracle", "exact", "oracle for -compare: exact (full lattice), sliced (projected to the property's support; exact for X-free properties) or sampling (seeded bounded frontier; sound subset)")
		frontier  = flag.Int("frontier", 0, "sampling oracle: per-rank frontier bound (0 = default)")
		oseed     = flag.Int64("oracleseed", 1, "sampling oracle: exploration seed")
		stream    = flag.Bool("stream", false, "feed the monitors from the streaming reader instead of materializing the trace (a .json trace is still loaded whole first; use .jsonl/.dmtb for bounded memory)")
		bounded   = flag.Bool("bounded", false, "stream the physical-time lattice path in bounded memory (implies -stream; same .json caveat)")
		tcp       = flag.Bool("tcp", false, "run monitors over loopback TCP instead of in-memory channels")
		noFin     = flag.Bool("nofinalize", false, "skip extending views to the final cut")
		pace      = flag.Float64("pace", 0, "real-time replay scale (simulated seconds × pace = wall seconds)")
		maxLag    = flag.Int("maxlag", 0, "retained-knowledge backlog (events/monitor) before the feeder blocks; 0 = default, negative disables backpressure")
		compare   = flag.Bool("compare", false, "also run the oracle and the centralized baseline and compare")
	)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dlmon -trace FILE [-case A..F | 'formula'] [flags]")
		fmt.Fprintln(os.Stderr, "exit status: 0 ok, 1 error, 2 usage, 3 final verdict contains ⊥ (violation)")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *tracePath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *compare && (*stream || *bounded) {
		// The oracle and the centralized baseline walk the materialized
		// lattice; comparing defeats the purpose of streaming.
		fatal(fmt.Errorf("-compare needs the materialized path; drop -stream/-bounded"))
	}
	if *bounded && (*tcp || *noFin || *pace > 0 || *maxLag != 0) {
		// The bounded path evaluator has no monitor network, finalization or
		// lag gate; rejecting beats silently dropping the flags.
		fatal(fmt.Errorf("-bounded is incompatible with -tcp, -nofinalize, -pace and -maxlag"))
	}

	// The stream header (or the loaded set) provides the proposition space
	// before any event is consumed, so the automaton is built up front.
	var (
		ts  *dist.TraceSet
		src dist.EventSource
		pm  *dist.PropMap
		n   int
		err error
	)
	if *stream || *bounded {
		if !dist.IsStreamingPath(*tracePath) {
			fmt.Fprintf(os.Stderr, "dlmon: note: %s is not a streaming format; the trace is loaded whole before streaming (write %s for memory independent of trace length)\n",
				*tracePath, strings.Join(streamingExts(), " or "))
		}
		src, err = dist.StreamFile(*tracePath)
		if err != nil {
			fatal(err)
		}
		defer src.Close()
		pm, n = src.Props(), src.N()
	} else {
		ts, err = dist.LoadFile(*tracePath)
		if err != nil {
			fatal(err)
		}
		pm, n = ts.Props, ts.N()
	}

	if *arity != 0 && *caseProp == "" {
		fatal(fmt.Errorf("-arity applies to -case properties (write a reduced formula directly otherwise)"))
	}
	var formula string
	var mon *automaton.Monitor
	switch {
	case *caseProp != "" && *arity != 0:
		if *arity < 2 || *arity > n {
			fatal(fmt.Errorf("-arity must be between 2 and the %d processes of the trace, got %d", n, *arity))
		}
		// Reduced arity re-binds the execution to the property's own
		// proposition sub-space (same PerProcess bit layout).
		var apm *dist.PropMap
		mon, apm, err = props.BuildAt(*caseProp, *arity, *shape == "paper")
		if err != nil {
			fatal(err)
		}
		if formula, err = props.Formula(*caseProp, *arity); err != nil {
			fatal(err)
		}
		if ts != nil {
			if ts, err = ts.WithProps(apm); err != nil {
				fatal(err)
			}
		}
		if src != nil {
			if src, err = dist.SourceWithProps(src, apm); err != nil {
				fatal(err)
			}
		}
	default:
		if *caseProp != "" {
			formula, err = props.Formula(*caseProp, n)
			if err != nil {
				fatal(err)
			}
		} else if flag.NArg() == 1 {
			formula = flag.Arg(0)
		} else {
			fatal(fmt.Errorf("need -case or a formula argument"))
		}
		f, err := ltl.Parse(formula)
		if err != nil {
			fatal(err)
		}
		if *shape == "paper" {
			mon, err = automaton.BuildProgression(f, pm.Names)
		} else {
			mon, err = automaton.Build(f, pm.Names)
		}
		if err != nil {
			fatal(err)
		}
	}
	oracleMode, err := lattice.ParseMode(*oracleM)
	if err != nil {
		fatal(err)
	}

	// All three modes ride the context-aware session engine: an interrupt
	// cancels the monitors mid-run instead of leaving them to be killed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *bounded {
		res, err := central.RunPathContext(ctx, src, mon)
		if err != nil {
			fatal(err)
		}
		// Only a streaming input actually streams; the other formats are
		// materialized behind the same interface, so say so.
		how := "streamed, bounded memory"
		if !dist.IsStreamingPath(*tracePath) {
			how = "materialized input; use " + strings.Join(streamingExts(), " or ") + " for bounded memory"
		}
		fmt.Printf("property       : %s\n", formula)
		fmt.Printf("processes      : %d, events: %d (%s)\n", n, res.Events, how)
		fmt.Printf("path verdict   : %v\n", res.Verdict)
		if res.FirstConclusiveEvents >= 0 {
			fmt.Printf("conclusive at  : event %d\n", res.FirstConclusiveEvents)
		}
		if res.Verdict == automaton.Bottom {
			os.Exit(3)
		}
		return
	}

	cfg := core.RunConfig{
		Traces:       ts,
		Automaton:    mon,
		SkipFinalize: *noFin,
		Pace:         *pace,
		MaxLag:       *maxLag,
	}
	if *tcp {
		nw, err := transport.NewTCPNetwork(n)
		if err != nil {
			fatal(err)
		}
		cfg.Network = nw
	}
	var res *core.RunResult
	if *stream {
		res, err = core.RunStreamContext(ctx, src, cfg)
	} else {
		res, err = core.RunContext(ctx, cfg)
	}
	if err != nil {
		fatal(err)
	}

	events := 0
	if ts != nil {
		events = ts.TotalEvents()
	} else {
		for _, m := range res.Metrics {
			events += m.EventsProcessed
		}
	}
	fmt.Printf("property       : %s\n", formula)
	fmt.Printf("processes      : %d, events: %d\n", n, events)
	fmt.Printf("verdicts       : %v\n", res.VerdictList())
	fmt.Printf("monitor msgs   : %d (%d bytes)\n", res.NetMessages, res.NetBytes)
	if res.FirstConclusive > 0 {
		fmt.Printf("first verdict  : after %v\n", res.FirstConclusive)
	}
	gv, searches, hops := 0, 0, 0
	peak, collected := 0, 0
	for _, m := range res.Metrics {
		gv += m.GlobalViewsCreated
		searches += m.SearchesLaunched
		hops += m.TokenHops
		if m.KnowledgePeak > peak {
			peak = m.KnowledgePeak
		}
		collected += m.KnowledgeCollected
	}
	fmt.Printf("global views   : %d, searches: %d, token hops: %d\n", gv, searches, hops)
	fmt.Printf("knowledge      : peak %d events/monitor, %d collected\n", peak, collected)

	if *compare {
		oracle, err := lattice.EvaluateOracle(ts, mon, lattice.OracleConfig{
			Mode: oracleMode, MaxFrontier: *frontier, Seed: *oseed,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("oracle         : %v over %d lattice cuts (%s)\n", oracle.Verdicts, oracle.NumCuts, oracle.Mode)
		if oracleMode == lattice.ModeExact {
			// The centralized baseline walks the same full lattice the exact
			// oracle does; under the tractable modes it would defeat their
			// purpose.
			cen, err := central.Run(ts, mon)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("centralized    : %d msgs, %d lattice nodes\n", cen.Messages, cen.NodesCreated)
		}
		switch {
		case !oracle.Complete:
			// Sampling: the oracle's verdicts are a sound subset of the
			// truth, so it can only witness run verdicts, not refute extras.
			ok := true
			for v := range oracle.VerdictSet() {
				if !res.Verdicts[v] {
					ok = false
				}
			}
			fmt.Printf("sample-covered : %v (sampling oracle is one-sided)\n", ok)
		case *noFin:
			// Without finalization the run reports detection-time verdicts
			// only; the Chapter-3 claim then applies to ⊤/⊥ alone.
			ok := true
			for _, v := range []automaton.Verdict{automaton.Top, automaton.Bottom} {
				if oracle.VerdictSet()[v] != res.Verdicts[v] {
					ok = false
				}
			}
			fmt.Printf("conclusive-agree: %v (no finalization: ? not comparable)\n", ok)
		default:
			match := len(res.Verdicts) == len(oracle.VerdictSet())
			for v := range oracle.VerdictSet() {
				if !res.Verdicts[v] {
					match = false
				}
			}
			fmt.Printf("sound+complete : %v\n", match)
		}
	}
	if res.Verdicts[automaton.Bottom] {
		// Distinct from error exits so pipelines can gate on violations.
		os.Exit(3)
	}
}

// streamingExts lists the registered streaming extensions, for messages.
func streamingExts() []string {
	var out []string
	for _, c := range dist.Codecs() {
		out = append(out, c.Ext())
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlmon:", err)
	os.Exit(1)
}
