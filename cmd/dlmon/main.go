// dlmon runs the decentralized monitoring algorithm over a recorded trace
// set: one monitor process per program process, communicating over an
// in-memory or loopback-TCP network, and reports the verdict set plus the
// overhead metrics of Chapter 5.
//
// A trace file (binary at a ".dmtb" path, JSON lines at any other) is a
// stream, and dlmon feeds the decentralized monitors from the reader without
// materializing the trace (garbage-collecting each monitor's knowledge below
// the global minimal cut as it goes); -bounded instead evaluates the
// physical-time lattice path in O(n) memory. Either way the pipeline's
// footprint is independent of trace length, so multi-million-event
// executions can be monitored on a laptop. Only -compare materializes the
// trace, because the oracle walks the whole lattice; the monitors are then
// fed from the loaded set's timestamp-order stream.
//
// Usage:
//
//	tracegen -n 3 -events 10 -plant -o t.dmtb
//	dlmon -trace t.dmtb 'F (P0.p && P1.p && P2.p)'
//	dlmon -trace t.dmtb -case B -tcp -compare
//	tracegen -n 8 -events 200000 -topo ring -o big.dmtb
//	dlmon -trace big.dmtb -bounded -case B
//	tracegen -n 16 -events 5 -topo ring -plant -o wide.jsonl
//	dlmon -trace wide.jsonl -case B -arity 4 -nofinalize -compare
//
// Beyond the paper's five processes the full computation lattice (and the
// full-width property) stops being tractable: -arity instantiates a
// case-study property over the first k processes only, and -compare's oracle
// then walks the lattice projected onto those processes, which is exact for
// ○-free properties. -compare also prints the message counts of the
// centralized and replicated baselines, which are closed forms over the
// trace.
//
// Exit status: 0 on success, 1 on error, 2 on usage mistakes, and 3 when
// the final verdict set contains ⊥ (a property violation) — so shell
// pipelines and CI smoke tests can gate on violations:
//
//	dlmon -trace t.jsonl -case B || echo "violated or failed"
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

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
		tracePath = flag.String("trace", "", "trace file from tracegen: binary at a .dmtb path, JSON lines at any other")
		caseProp  = flag.String("case", "", "use a case-study property A..F instead of a formula argument")
		arity     = flag.Int("arity", 0, "with -case: instantiate the property at this arity instead of the full process count (its alphabet then touches only the first processes — required beyond ~12 processes, and what keeps the oracle tractable)")
		shape     = flag.String("shape", "minimal", "automaton construction: minimal or paper")
		bounded   = flag.Bool("bounded", false, "evaluate the physical-time lattice path in bounded memory instead of running the monitors")
		tcp       = flag.Bool("tcp", false, "run monitors over loopback TCP instead of in-memory channels")
		noFin     = flag.Bool("nofinalize", false, "skip extending views to the final cut")
		pace      = flag.Float64("pace", 0, "real-time replay scale (simulated seconds × pace = wall seconds)")
		compare   = flag.Bool("compare", false, "also run the oracle and compare, and print the centralized and replicated baselines' message counts (materializes the trace)")
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
	if *compare && *bounded {
		// The oracle walks the materialized lattice; comparing defeats the
		// purpose of the bounded path.
		fatal(fmt.Errorf("-compare materializes the trace for the oracle; drop -bounded"))
	}
	if *bounded && (*tcp || *noFin || *pace > 0) {
		// The bounded path evaluator has no monitor network, finalization or
		// pacing; rejecting beats silently dropping the flags.
		fatal(fmt.Errorf("-bounded is incompatible with -tcp, -nofinalize and -pace"))
	}

	// The stream header (or the loaded set) provides the proposition space
	// before any event is consumed, so the automaton is built up front. Only
	// the oracle needs the trace materialized.
	var (
		ts  *dist.TraceSet
		src dist.EventSource
		pm  *dist.PropMap
		n   int
		err error
	)
	if *compare {
		ts, err = dist.LoadFile(*tracePath)
		if err != nil {
			fatal(err)
		}
		pm, n = ts.Props, ts.N()
	} else {
		src, err = dist.StreamFile(*tracePath)
		if err != nil {
			fatal(err)
		}
		defer src.Close()
		pm, n = src.Props(), src.N()
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
	if ts != nil {
		src = ts.Stream()
	}
	// Both modes take a context: an interrupt cancels the monitors (or the
	// path evaluator) mid-run instead of leaving them to be killed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *bounded {
		res, err := central.RunPathContext(ctx, src, mon)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("property       : %s\n", formula)
		fmt.Printf("processes      : %d, events: %d (streamed, bounded memory)\n", n, res.Events)
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
		Automaton:    mon,
		SkipFinalize: *noFin,
		Pace:         *pace,
	}
	if *tcp {
		nw, err := transport.NewTCPNetwork(n)
		if err != nil {
			fatal(err)
		}
		cfg.Network = nw
	}
	res, err := core.RunStreamContext(ctx, src, cfg)
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
		oracle, err := lattice.Evaluate(ts, mon)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("oracle         : %v over %d lattice cuts (support %d of %d processes)\n",
			oracle.Verdicts, oracle.NumCuts, len(oracle.SupportProcs), n)
		// A central node on process 0 receives every other process's events;
		// replicated broadcast sends each event to n−1 peers, then runs two
		// all-to-all termination rounds.
		fmt.Printf("baselines      : central %d msgs (Σ_{p≠0} |E_p|), replicated %d msgs ((n−1)·events + 2n(n−1))\n",
			events-len(ts.Traces[0].Events), (n-1)*events+2*n*(n-1))
		switch {
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlmon:", err)
	os.Exit(1)
}
