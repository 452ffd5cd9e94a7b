// tracegen generates the case-study trace files of §5.1/§5.2: per-process
// event sequences with normally distributed wait times between valuation
// changes (Evtµ/Evtσ) and communication bursts (Commµ/Commσ), vector clocks
// included. The -topo flag selects the communication topology (uniform
// random unicast, ring, star, broadcast bursts, or partitioned clusters).
// Every output is a trace stream written as it is generated, so
// multi-million-event traces generate in memory independent of their length:
// binary at a ".dmtb" path (about an order of magnitude faster to decode on
// the monitoring side), JSON lines at any other path and on stdout.
//
// Usage:
//
//	tracegen -n 4 -events 20 -commmu 3 -seed 7 -o trace.jsonl
//	tracegen -n 5 -events 50 -plant -o trace.dmtb
//	tracegen -n 64 -topo ring -events 100000 -o trace.dmtb
//	tracegen -n 12 -topo clustered -clusters 3 -crossprob 0.05 > trace.jsonl
//	tracegen -n 16 -events 5 -topo ring -plant -o wide.dmtb -case B -arity 3
//
// -case certifies the trace: after generating, tracegen prints the oracle's
// verdict set for that case-study property, so a shipped trace carries its
// known answer. At -arity below -n the oracle walks the lattice projected
// onto the property's processes, which keeps it tractable at any -n.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/lattice"
	"decentmon/internal/props"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable body of main; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n        = fs.Int("n", 4, fmt.Sprintf("number of processes (at least 1; at most %d processes and %d propositions in all)", dist.MaxSpace, dist.MaxSpace))
		events   = fs.Int("events", 20, "internal (valuation-change) events per process")
		evtMu    = fs.Float64("evtmu", 3, "mean seconds between internal events")
		evtSig   = fs.Float64("evtsigma", 1, "stddev of internal-event wait")
		commMu   = fs.Float64("commmu", 3, "mean seconds between communication events (<=0 disables)")
		commSig  = fs.Float64("commsigma", 1, "stddev of communication wait")
		topo     = fs.String("topo", "uniform", "communication topology: uniform, ring, star, broadcast or clustered")
		hub      = fs.Int("hub", 0, "center process of the star topology")
		clusters = fs.Int("clusters", 2, "process groups of the clustered topology")
		crossP   = fs.Float64("crossprob", 0, "probability a clustered communication crosses clusters")
		suffixes = fs.String("suffixes", "p,q", "comma-separated per-process proposition suffixes")
		trueP    = fs.Float64("truep", 0.5, "probability a proposition is true after an internal event")
		plant    = fs.Bool("plant", false, "force all propositions true at each process's final internal event")
		seed     = fs.Int64("seed", 1, "random seed")
		out      = fs.String("o", "", "output file: binary at a .dmtb path, JSON lines at any other; JSON lines on stdout if empty")
		caseProp = fs.String("case", "", "after generating, print the oracle's verdict set for this case-study property (A..F) over the trace (materializes the trace — keep -events moderate)")
		arity    = fs.Int("arity", 0, "with -case: property arity (0 = all processes; smaller keeps the oracle tractable at any -n)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	suf := strings.Split(*suffixes, ",")
	for i := range suf {
		suf[i] = strings.TrimSpace(suf[i])
	}
	if *n < 1 {
		fmt.Fprintf(stderr, "tracegen: -n must be at least 1, got %d\n", *n)
		return 2
	}
	topology, err := dist.ParseTopology(*topo)
	if err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 2
	}

	probs := make(map[string]float64, len(suf))
	for _, s := range suf {
		probs[s] = *trueP
	}
	cfg := dist.GenConfig{
		N: *n, InternalPerProc: *events,
		EvtMu: *evtMu, EvtSigma: *evtSig,
		CommMu: *commMu, CommSigma: *commSig,
		Topology: topology, Hub: *hub, Clusters: *clusters, CrossProb: *crossP,
		Suffixes: suf, TrueProbs: probs,
		PlantGoal: *plant, Seed: *seed,
	}
	if err := cfg.Check(); err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 2
	}

	// The certification flags are checked before the output is opened, so a
	// bad one leaves no file behind.
	var mon *automaton.Monitor
	if *caseProp != "" {
		if *arity == 0 {
			*arity = *n
		}
		if *arity < 2 || *arity > *n {
			fmt.Fprintf(stderr, "tracegen: -arity must be between 2 and %d, got %d\n", *n, *arity)
			return 2
		}
		if mon, _, err = props.BuildAt(*caseProp, *arity, false); err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 2
		}
		if _, err := cfg.Props().Restrict(mon.Props); err != nil {
			fmt.Fprintf(stderr, "tracegen: -case %s reads a proposition the trace does not declare: %v\n", *caseProp, err)
			return 2
		}
	} else if *arity != 0 {
		fmt.Fprintln(stderr, "tracegen: -arity applies to -case properties")
		return 2
	}

	// Events are written as they are generated: no materialized trace set,
	// memory independent of -events. Stdout, like every path but a .dmtb
	// one, gets JSON lines.
	codec := dist.CodecForPath(*out)
	var sink dist.StreamSink
	if *out == "" {
		sink, err = codec.Create(stdout, cfg.Props(), cfg.InitState())
	} else {
		sink, err = dist.CreateStream(*out, cfg.Props(), cfg.InitState())
	}
	if err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	if err := dist.GenerateStream(cfg, sink.Write); err != nil {
		sink.Close()
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	if err := sink.Close(); err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	if *out != "" {
		fmt.Fprintf(stdout, "streamed %d processes, %d events to %s (%s)\n", cfg.N, sink.Events(), *out, codec.Name())
	}
	if mon == nil {
		return 0
	}
	// The certification pass needs the materialized set; the generator is
	// deterministic, so re-generating reproduces the streamed trace.
	start := time.Now()
	res, err := lattice.Evaluate(dist.Generate(cfg), mon)
	if err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	fmt.Fprintf(stdout, "oracle %s/%d: %v over %d cuts (support %d of %d processes) in %v (exact verdict set)\n",
		*caseProp, *arity, res.Verdicts, res.NumCuts, len(res.SupportProcs), cfg.N, time.Since(start).Round(time.Millisecond))
	return 0
}
