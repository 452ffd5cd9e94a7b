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
//	tracegen -n 32 -suffixes p -topo ring -events 1000000 -o trace.dmtb
//	tracegen -n 12 -topo clustered -clusters 3 -crossprob 0.05 > trace.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

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
		n        = fs.Int("n", 4, "number of processes (1..32; above 16 pass fewer -suffixes)")
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
		caseProp = fs.String("case", "", "with -oracle: the case-study property (A..F) to certify the trace against")
		arity    = fs.Int("arity", 0, "with -case: property arity (0 = all processes; smaller keeps the oracle tractable at any -n)")
		oracleM  = fs.String("oracle", "", "after generating, print this oracle's verdict set for -case over the trace: exact, sliced or sampling (materializes the trace — keep -events moderate)")
		frontier = fs.Int("frontier", 0, "sampling oracle: per-rank frontier bound (0 = default)")
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
	maxN := dist.MaxProps / len(suf)
	switch {
	case *n < 1 || *n > dist.MaxProps:
		// The hard ceiling: even one proposition per process caps out the
		// 32-bit letter encoding at 32 processes.
		fmt.Fprintf(stderr, "tracegen: -n must be between 1 and %d (the %d-process ceiling of the 32-bit letter encoding), got %d\n",
			dist.MaxProps, dist.MaxProps, *n)
		return 2
	case *n > maxN:
		fmt.Fprintf(stderr, "tracegen: %d processes × %d propositions exceed the %d-proposition space; pass fewer -suffixes (e.g. -suffixes p allows up to %d processes)\n",
			*n, len(suf), dist.MaxProps, dist.MaxProps)
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

	if *oracleM != "" && *caseProp == "" {
		fmt.Fprintln(stderr, "tracegen: -oracle needs -case")
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
	// The certification pass needs the materialized set; the generator is
	// deterministic, so re-generating reproduces the streamed trace.
	if *oracleM != "" {
		return certify(dist.Generate(cfg), *caseProp, *arity, *oracleM, *frontier, *seed, stdout, stderr)
	}
	return 0
}

// certify evaluates the selected oracle for a case-study property over the
// generated trace and prints the ground-truth verdict set, so shipped
// traces carry a known answer.
func certify(ts *dist.TraceSet, caseProp string, arity int, oracleM string, frontier int, seed int64, stdout, stderr io.Writer) int {
	mode, err := lattice.ParseMode(oracleM)
	if err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 2
	}
	if arity == 0 {
		arity = ts.N()
	}
	if arity < 2 || arity > ts.N() {
		fmt.Fprintf(stderr, "tracegen: -arity must be between 2 and %d, got %d\n", ts.N(), arity)
		return 2
	}
	mon, pm, err := props.BuildAt(caseProp, arity, false)
	if err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 2
	}
	bound, err := ts.WithProps(pm)
	if err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	start := time.Now()
	res, err := lattice.EvaluateOracle(bound, mon, lattice.OracleConfig{Mode: mode, MaxFrontier: frontier, Seed: seed})
	if err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	contract := "exact verdict set"
	if !res.Complete {
		contract = "sound subset"
	}
	fmt.Fprintf(stdout, "oracle %s %s/%d: %v over %d cuts in %v (%s)\n",
		res.Mode, caseProp, arity, res.Verdicts, res.NumCuts, time.Since(start).Round(time.Millisecond), contract)
	return 0
}
