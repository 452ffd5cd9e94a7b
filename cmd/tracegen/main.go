// tracegen generates the case-study trace files of §5.1/§5.2: per-process
// event sequences with normally distributed wait times between valuation
// changes (Evtµ/Evtσ) and communication bursts (Commµ/Commσ), vector clocks
// included. The -topo flag selects the communication topology (uniform
// random unicast, ring, star, broadcast bursts, or partitioned clusters).
// A streaming output (".jsonl", or the binary ".dmtb" — selected by
// extension or forced with -format) is written through the streaming
// pipeline, so multi-million-event traces generate in memory independent of
// their length; ".dmtb" additionally decodes about an order of magnitude
// faster than JSON on the monitoring side.
//
// Usage:
//
//	tracegen -n 4 -events 20 -commmu 3 -seed 7 -o trace.json
//	tracegen -n 5 -events 50 -plant -o trace.dmtb
//	tracegen -n 32 -suffixes p -topo ring -events 1000000 -o trace.dmtb
//	tracegen -n 8 -events 200000 -format dmtb -o trace.bin
//	tracegen -n 12 -topo clustered -clusters 3 -crossprob 0.05 -o trace.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
		out      = fs.String("o", "", "output file (.json, .jsonl or .dmtb); stdout JSON if empty")
		format   = fs.String("format", "", "force a streaming codec ("+strings.Join(dist.CodecNames(), " or ")+") regardless of the output extension")
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

	// The streaming formats write events as they are generated: no
	// materialized trace set, memory independent of -events. The codec is
	// chosen by the output extension, or forced by -format.
	codec, streaming := dist.CodecForPath(*out)
	if *format != "" {
		c, err := dist.CodecByName(*format)
		if err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 2
		}
		if *out == "" {
			fmt.Fprintln(stderr, "tracegen: -format needs an output file (-o)")
			return 2
		}
		if streaming && c != codec {
			fmt.Fprintf(stderr, "tracegen: -format %s contradicts the %s extension of %s\n", c.Name(), codec.Ext(), *out)
			return 2
		}
		// The materialized extension is just as contradictory: every reader
		// selects its decoder by extension, so stream bytes under .json would
		// produce a file nothing can open.
		if strings.EqualFold(filepath.Ext(*out), ".json") {
			fmt.Fprintf(stderr, "tracegen: -format %s contradicts the materialized .json extension of %s\n", c.Name(), *out)
			return 2
		}
		codec, streaming = c, true
	}
	if *oracleM != "" && *caseProp == "" {
		fmt.Fprintln(stderr, "tracegen: -oracle needs -case")
		return 2
	}
	if streaming {
		sw, err := dist.CreateStreamCodec(codec, *out, cfg.Props(), cfg.InitState())
		if err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 1
		}
		if err := dist.GenerateStream(cfg, sw.Write); err != nil {
			sw.Close()
			fmt.Fprintln(stderr, "tracegen:", err)
			return 1
		}
		if err := sw.Close(); err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 1
		}
		fmt.Fprintf(stdout, "streamed %d processes, %d events to %s (%s)\n", cfg.N, sw.Events(), *out, codec.Name())
		// The certification pass needs the materialized set; the generator
		// is deterministic, so re-generating reproduces the streamed trace.
		if *oracleM != "" {
			return certify(dist.Generate(cfg), *caseProp, *arity, *oracleM, *frontier, *seed, stdout, stderr)
		}
		return 0
	}

	ts := dist.Generate(cfg)
	if err := ts.Validate(); err != nil {
		fmt.Fprintln(stderr, "tracegen: generated trace invalid:", err)
		return 1
	}
	if *out == "" {
		if err := ts.WriteJSON(stdout); err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 1
		}
	} else {
		if err := ts.SaveFile(*out); err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d processes, %d events to %s\n", ts.N(), ts.TotalEvents(), *out)
	}
	if *oracleM != "" {
		return certify(ts, *caseProp, *arity, *oracleM, *frontier, *seed, stdout, stderr)
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
