// ltl2mon synthesizes the LTL3 monitor automaton for a property and prints
// it as text or Graphviz DOT — the tool behind Figs. 2.3, 5.2 and 5.3.
//
// Usage:
//
//	ltl2mon -props P0.p,P0.q,P1.p,P1.q [-shape paper|minimal] [-dot] 'G ((P0.p && P1.p) U (P0.q && P1.q))'
//	ltl2mon -case D -n 2 -dot          # one of the paper's properties A..F
//
// -props declares the propositions and their order; the monitor's alphabet is
// the ones the formula reads, in that order. The text output's propositions:
// line lists only those, and guards are written over them.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/ltl"
	"decentmon/internal/props"
)

func main() {
	var (
		propList = flag.String("props", "", "comma-separated propositions as <name>@<proc> or P<i>.<suffix>")
		caseProp = flag.String("case", "", "use a case-study property A..F instead of a formula argument")
		n        = flag.Int("n", 2, "number of processes for -case")
		shape    = flag.String("shape", "paper", "construction: paper (progression) or minimal")
		dot      = flag.Bool("dot", false, "emit Graphviz DOT instead of a text description")
	)
	flag.Parse()

	var formula string
	var names []string
	switch {
	case *caseProp != "":
		fs, err := props.Formula(*caseProp, *n)
		if err != nil {
			fatal(err)
		}
		formula = fs
		names = dist.PerProcess(*n, "p", "q").Names
	case flag.NArg() == 1:
		formula = flag.Arg(0)
		if *propList == "" {
			// Infer the proposition list from the formula (ownership is
			// irrelevant for synthesis alone).
			f, err := ltl.Parse(formula)
			if err != nil {
				fatal(err)
			}
			names = f.Props()
		} else {
			for _, p := range strings.Split(*propList, ",") {
				names = append(names, strings.TrimSpace(strings.Split(p, "@")[0]))
			}
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: ltl2mon [-case A..F -n N | 'formula'] [-props ...] [-shape paper|minimal] [-dot]")
		os.Exit(2)
	}

	f, err := ltl.Parse(formula)
	if err != nil {
		fatal(err)
	}
	var mon *automaton.Monitor
	switch *shape {
	case "paper":
		mon, err = automaton.BuildProgression(f, names)
	case "minimal":
		mon, err = automaton.Build(f, names)
	default:
		fatal(fmt.Errorf("unknown -shape %q", *shape))
	}
	if err != nil {
		fatal(err)
	}
	if *dot {
		fmt.Print(mon.Dot("monitor"))
		return
	}
	fmt.Print(mon.Describe())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ltl2mon:", err)
	os.Exit(1)
}
