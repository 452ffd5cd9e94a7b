// Package props defines the six LTL properties of the paper's experimental
// evaluation (§5.1), parameterized by the number of processes n. Every
// process owns two boolean propositions P<i>.p and P<i>.q (the PerProcess
// proposition space of package dist).
//
// The paper states the properties for four processes; for other sizes it
// truncates them to the available processes, noting that "automatons A and C
// for the 2 processes and 3 processes experiments are identical" — which
// pins down the truncation rule for A: the left conjunct takes the first
// ⌊n/2⌋ processes and the right conjunct the rest.
package props

import (
	"fmt"
	"strings"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/ltl"
)

// Names lists the property identifiers in evaluation order.
var Names = []string{"A", "B", "C", "D", "E", "F"}

// conj returns the conjunction of P<i>.<suffix> for i in [lo, hi).
func conj(suffix string, lo, hi int) string {
	parts := make([]string, 0, hi-lo)
	for i := lo; i < hi; i++ {
		parts = append(parts, fmt.Sprintf("P%d.%s", i, suffix))
	}
	return strings.Join(parts, " && ")
}

// Formula returns the textual LTL formula of the named case-study property
// for n processes (n ≥ 2).
func Formula(name string, n int) (string, error) {
	if n < 2 {
		return "", fmt.Errorf("props: properties need n >= 2, got %d", n)
	}
	switch name {
	case "A":
		// □((P0.p ∧ P1.p) U (P2.p ∧ P3.p)), first half vs rest.
		half := n / 2
		return fmt.Sprintf("G ((%s) U (%s))", conj("p", 0, half), conj("p", half, n)), nil
	case "B":
		// ◇(all p concurrently).
		return fmt.Sprintf("F (%s)", conj("p", 0, n)), nil
	case "C":
		// □(P0.p U (P1.p ∧ ... ∧ Pn-1.p)).
		return fmt.Sprintf("G ((P0.p) U (%s))", conj("p", 1, n)), nil
	case "D":
		// □((all p) U (all q)).
		return fmt.Sprintf("G ((%s) U (%s))", conj("p", 0, n), conj("q", 0, n)), nil
	case "E":
		// ◇(all p ∧ all q).
		return fmt.Sprintf("F (%s && %s)", conj("p", 0, n), conj("q", 0, n)), nil
	case "F":
		// □((P0.p U (rest p)) ∧ (P0.q U (rest q))).
		return fmt.Sprintf("G ((P0.p U (%s)) && (P0.q U (%s)))", conj("p", 1, n), conj("q", 1, n)), nil
	}
	return "", fmt.Errorf("props: unknown property %q", name)
}

// All returns the formulas of all six properties for n processes, keyed by
// name.
func All(n int) map[string]string {
	out := map[string]string{}
	for _, name := range Names {
		f, err := Formula(name, n)
		if err != nil {
			panic(err)
		}
		out[name] = f
	}
	return out
}

// Build synthesizes the monitor automaton for a named property at size n
// over the standard PerProcess(n, "p", "q") proposition space.
//
// With paperShape true the formula-progression construction is used — the
// paper's own generator (it reproduces the automata of Figs. 2.3/5.2/5.3
// and the transition counts of Table 5.1); otherwise the minimal LTL3
// Moore machine is built. Both have identical verdict semantics.
func Build(name string, n int, paperShape bool) (*automaton.Monitor, error) {
	fs, err := Formula(name, n)
	if err != nil {
		return nil, err
	}
	f, err := ltl.Parse(fs)
	if err != nil {
		return nil, err
	}
	pm := dist.PerProcess(n, "p", "q")
	if paperShape {
		return automaton.BuildProgression(f, pm.Names)
	}
	return automaton.Build(f, pm.Names)
}

// Suffixes returns the per-process proposition suffixes the named property
// actually uses: A, B and C are pure-p properties, D, E and F need q too.
func Suffixes(name string) ([]string, error) {
	switch name {
	case "A", "B", "C":
		return []string{"p"}, nil
	case "D", "E", "F":
		return []string{"p", "q"}, nil
	}
	return nil, fmt.Errorf("props: unknown property %q", name)
}

// BuildAt synthesizes the named property at the given arity — the property's
// alphabet then touches only processes 0..arity-1 of a possibly much larger
// system — and returns the monitor together with the proposition space it is
// bound to (PerProcess(arity, Suffixes(name)...), so only the propositions
// the formula can mention). Pair the result with (*dist.TraceSet).WithProps
// or dist.SourceWithProps to monitor an n-process execution, n >= arity,
// whose local states follow the PerProcess bit layout.
//
// This is what makes large systems monitorable and oracle-checkable. The
// propositions a formula reads set its synthesis cost, and a full-width
// property reads one or two per process, so it stops being synthesizable
// beyond ~12 processes; the declared proposition space sets only the width
// of the δ table (2^|Names| entries per state). An arity-k property bound to
// its own k-process space keeps both the monitor and the sliced oracle at
// k-process cost regardless of n.
func BuildAt(name string, arity int, paperShape bool) (*automaton.Monitor, *dist.PropMap, error) {
	fs, err := Formula(name, arity)
	if err != nil {
		return nil, nil, err
	}
	f, err := ltl.Parse(fs)
	if err != nil {
		return nil, nil, err
	}
	suf, err := Suffixes(name)
	if err != nil {
		return nil, nil, err
	}
	pm := dist.PerProcess(arity, suf...)
	var mon *automaton.Monitor
	if paperShape {
		mon, err = automaton.BuildProgression(f, pm.Names)
	} else {
		mon, err = automaton.Build(f, pm.Names)
	}
	if err != nil {
		return nil, nil, err
	}
	return mon, pm, nil
}
