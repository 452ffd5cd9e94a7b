// Package lattice implements the computation lattice of a distributed
// execution (Definitions 4–7) and the Chapter-3 oracle: given the full trace
// set and an LTL3 monitor, it computes the exact set of verdicts over *all*
// lattice paths.
//
// The oracle is the ground truth for the soundness and completeness claims
// of the decentralized algorithm (Equations 3.1/3.2): a decentralized run is
// sound iff its verdict set is a subset of the oracle's and complete iff it
// is a superset.
//
// Rather than enumerating paths (exponentially many), the oracle performs a
// layered dynamic program over consistent cuts: the set of automaton states
// reachable at a cut is the union over its lattice predecessors of the
// automaton step on the cut's global state. Because conclusive monitor
// states (⊤/⊥) are absorbing, the verdict set of all paths equals the
// verdict labels of the states reachable at the final cut.
//
// There is one oracle, and the formula chooses the lattice it walks: the DP
// spans the processes automaton.Monitor.Support returns, the owners of the
// propositions in AP(ϕ) when ϕ is ○-free and reads one, every process
// otherwise. That function's doc gives the stutter-invariance argument that
// makes the projected walk exact; the engine's box explorations follow the
// same rule.
package lattice

import (
	"fmt"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/vclock"
)

// Result summarizes the oracle evaluation of one execution.
type Result struct {
	// SupportProcs are the processes the DP spanned, sorted: ϕ's support
	// when the lattice was projected, every process otherwise.
	SupportProcs []int
	// NumCuts and NumEdges are the size of the explored lattice: the
	// lattice over SupportProcs.
	NumCuts, NumEdges int
	// MaxWidth is the largest number of consistent cuts in one rank layer —
	// a measure of how much concurrency the execution exhibits.
	MaxWidth int
	// FinalStates are the automaton states reachable at the final cut,
	// sorted ascending.
	FinalStates []int
	// Verdicts is the oracle verdict set: the distinct verdict labels of
	// FinalStates.
	Verdicts []automaton.Verdict
	// FirstConclusiveRank is the smallest rank (number of SupportProcs
	// events) at which some path reaches a conclusive state, or -1 if none
	// does.
	FirstConclusiveRank int
}

// HasVerdict reports whether v is in the oracle verdict set.
func (r *Result) HasVerdict(v automaton.Verdict) bool {
	for _, w := range r.Verdicts {
		if w == v {
			return true
		}
	}
	return false
}

// VerdictSet returns the verdicts as a set keyed by verdict.
func (r *Result) VerdictSet() map[automaton.Verdict]bool {
	s := map[automaton.Verdict]bool{}
	for _, v := range r.Verdicts {
		s[v] = true
	}
	return s
}

// stateset is a bitset over monitor states.
type stateset []uint64

func newStateset(n int) stateset { return make(stateset, (n+63)/64) }

func (s stateset) set(i int)      { s[i/64] |= 1 << (i % 64) }
func (s stateset) has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

// Evaluate runs the oracle over the complete execution, over the lattice the
// formula chooses (see the package doc). The traces must declare every
// proposition the monitor reads; the monitor's letters are read through them
// by name (dist.PropMap.Restrict).
func Evaluate(ts *dist.TraceSet, mon *automaton.Monitor) (*Result, error) {
	letters, err := ts.Props.Restrict(mon.Props)
	if err != nil {
		return nil, err
	}
	return evalProjected(ts, mon, letters, mon.Support(letters.Owner, ts.N()))
}

// EvaluateSliced is Evaluate for a property that must be sliced: it refuses a
// ○-formula or a monitor without a formula instead of falling back to the
// full lattice.
func EvaluateSliced(ts *dist.TraceSet, mon *automaton.Monitor) (*Result, error) {
	if mon.Formula == nil {
		return nil, fmt.Errorf("lattice: monitor carries no formula; stutter invariance is undetermined")
	}
	if mon.Formula.HasNext() {
		return nil, fmt.Errorf("lattice: sliced oracle needs a ○-free (stutter-invariant) property, got %s", mon.Formula)
	}
	return Evaluate(ts, mon)
}

// evalProjected runs the layered DP over the sub-lattice spanned by the
// given processes: cuts are |procs|-vectors, and an event of procs[i] may
// extend a cut iff its causal history *restricted to procs* is contained in
// it (vector clocks are transitive, so causality routed through projected-
// away processes is still enforced). With procs covering every process this
// is exactly the Chapter-3 DP over the full computation lattice. letters binds
// mon's propositions to the traces' space.
func evalProjected(ts *dist.TraceSet, mon *automaton.Monitor, letters *dist.PropMap, procs []int) (*Result, error) {
	n := ts.N()
	k := len(procs)
	// fullCut materializes a projected cut back into the n-process space so
	// the global-state letter can be read; projected-away processes stay at
	// their initial valuation, which cannot matter — the projection is only
	// sound when they own no proposition the monitor depends on.
	fullCut := func(cut vclock.VC) vclock.VC {
		fc := vclock.New(n)
		for i, p := range procs {
			fc[p] = cut[i]
		}
		return fc
	}
	type node struct {
		cut    vclock.VC // length k, indexed like procs
		states stateset
	}
	index := map[string]*node{}
	start := &node{cut: vclock.New(k), states: newStateset(mon.NumStates())}
	// The automaton consumes the initial global state first (§4.2 INIT).
	q0 := mon.Step(mon.Initial(), letters.Letter(ts.InitialState()))
	start.states.set(q0)
	index[start.cut.Key()] = start

	res := &Result{SupportProcs: procs, NumCuts: 1, FirstConclusiveRank: -1}
	if mon.Final(q0) {
		res.FirstConclusiveRank = 0
	}

	queue := []*node{start}
	layerWidth := map[int]int{0: 1}
	for len(queue) > 0 {
		nd := queue[0]
		queue = queue[1:]
		for i, p := range procs {
			if nd.cut[i] >= len(ts.Traces[p].Events) {
				continue
			}
			next := nd.cut.Clone()
			next[i]++
			// The new cut is consistent iff the newly added event's causal
			// history (projected to procs) is contained in it.
			ev := ts.Traces[p].Events[next[i]-1]
			if !projLessEq(ev.VC, next, procs) {
				continue
			}
			res.NumEdges++
			key := next.Key()
			succ, seen := index[key]
			if !seen {
				succ = &node{cut: next, states: newStateset(mon.NumStates())}
				index[key] = succ
				queue = append(queue, succ)
				res.NumCuts++
				layerWidth[next.Sum()]++
			}
			// Advance every reachable automaton state over the successor's
			// global state.
			letter := letters.Letter(ts.StateAtCut(fullCut(next)))
			for st := 0; st < mon.NumStates(); st++ {
				if !nd.states.has(st) {
					continue
				}
				nq := mon.Step(st, letter)
				succ.states.set(nq)
				if mon.Final(nq) && (res.FirstConclusiveRank == -1 || next.Sum() < res.FirstConclusiveRank) {
					res.FirstConclusiveRank = next.Sum()
				}
			}
		}
	}
	for _, w := range layerWidth {
		if w > res.MaxWidth {
			res.MaxWidth = w
		}
	}
	final := vclock.New(k)
	for i, p := range procs {
		final[i] = len(ts.Traces[p].Events)
	}
	fin, ok := index[final.Key()]
	if !ok {
		return nil, fmt.Errorf("lattice: final cut %v unreachable — trace set inconsistent", final)
	}
	res.FinalStates, res.Verdicts = collectVerdicts(mon, fin.states)
	return res, nil
}

// projLessEq reports vc[p] <= cut[i] for every projected process p=procs[i].
func projLessEq(vc vclock.VC, cut vclock.VC, procs []int) bool {
	for i, p := range procs {
		if vc[p] > cut[i] {
			return false
		}
	}
	return true
}

// collectVerdicts lists the states of a stateset ascending and their
// distinct verdict labels in first-seen order.
func collectVerdicts(mon *automaton.Monitor, states stateset) ([]int, []automaton.Verdict) {
	var sts []int
	var verdicts []automaton.Verdict
	seenV := map[automaton.Verdict]bool{}
	for st := 0; st < mon.NumStates(); st++ {
		if states.has(st) {
			sts = append(sts, st)
			v := mon.VerdictOf(st)
			if !seenV[v] {
				seenV[v] = true
				verdicts = append(verdicts, v)
			}
		}
	}
	return sts, verdicts
}

// CountCuts returns the number of consistent cuts (lattice nodes) of the
// execution without evaluating any property.
func CountCuts(ts *dist.TraceSet) int {
	n := ts.N()
	seen := map[string]bool{}
	start := vclock.New(n)
	seen[start.Key()] = true
	queue := []vclock.VC{start}
	for len(queue) > 0 {
		cut := queue[0]
		queue = queue[1:]
		for i := 0; i < n; i++ {
			if cut[i] >= len(ts.Traces[i].Events) {
				continue
			}
			next := cut.Clone()
			next[i]++
			if !ts.Traces[i].Events[next[i]-1].VC.LessEq(next) {
				continue
			}
			if key := next.Key(); !seen[key] {
				seen[key] = true
				queue = append(queue, next)
			}
		}
	}
	return len(seen)
}

// EnumeratePathVerdicts walks every maximal lattice path explicitly, running
// the monitor along each, and returns the set of final verdicts plus the
// number of paths. It is exponential and intended only for cross-validating
// Evaluate on small executions in tests; it returns an error after maxPaths
// paths.
func EnumeratePathVerdicts(ts *dist.TraceSet, mon *automaton.Monitor, maxPaths int) (map[automaton.Verdict]bool, int, error) {
	letters, err := ts.Props.Restrict(mon.Props)
	if err != nil {
		return nil, 0, err
	}
	verdicts := map[automaton.Verdict]bool{}
	paths := 0
	n := ts.N()
	final := ts.FinalCut()

	var walk func(cut vclock.VC, q int) error
	walk = func(cut vclock.VC, q int) error {
		if cut.Equal(final) {
			paths++
			if paths > maxPaths {
				return fmt.Errorf("lattice: more than %d paths", maxPaths)
			}
			verdicts[mon.VerdictOf(q)] = true
			return nil
		}
		for i := 0; i < n; i++ {
			if cut[i] >= len(ts.Traces[i].Events) {
				continue
			}
			next := cut.Clone()
			next[i]++
			if !ts.Traces[i].Events[next[i]-1].VC.LessEq(next) {
				continue
			}
			letter := letters.Letter(ts.StateAtCut(next))
			if err := walk(next, mon.Step(q, letter)); err != nil {
				return err
			}
		}
		return nil
	}
	start := vclock.New(n)
	q0 := mon.Step(mon.Initial(), letters.Letter(ts.InitialState()))
	if err := walk(start, q0); err != nil {
		return nil, paths, err
	}
	return verdicts, paths, nil
}
