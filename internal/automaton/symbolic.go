package automaton

import (
	"sort"

	"decentmon/internal/boolfn"
	"decentmon/internal/ltl"
)

// newMonitor wraps a machine synthesized over sup's letters as the Monitor
// for f and derives its symbolic transitions.
func newMonitor(f *ltl.Formula, sup support, verdicts []Verdict, delta [][]int32) *Monitor {
	m := &Monitor{Formula: f, Props: sup.names, verdicts: verdicts, delta: delta}
	m.buildSymbolic()
	m.settle()
	return m
}

// settle marks the settled states: the '?' states from which no conclusive
// state is reachable. Backward reachability over Out: every '?' state starts
// settled, and one with a transition into an unsettled state (a conclusive
// one, or one that reaches one) is not, until a pass changes nothing.
func (m *Monitor) settle() {
	m.settled = make([]bool, len(m.verdicts))
	for q, v := range m.verdicts {
		m.settled[q] = v == Unknown
	}
	for changed := true; changed; {
		changed = false
		for _, t := range m.transitions {
			if m.settled[t.Src] && !m.settled[t.Dst] {
				m.settled[t.Src], changed = false, true
			}
		}
	}
}

// buildSymbolic converts the explicit transition function into symbolic
// conjunctive transitions: for every (src, dst) pair, the set of letters
// moving src to dst is minimized into an irredundant DNF, and each cube
// becomes one Transition. This realizes the paper's requirement that monitor
// transitions carry *conjunctive* predicates only (disjunctive labels are
// split into one transition per disjunct, §4.1 footnote 1 and §4.3.3).
func (m *Monitor) buildSymbolic() {
	nLetters := 1 << len(m.Props)
	m.transitions = m.transitions[:0]
	m.outLo = make([]int, len(m.verdicts)+1)
	for src := range m.verdicts {
		m.outLo[src] = len(m.transitions)
		// Group letters by destination.
		byDst := map[int][]uint32{}
		var dsts []int
		for a := 0; a < nLetters; a++ {
			d := int(m.delta[src][a])
			if _, ok := byDst[d]; !ok {
				dsts = append(dsts, d)
			}
			byDst[d] = append(byDst[d], uint32(a))
		}
		sort.Ints(dsts)
		for _, dst := range dsts {
			dnf := boolfn.Minimize(byDst[dst], len(m.Props))
			for _, cube := range dnf {
				t := Transition{
					ID:    len(m.transitions),
					Src:   src,
					Dst:   dst,
					Guard: cube,
				}
				m.transitions = append(m.transitions, t)
			}
		}
	}
	m.outLo[len(m.verdicts)] = len(m.transitions)
}
