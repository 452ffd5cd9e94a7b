package automaton

import (
	"sort"

	"decentmon/internal/boolfn"
	"decentmon/internal/ltl"
)

// buildSymbolic converts the explicit transition function into symbolic
// conjunctive transitions: for every (src, dst) pair, the set of letters
// moving src to dst is minimized into an irredundant DNF, and each cube
// becomes one Transition. This realizes the paper's requirement that monitor
// transitions carry *conjunctive* predicates only (disjunctive labels are
// split into one transition per disjunct, §4.1 footnote 1 and §4.3.3).
//
// It runs before the lift, so δ is indexed by sup's letters and the cubes
// range over the propositions the formula reads.
func (m *Monitor) buildSymbolic(sup support) {
	nLetters := sup.letters()
	m.transitions = m.transitions[:0]
	m.outIdx = make([][]int, len(m.verdicts))
	for src := range m.verdicts {
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
			dnf := boolfn.Minimize(byDst[dst], len(sup.idx))
			for _, cube := range dnf {
				t := Transition{
					ID:    len(m.transitions),
					Src:   src,
					Dst:   dst,
					Guard: cube,
				}
				m.transitions = append(m.transitions, t)
				m.outIdx[src] = append(m.outIdx[src], t.ID)
			}
		}
	}
}

// lift turns a machine synthesized over sup's letters (verdicts and δ rows
// indexed by support letters) into the Monitor over the declared alphabet:
//
//   - guards are minimized over the support, then each cube's Care and Val
//     are scattered onto the declared bit positions by deposit;
//   - each δ row is widened to 2^len(props) letters, δ[q][a] = sub[q][extract(a)].
//
// The support keeps declaration order and deposit is monotone, so counting
// support letters upward meets the letter classes in the order counting
// declared letters upward does. Every stage therefore numbers states and
// orders guards exactly as it would over the whole alphabet, and the result
// is the machine synthesis over 2^len(props) would produce, byte for byte.
// When f reads every declared proposition there is nothing to lift.
func lift(f *ltl.Formula, props []string, sup support, verdicts []Verdict, delta [][]int32) *Monitor {
	mon := &Monitor{
		Formula:  f,
		Props:    append([]string(nil), props...),
		verdicts: verdicts,
		delta:    delta,
	}
	mon.buildSymbolic(sup)
	if len(sup.idx) == len(props) {
		return mon
	}
	for i := range mon.transitions {
		g := &mon.transitions[i].Guard
		g.Care, g.Val = deposit(g.Care, sup.mask), deposit(g.Val, sup.mask)
	}
	nLetters := 1 << len(mon.Props)
	for q, row := range delta {
		wide := make([]int32, nLetters)
		for a := range wide {
			wide[a] = row[extract(uint32(a), sup.mask)]
		}
		delta[q] = wide
	}
	return mon
}

// extract gathers the bits of x at the positions set in mask into the low
// bits of the result, keeping their order (the pext instruction): it
// projects a declared letter onto the support.
func extract(x, mask uint32) uint32 {
	var out uint32
	for bit := uint32(1); mask != 0; bit <<= 1 {
		low := mask & -mask
		if x&low != 0 {
			out |= bit
		}
		mask &^= low
	}
	return out
}

// deposit scatters the low bits of x onto the positions set in mask, in
// order (the pdep instruction): it undoes extract on mask's positions.
func deposit(x, mask uint32) uint32 {
	var out uint32
	for bit := uint32(1); mask != 0; bit <<= 1 {
		low := mask & -mask
		if x&bit != 0 {
			out |= low
		}
		mask &^= low
	}
	return out
}
