// Package core implements the paper's primary contribution: the fully
// decentralized runtime-verification algorithm of Chapter 4. Every process
// Pi is composed with a monitor process Mi holding a replica of the LTL3
// monitor automaton. Each Mi maintains a set of global views — points in the
// computation lattice paired with automaton states — advances them over its
// local events, and exchanges *tokens* with other monitors to detect the
// global-state predicates labelling possibly-enabled outgoing transitions
// (adapting distributed computation slicing / conjunctive predicate
// detection, §4.1).
//
// Implementation notes relative to the thesis pseudocode (Algorithms 1–5)
// are collected in DESIGN.md; the load-bearing choices are marked
// "[choice]" in the code.
package core

import (
	"decentmon/internal/automaton"
	"decentmon/internal/dist"
)

// localGuard is the restriction of a transition guard to one process's
// propositions, expressed over the process's local state bits.
type localGuard struct {
	mask, val uint32 // satisfied iff state&mask == val
	nonEmpty  bool   // whether the process participates in the guard
}

func (g localGuard) sat(s dist.LocalState) bool {
	return uint32(s)&g.mask == g.val
}

// guardTable precomputes, for every symbolic transition of the automaton,
// its per-process conjuncts, read through letters: the automaton's
// propositions bound to the process space (dist.PropMap.Restrict), so that
// guard variable i is letters.Names[i]. It answers the question the
// algorithm keeps asking: "is process j forbidding this transition?" (its
// conjunct is non-empty and its local state fails it).
type guardTable struct {
	// perTrans[t.ID][proc] is the guard restricted to proc.
	perTrans [][]localGuard
}

func newGuardTable(mon *automaton.Monitor, letters *dist.Letters, n int) *guardTable {
	gt := &guardTable{}
	for _, tr := range mon.Transitions() {
		per := make([]localGuard, n)
		for _, lit := range tr.Guard.Literals() {
			owner := letters.Owner[lit.Var]
			bit := uint32(1) << letters.LocalBit[lit.Var]
			per[owner].mask |= bit
			if lit.Positive {
				per[owner].val |= bit
			}
			per[owner].nonEmpty = true
		}
		gt.perTrans = append(gt.perTrans, per)
	}
	return gt
}

// guard returns the per-process conjunct of transition id for proc.
func (gt *guardTable) guard(id, proc int) localGuard { return gt.perTrans[id][proc] }

// letterTable precomputes the map from per-process local states to
// monitor-letter bits (bit i ↔ letters.Names[i], the automaton's
// propositions bound by dist.PropMap.Restrict), so the hot paths can maintain
// letters *incrementally*: advancing a cut by one event of process p changes
// only p's bits, so
//
//	letter' = letter &^ mask[p] | bits[p][state]
//
// replaces the O(|props|) PropMap.Letter walk (and, in the box explorer, the
// per-node GlobalState materialization) with two table lookups. A process's
// table is indexed by the low local-state bits up to its highest read
// proposition; past lutBits of them the table would be oversized, so bitsOf
// falls back to walking that process's propositions.
type letterTable struct {
	n    int
	mask []uint32 // mask[p]: letter bits owned by process p
	bits [][]uint32
	// fallback, per process: (letter bit, local bit) pairs
	props [][2][]int
}

// lutBits caps the per-process lookup table at 2^lutBits entries.
const lutBits = 10

func newLetterTable(letters *dist.Letters, n int) *letterTable {
	lt := &letterTable{
		n:     n,
		mask:  make([]uint32, n),
		bits:  make([][]uint32, n),
		props: make([][2][]int, n),
	}
	width := make([]int, n) // per process: 1 + its highest local bit read
	for i, p := range letters.Owner {
		lb := letters.LocalBit[i]
		lt.mask[p] |= 1 << i
		lt.props[p][0] = append(lt.props[p][0], i)
		lt.props[p][1] = append(lt.props[p][1], lb)
		width[p] = max(width[p], lb+1)
	}
	for p := 0; p < n; p++ {
		if width[p] == 0 || width[p] > lutBits {
			continue
		}
		tab := make([]uint32, 1<<width[p])
		for s := range tab {
			var l uint32
			for k, lb := range lt.props[p][1] {
				if (s>>lb)&1 == 1 {
					l |= 1 << lt.props[p][0][k]
				}
			}
			tab[s] = l
		}
		lt.bits[p] = tab
	}
	return lt
}

// bitsOf returns the letter bits process p contributes in local state s.
func (lt *letterTable) bitsOf(p int, s dist.LocalState) uint32 {
	if tab := lt.bits[p]; tab != nil {
		return tab[int(s)&(len(tab)-1)]
	}
	var l uint32
	for k, lb := range lt.props[p][1] {
		if (uint32(s)>>lb)&1 == 1 {
			l |= 1 << lt.props[p][0][k]
		}
	}
	return l
}

// update advances a cached letter across one event of process p.
func (lt *letterTable) update(letter uint32, p int, s dist.LocalState) uint32 {
	return letter&^lt.mask[p] | lt.bitsOf(p, s)
}

// letter computes a letter from scratch (view creation; steps use update).
func (lt *letterTable) letter(g dist.GlobalState) uint32 {
	var l uint32
	for p := 0; p < lt.n && p < len(g); p++ {
		l |= lt.bitsOf(p, g[p])
	}
	return l
}
