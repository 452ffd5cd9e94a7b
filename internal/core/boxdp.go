package core

import (
	"fmt"
	"math/bits"

	"decentmon/internal/automaton"
	"decentmon/internal/vclock"
)

// boxResult is the outcome of exploring the lattice region between two cuts.
type boxResult struct {
	// finalStates are the automaton states reachable at the upper cut.
	finalStates []int
	// pivots are the (state, cut) pairs at which an outgoing transition
	// fired strictly inside the box (the "pivot global states" of §4.5.2);
	// the monitor forks a global view at each.
	pivots []pivot
	// conclusive are the conclusive states hit anywhere in the box, with
	// the first cut each was discovered at.
	conclusive []pivot
	// nodes is the number of consistent cuts visited (projected cuts under
	// slicing — the quantity maxBoxNodes bounds either way).
	nodes int
}

type pivot struct {
	q   int
	cut vclock.VC
}

// boxScratch is the box kernel's working memory. Each Monitor owns one and
// only its run loop explores with it: no pool, no lock. The arenas keep the
// capacity of the widest frontier seen, so a steady-state exploration
// allocates only its result — which may not alias the scratch: reported cuts
// are clones.
type boxScratch struct {
	fr    [2]boxFrontier // the rank being expanded and the rank being built
	table []int32        // successor dedupe: open-addressed, node index+1, 0 = free
	concl stateset       // conclusive states absorbed out of the frontier
}

// boxFrontier holds the nodes of one rank as parallel arenas, node i at
// [i*width, (i+1)*width) of each: the full-width lift of its projected cut,
// the automaton states reachable there, the (state) pivots already reported
// at it, and the letter at the cut (one per node: len(letters) is the width
// of the frontier).
type boxFrontier struct {
	cuts    []int
	states  []uint64
	pivoted []uint64
	letters []uint32
}

func (f *boxFrontier) reset() {
	f.cuts, f.states, f.pivoted, f.letters = f.cuts[:0], f.states[:0], f.pivoted[:0], f.letters[:0]
}

// push appends a node at cut with no states and returns its index.
func (f *boxFrontier) push(cut []int, letter uint32, words int) int {
	f.cuts = append(f.cuts, cut...)
	for w := 0; w < words; w++ {
		f.states = append(f.states, 0)
		f.pivoted = append(f.pivoted, 0)
	}
	f.letters = append(f.letters, letter)
	return len(f.letters) - 1
}

// tableFor returns a cleared dedupe table, a power of two in size, for a rank
// with at most need successors. Sizing by the bound means the table never
// fills and never rehashes; clearing it costs no more than the need probes
// the rank is about to make.
func (sc *boxScratch) tableFor(need int) []int32 {
	lg := uint(3)
	for 1<<lg < 2*need {
		lg++
	}
	if cap(sc.table) < 1<<lg {
		sc.table = make([]int32, 1<<lg)
	}
	tab := sc.table[:1<<lg]
	clear(tab)
	return tab
}

// successor returns the node of f whose projected cut is cut's, adding it (as
// a copy of cut; the caller completes the lift) when it is new. The hash only
// picks where probing starts: a node is the successor iff its support
// coordinates compare equal.
func (f *boxFrontier) successor(tab []int32, cut []int, support []int, words int) (idx int, fresh bool) {
	h := uint64(0)
	for _, j := range support {
		h = (h + uint64(cut[j]) + 1) * 0x9E3779B97F4A7C15
	}
	width, mask := len(cut), len(tab)-1
probe:
	for slot := int(h>>32) & mask; ; slot = (slot + 1) & mask {
		if tab[slot] == 0 {
			tab[slot] = int32(len(f.letters) + 1)
			return f.push(cut, 0, words), true
		}
		idx = int(tab[slot]) - 1
		have := f.cuts[idx*width : (idx+1)*width]
		for _, j := range support {
			if have[j] != cut[j] {
				continue probe
			}
		}
		return idx, false
	}
}

// explore sweeps the consistent cuts D with lo ≤ D ≤ hi, projected onto the
// support processes, from the automaton states init at lo. The knowledge must
// cover every event in (lo, hi]; visiting more than maxNodes is an error.
//
// Slicing: only support processes own propositions the formula reads, so a
// non-support process's events never change the formula-relevant bits of the
// letter — stepping through them stutters the same letter, and for a ○-free
// (stutter-invariant) property LTL3 verdicts are invariant under stuttering.
// The sweep therefore walks only the *projected* region: cuts advance on
// support events alone, and a projected step is consistent iff the event's
// vector clock is covered on the support components (clock transitivity
// routes causality through projected-away processes, so checking support
// components suffices — knowledge.projectedStep). An arity-k property over an
// n-process broadcast explores a k-dimensional region instead of an
// n-dimensional one, which is what makes dense-broadcast workloads tractable.
//
// Exact = full support: when slicing is not verdict-exact the monitor passes
// every process as the support (automaton.Monitor.Support). projectedStep then
// *is* consistentStep, each lift *is* its cut, and the sweep is the Chapter-3
// oracle's layered state-set DP restricted to the box.
//
// Lift cuts: each projected node carries the full-width *lift* of its
// projected cut — lo joined with the vector clocks of every included support
// event. The lift is the least consistent full cut containing exactly those
// support events; it is determined by the projected cut alone (so merging
// paths agree on it), sits inside [lo, hi], and is ≥ lo pointwise, so pivot
// cuts handed back to the monitor respect the knowledge-GC need-floor and
// round-trip against full-width clocks.
//
// Antichain + rank synchrony: the sweep keeps one frontier per rank (rank =
// number of included support events), deduplicated by projected cut, in
// discovery order (which keeps reported cuts deterministic). Paths meeting at
// a projected cut union-merge and are expanded once; conclusive states —
// absorbing by construction — are pulled out of the frontier into one set and
// OR-ed back into the final states at the top. A (state, cut) pivot is
// reported once: a node is only stepped into while its rank is being built,
// so one bit per state on the node remembers it. Memory is two ranks of
// frontier, not the region.
func (sc *boxScratch) explore(mon *automaton.Monitor, know *knowledge, lt *letterTable, init stateset, lo, hi vclock.VC, maxNodes int, support []int) (*boxResult, error) {
	n, words := know.n, len(init)
	var letter uint32
	for p := 0; p < n; p++ {
		if lo[p] > hi[p] {
			return nil, fmt.Errorf("core: box lower bound %v above upper %v", lo, hi)
		}
		if hi[p] > know.len(p) {
			return nil, fmt.Errorf("core: box upper bound %v not covered by knowledge (process %d has %d events)", hi, p, know.len(p))
		}
		letter |= lt.bitsOf(p, know.state(p, lo[p]))
	}
	res := &boxResult{nodes: 1}
	cur, next := &sc.fr[0], &sc.fr[1]
	cur.reset()
	cur.push(lo, letter, words)
	if len(sc.concl) != words {
		sc.concl = make(stateset, words)
	}
	concl := sc.concl
	concl.clear()
	for w, word := range init {
		for word != 0 {
			q := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			if mon.Final(q) {
				// Absorbing: kept out of the frontier and never re-reported,
				// but present in the final states.
				concl.set(q)
			} else {
				stateset(cur.states).set(q)
			}
		}
	}

	ranks := 0
	for _, j := range support {
		ranks += hi[j] - lo[j]
	}
	for r := 0; r < ranks; r++ {
		next.reset()
		tab := sc.tableFor(len(cur.letters) * len(support))
		for i := range cur.letters {
			cut := vclock.VC(cur.cuts[i*n : (i+1)*n])
			for _, p := range support {
				if cut[p] >= hi[p] || !know.projectedStep(cut, p, support) {
					continue
				}
				cut[p]++ // borrowed as the successor's projected cut
				si, fresh := next.successor(tab, cut, support, words)
				cut[p]--
				lift := vclock.VC(next.cuts[si*n : (si+1)*n])
				if fresh {
					// Complete the lift by joining the event's clock. Support
					// components are already covered (projectedStep), so the
					// join only ever advances non-support components.
					e := know.event(p, lift[p])
					for j, v := range e.VC {
						if v > lift[j] {
							lift[j] = v
						}
					}
					next.letters[si] = lt.update(cur.letters[i], p, e.State)
					res.nodes++
					if res.nodes > maxNodes {
						return nil, fmt.Errorf("core: box exploration exceeded %d nodes between %v and %v", maxNodes, lo, hi)
					}
				}
				succLetter := next.letters[si]
				succStates := stateset(next.states[si*words : (si+1)*words])
				pivoted := stateset(next.pivoted[si*words : (si+1)*words])
				for w, word := range cur.states[i*words : (i+1)*words] {
					for word != 0 {
						st := w*64 + bits.TrailingZeros64(word)
						word &= word - 1
						nq := mon.Step(st, succLetter)
						if nq != st {
							// An outgoing transition fired: a pivot global state.
							if !pivoted.has(nq) {
								pivoted.set(nq)
								res.pivots = append(res.pivots, pivot{q: nq, cut: lift.Clone()})
							}
							if mon.Final(nq) {
								if !concl.has(nq) {
									concl.set(nq)
									res.conclusive = append(res.conclusive, pivot{q: nq, cut: lift.Clone()})
								}
								continue
							}
						}
						succStates.set(nq)
					}
				}
			}
		}
		cur, next = next, cur
	}
	// Rank `ranks` has room for one projected cut only: hi's.
	if len(cur.letters) == 0 {
		return nil, fmt.Errorf("core: box upper cut %v unreachable from %v", hi, lo)
	}
	final := 0
	for w := range concl {
		final += bits.OnesCount64(cur.states[w] | concl[w])
	}
	res.finalStates = make([]int, 0, final)
	for w := range concl {
		word := cur.states[w] | concl[w]
		for word != 0 {
			res.finalStates = append(res.finalStates, w*64+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return res, nil
}

// stateset is a small bitset over automaton states (mirrors the lattice
// package's private type; duplicated to keep internal packages decoupled).
type stateset []uint64

func newStateset(n int) stateset { return make(stateset, (n+63)/64) }

func (s stateset) set(i int)      { s[i/64] |= 1 << (i % 64) }
func (s stateset) has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

// clear zeroes the set in place (scratch reuse on the hot path).
func (s stateset) clear() {
	for i := range s {
		s[i] = 0
	}
}

// forEach calls fn for every member state, ascending, without allocating.
func (s stateset) forEach(fn func(q int)) {
	for w, word := range s {
		for word != 0 {
			fn(w*64 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// members lists the states contained in the set, ascending (cold paths and
// tests; hot paths iterate with forEach or inline word scans instead).
func (s stateset) members(n int) []int {
	var out []int
	s.forEach(func(q int) {
		if q < n {
			out = append(out, q)
		}
	})
	return out
}

// or unions t into s and reports whether s changed.
func (s stateset) or(t stateset) bool {
	changed := false
	for w := range s {
		nv := s[w] | t[w]
		if nv != s[w] {
			s[w] = nv
			changed = true
		}
	}
	return changed
}

// empty reports whether no state is set.
func (s stateset) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}
