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
	// pivots are the (state, cut) pairs at which a transition into a
	// non-conclusive state fired strictly inside the box (the "pivot global
	// states" of §4.5.2); the monitor forks a global view at each.
	pivots []pivot
	// conclusive are the conclusive states stepped into, each once with the
	// first cut; the slice is the scratch's, valid until the next explore.
	conclusive []pivot
	// nodes is the number of consistent cuts visited (projected cuts under
	// slicing — the quantity maxBoxNodes bounds either way).
	nodes int
}

type pivot struct {
	q   int
	cut vclock.VC
}

// boxScratch is the box kernel's working memory, part of a monitor's scratch:
// only the monitor's run loop explores with it, and it passes to a later
// session's monitor when that one returns (monitor.go). The arenas keep the
// capacity of the widest frontier seen, so a steady-state exploration
// allocates only what its result holds. Of that result only the conclusive
// list aliases the scratch; every reported cut is a fresh lift.
type boxScratch struct {
	fr    [2]boxFrontier // the rank being expanded and the rank being built
	table []int32        // successor dedupe: open-addressed, node index+1, 0 = free
	concl stateset       // conclusive states absorbed out of the frontier
	hits  []pivot        // backing of boxResult.conclusive
}

// boxFrontier holds the nodes of one rank as parallel arenas: node i's
// projected cut (its k support coordinates) at cuts[i*k:(i+1)*k], the
// automaton states reachable there and the (state) pivots already reported
// at it at [i*words, (i+1)*words), and the letter at the cut (one per node:
// len(letters) is the width of the frontier).
type boxFrontier struct {
	cuts    []int
	states  []uint64
	pivoted []uint64
	letters []uint32
}

func (f *boxFrontier) reset() {
	f.cuts, f.states, f.pivoted, f.letters = f.cuts[:0], f.states[:0], f.pivoted[:0], f.letters[:0]
}

// push appends a node at the projected cut with no states; returns its index.
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

// successor returns the node of f at the projected cut, adding it (as a copy
// of cut) when it is new. The hash only picks where probing starts: a node is
// the successor iff its coordinates compare equal.
func (f *boxFrontier) successor(tab []int32, cut []int, words int) (idx int, fresh bool) {
	h := uint64(0)
	for _, v := range cut {
		h = (h + uint64(v) + 1) * 0x9E3779B97F4A7C15
	}
	k, mask := len(cut), len(tab)-1
probe:
	for slot := int(h>>32) & mask; ; slot = (slot + 1) & mask {
		if tab[slot] == 0 {
			tab[slot] = int32(len(f.letters) + 1)
			return f.push(cut, 0, words), true
		}
		idx = int(tab[slot]) - 1
		for a, v := range f.cuts[idx*k : (idx+1)*k] {
			if v != cut[a] {
				continue probe
			}
		}
		return idx, false
	}
}

// liftOf returns the full-width lift of the projected cut c (in support
// order) of the box above lo: lo joined with the clock of the last included
// event of each support process, hence with every included event's. It is the
// least consistent full cut ≥ lo projecting to c, so a reported cut respects
// the knowledge-GC need-floor and round-trips against full-width clocks.
func liftOf(know *knowledge, lo vclock.VC, support, c []int) vclock.VC {
	lift := lo.Clone()
	for a, p := range support {
		if c[a] > lo[p] {
			lift.Merge(know.event(p, c[a]).VC)
		}
	}
	return lift
}

// explore sweeps the consistent cuts D with lo ≤ D ≤ hi, projected onto the
// support processes, from the automaton states init at lo. The knowledge must
// cover every event in (lo, hi]; visiting more than maxNodes is an error.
//
// Slicing: only support processes own propositions the formula reads, so a
// non-support process's events never change the formula-relevant bits of the
// letter — stepping through them stutters the same letter, and for a ○-free
// (stutter-invariant) property LTL3 verdicts are invariant under stuttering.
// The sweep therefore walks only the *projected* region: a node is its k =
// |support| coordinates, cuts advance on support events alone, and a step is
// consistent iff the next event's vector clock is covered on those k
// components (a support event f of process j precedes e iff f.SN ≤ e.VC[j],
// and clock transitivity routes causality through projected-away processes,
// so the support components suffice). An arity-k property over an n-process
// broadcast explores a k-dimensional region instead of an n-dimensional one,
// which is what makes dense-broadcast workloads tractable.
//
// Exact = full support: when slicing is not verdict-exact the monitor passes
// every process as the support (automaton.Monitor.Support). The step test is
// then the consistency test, each lift is its cut, and the sweep is the
// Chapter-3 oracle's layered state-set DP restricted to the box.
//
// Lift cuts: a cut is lifted to full width (liftOf) only when it leaves the
// kernel, as a pivot or a conclusive cut; the frontier never holds more than
// the k coordinates.
//
// Antichain + rank synchrony: the sweep keeps one frontier per rank (rank =
// number of included support events), deduplicated by projected cut, in
// discovery order (which keeps reported cuts deterministic). Paths meeting at
// a projected cut union-merge and are expanded once. Conclusive states —
// absorbing by construction — are pulled out of the frontier into one set,
// reported once per box at the first cut that steps into them, and OR-ed back
// into the final states at the top. A (state, cut) pivot is reported once: a
// node is only stepped into while its rank is being built, so one bit per
// state on the node remembers it. Memory is two ranks of frontier, not the
// region.
func (sc *boxScratch) explore(mon *automaton.Monitor, know *knowledge, lt *letterTable, init stateset, lo, hi vclock.VC, maxNodes int, support []int) (boxResult, error) {
	n, k, words := know.n, len(support), len(init)
	var letter uint32
	for p := 0; p < n; p++ {
		if lo[p] > hi[p] {
			return boxResult{}, fmt.Errorf("core: box lower bound %v above upper %v", lo, hi)
		}
		if hi[p] > know.len(p) {
			return boxResult{}, fmt.Errorf("core: box upper bound %v not covered by knowledge (process %d has %d events)", hi, p, know.len(p))
		}
		letter |= lt.bitsOf(p, know.state(p, lo[p]))
	}
	res := boxResult{nodes: 1, conclusive: sc.hits[:0]}
	cur, next := &sc.fr[0], &sc.fr[1]
	cur.reset()
	for _, p := range support {
		cur.cuts = append(cur.cuts, lo[p])
	}
	cur.push(nil, letter, words) // the root: its coordinates, lo's, are appended above
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
	for _, p := range support {
		ranks += hi[p] - lo[p]
	}
	for r := 0; r < ranks; r++ {
		next.reset()
		tab := sc.tableFor(len(cur.letters) * k)
		for i := range cur.letters {
			cut := cur.cuts[i*k : (i+1)*k]
		step:
			for a, p := range support {
				if cut[a] >= hi[p] {
					continue
				}
				e := know.event(p, cut[a]+1)
				for b, j := range support {
					if b != a && e.VC[j] > cut[b] {
						continue step
					}
				}
				cut[a]++ // borrowed as the successor's projected cut
				si, fresh := next.successor(tab, cut, words)
				cut[a]--
				if fresh {
					next.letters[si] = lt.update(cur.letters[i], p, e.State)
					res.nodes++
					if res.nodes > maxNodes {
						return boxResult{}, fmt.Errorf("core: box exploration exceeded %d nodes between %v and %v", maxNodes, lo, hi)
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
							// An outgoing transition fired: a conclusive
							// step, or a pivot global state.
							if mon.Final(nq) {
								if !concl.has(nq) {
									concl.set(nq)
									res.conclusive = append(res.conclusive, pivot{q: nq, cut: liftOf(know, lo, support, next.cuts[si*k:(si+1)*k])})
								}
								continue
							}
							if !pivoted.has(nq) {
								pivoted.set(nq)
								res.pivots = append(res.pivots, pivot{q: nq, cut: liftOf(know, lo, support, next.cuts[si*k:(si+1)*k])})
							}
						}
						succStates.set(nq)
					}
				}
			}
		}
		cur, next = next, cur
	}
	sc.hits = res.conclusive
	// Rank `ranks` has room for one projected cut only: hi's.
	if len(cur.letters) == 0 {
		return boxResult{}, fmt.Errorf("core: box upper cut %v unreachable from %v", hi, lo)
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

func newStateset(n int) stateset { return make(stateset, statesetWords(n)) }

// statesetWords is the length of a stateset over n states.
func statesetWords(n int) int { return (n + 63) / 64 }

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

// list appends the members of the set to dst, ascending.
func (s stateset) list(dst []int) []int {
	for w, word := range s {
		for word != 0 {
			dst = append(dst, w*64+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return dst
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
