// Package boolfn implements a small algebra of boolean cubes (conjunctions of
// literals) over up to 24 variables, together with a Quine–McCluskey style
// two-level minimizer.
//
// The automaton package uses it to convert the explicit letter sets labelling
// the edges of the synthesized LTL3 monitor DFA into a compact
// disjunctive-normal-form predicate. Each resulting cube becomes one
// *conjunctive* monitor transition, exactly as the paper requires: "monitor
// transitions labeled by disjunctive predicates are handled by splitting them
// into multiple transitions, one per each disjunct" (§4.1, footnote 1).
package boolfn

import (
	"fmt"
	"sort"
	"strings"
)

// MaxVars is the largest supported variable count, and so the most
// propositions a monitored formula may read (the propositions declared beside
// them are not bounded by it). Letters are uint32 bitmasks; Quine–McCluskey
// over 2^24 minterms is far beyond what the monitor synthesis ever needs (the
// paper's largest property reads 10 propositions), so the bound is generous.
const MaxVars = 24

// Cube is a conjunction of literals over variables 0..n-1. A variable i is
// constrained iff bit i of Care is set; its required value is then bit i of
// Val. Bits of Val outside Care are always zero. The zero Cube (Care == 0)
// is the constant true.
type Cube struct {
	Care uint32
	Val  uint32
}

// True is the unconstrained cube, i.e. the constant true.
var True = Cube{}

// Contains reports whether the letter (a total assignment encoded as a
// bitmask) satisfies the cube.
func (c Cube) Contains(letter uint32) bool {
	return letter&c.Care == c.Val
}

// Literals returns the cube's literals as (variable, positive) pairs in
// increasing variable order.
func (c Cube) Literals() []Literal {
	var ls []Literal
	for v := 0; v < MaxVars; v++ {
		bit := uint32(1) << v
		if c.Care&bit != 0 {
			ls = append(ls, Literal{Var: v, Positive: c.Val&bit != 0})
		}
	}
	return ls
}

// NumLiterals returns the number of constrained variables.
func (c Cube) NumLiterals() int {
	n := 0
	for m := c.Care; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// String renders the cube using v0, v1, ... variable names.
func (c Cube) String() string {
	return c.Format(nil)
}

// Format renders the cube with the supplied variable names (falling back to
// v<i> for missing entries). The constant true renders as "true".
func (c Cube) Format(names []string) string {
	ls := c.Literals()
	if len(ls) == 0 {
		return "true"
	}
	parts := make([]string, 0, len(ls))
	for _, l := range ls {
		name := fmt.Sprintf("v%d", l.Var)
		if l.Var < len(names) && names[l.Var] != "" {
			name = names[l.Var]
		}
		if l.Positive {
			parts = append(parts, name)
		} else {
			parts = append(parts, "!"+name)
		}
	}
	return strings.Join(parts, " && ")
}

// Literal is a single (possibly negated) variable occurrence.
type Literal struct {
	Var      int
	Positive bool
}

// DNF is a disjunction of cubes. The empty DNF is the constant false.
type DNF []Cube

// Contains reports whether the letter satisfies any cube of the DNF.
func (d DNF) Contains(letter uint32) bool {
	for _, c := range d {
		if c.Contains(letter) {
			return true
		}
	}
	return false
}

// Format renders the DNF with the supplied variable names.
func (d DNF) Format(names []string) string {
	if len(d) == 0 {
		return "false"
	}
	parts := make([]string, len(d))
	for i, c := range d {
		parts[i] = c.Format(names)
	}
	return strings.Join(parts, " || ")
}

// Minimize computes a small (irredundant, prime) DNF covering exactly the
// given onset of minterms over nvars variables, using the Quine–McCluskey
// prime-implicant procedure followed by essential-prime extraction and a
// greedy cover of the remainder.
//
// The onset may be in any order and may contain duplicates. When the onset
// is the full cube space the result is the single unconstrained cube (true);
// when it is empty the result is the empty DNF (false).
func Minimize(onset []uint32, nvars int) DNF {
	if nvars < 0 || nvars > MaxVars {
		panic(fmt.Sprintf("boolfn: nvars %d out of range", nvars))
	}
	if len(onset) == 0 {
		return nil
	}
	full := uint32(0)
	if nvars > 0 {
		full = uint32(1)<<nvars - 1
	}

	// Deduplicate the onset.
	inOn := make(map[uint32]bool, len(onset))
	for _, m := range onset {
		if m&^full != 0 {
			panic(fmt.Sprintf("boolfn: minterm %#x out of range for %d vars", m, nvars))
		}
		inOn[m] = true
	}
	minterms := make([]uint32, 0, len(inOn))
	for m := range inOn {
		minterms = append(minterms, m)
	}
	sort.Slice(minterms, func(i, j int) bool { return minterms[i] < minterms[j] })

	if len(minterms) == 1<<nvars {
		return DNF{True}
	}

	primes := primeImplicants(minterms, full)
	return cover(minterms, primes)
}

// primeImplicants runs the combining pass of Quine–McCluskey and returns all
// prime implicants of the onset.
func primeImplicants(minterms []uint32, full uint32) []Cube {
	type key struct{ care, val uint32 }
	level := make(map[key]bool, len(minterms)) // cube -> combined?
	for _, m := range minterms {
		level[key{full, m}] = false
	}
	var primes []Cube
	for len(level) > 0 {
		next := make(map[key]bool)
		keys := make([]key, 0, len(level))
		for k := range level {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].care != keys[j].care {
				return keys[i].care < keys[j].care
			}
			return keys[i].val < keys[j].val
		})
		// Group by care mask; only cubes with identical care masks can merge.
		byCare := map[uint32][]key{}
		for _, k := range keys {
			byCare[k.care] = append(byCare[k.care], k)
		}
		combined := make(map[key]bool, len(level))
		for _, group := range byCare {
			index := make(map[key]bool, len(group))
			for _, k := range group {
				index[k] = true
			}
			for _, k := range group {
				// Try flipping each cared bit; to avoid double work only
				// combine with the partner that has the bit set when ours is
				// clear.
				for care := k.care; care != 0; care &= care - 1 {
					bit := care & -care
					if k.val&bit != 0 {
						continue
					}
					partner := key{k.care, k.val | bit}
					if !index[partner] {
						continue
					}
					combined[k] = true
					combined[partner] = true
					next[key{k.care &^ bit, k.val}] = false
				}
			}
		}
		for _, k := range keys {
			if !combined[k] {
				primes = append(primes, Cube{Care: k.care, Val: k.val})
			}
		}
		level = next
	}
	return primes
}

// cover selects a small subset of primes covering all minterms: essential
// primes first, then greedily by residual coverage (ties broken toward fewer
// literals, then deterministic cube order).
func cover(minterms []uint32, primes []Cube) DNF {
	sort.Slice(primes, func(i, j int) bool {
		if primes[i].Care != primes[j].Care {
			return primes[i].Care < primes[j].Care
		}
		return primes[i].Val < primes[j].Val
	})
	covering := make([][]int, len(minterms)) // minterm index -> prime indices
	for mi, m := range minterms {
		for pi, p := range primes {
			if p.Contains(m) {
				covering[mi] = append(covering[mi], pi)
			}
		}
	}
	chosen := make([]bool, len(primes))
	covered := make([]bool, len(minterms))
	remaining := len(minterms)

	take := func(pi int) {
		if chosen[pi] {
			return
		}
		chosen[pi] = true
		for mi := range minterms {
			if !covered[mi] && primes[pi].Contains(minterms[mi]) {
				covered[mi] = true
				remaining--
			}
		}
	}

	// Essential primes: a minterm covered by exactly one prime forces it.
	for mi := range minterms {
		if len(covering[mi]) == 1 {
			take(covering[mi][0])
		}
	}
	// The essential primes are forced; cover the residual minterms with an
	// exact branch-and-bound search (bounded; falls back to greedy on very
	// large instances, which the monitor synthesis never produces).
	var residual []int
	for mi := range minterms {
		if !covered[mi] {
			residual = append(residual, mi)
		}
	}
	if len(residual) > 0 {
		free := make([]int, 0, len(primes))
		for pi := range primes {
			if !chosen[pi] {
				free = append(free, pi)
			}
		}
		sol := exactCover(minterms, primes, residual, free, covering)
		if sol == nil {
			sol = greedyCover(minterms, primes, residual, free)
		}
		for _, pi := range sol {
			take(pi)
		}
	}
	if remaining > 0 {
		panic("boolfn: cover failed; primes do not cover onset")
	}

	var out DNF
	for pi, p := range primes {
		if chosen[pi] {
			out = append(out, p)
		}
	}
	// Stable output order: fewer literals first, then lexicographic.
	sort.Slice(out, func(i, j int) bool {
		ni, nj := out[i].NumLiterals(), out[j].NumLiterals()
		if ni != nj {
			return ni < nj
		}
		if out[i].Care != out[j].Care {
			return out[i].Care < out[j].Care
		}
		return out[i].Val < out[j].Val
	})
	return out
}

// greedyCover covers the residual minterm indices with free primes, always
// taking the prime with the largest residual gain (ties toward fewer
// literals). Returns the chosen prime indices.
func greedyCover(minterms []uint32, primes []Cube, residual, free []int) []int {
	uncovered := make(map[int]bool, len(residual))
	for _, mi := range residual {
		uncovered[mi] = true
	}
	var sol []int
	used := make(map[int]bool)
	for len(uncovered) > 0 {
		best, bestGain, bestLits := -1, 0, 0
		for _, pi := range free {
			if used[pi] {
				continue
			}
			gain := 0
			for mi := range uncovered {
				if primes[pi].Contains(minterms[mi]) {
					gain++
				}
			}
			if gain > bestGain || (gain == bestGain && gain > 0 && primes[pi].NumLiterals() < bestLits) {
				best, bestGain, bestLits = pi, gain, primes[pi].NumLiterals()
			}
		}
		if best < 0 {
			return nil
		}
		used[best] = true
		sol = append(sol, best)
		for mi := range uncovered {
			if primes[best].Contains(minterms[mi]) {
				delete(uncovered, mi)
			}
		}
	}
	return sol
}

// exactCoverBudget bounds the branch-and-bound search. The monitor synthesis
// produces instances with at most a few dozen primes, well inside the budget.
const exactCoverBudget = 200000

// exactCover finds a minimum-cardinality subset of free primes covering all
// residual minterms, or nil if the node budget is exhausted.
func exactCover(minterms []uint32, primes []Cube, residual, free []int, covering [][]int) []int {
	greedy := greedyCover(minterms, primes, residual, free)
	if greedy == nil {
		return nil
	}
	best := append([]int(nil), greedy...)
	budget := exactCoverBudget
	var chosen []int

	freeSet := make(map[int]bool, len(free))
	for _, pi := range free {
		freeSet[pi] = true
	}

	var dfs func(uncovered map[int]bool)
	dfs = func(uncovered map[int]bool) {
		if budget <= 0 {
			return
		}
		budget--
		if len(uncovered) == 0 {
			if len(chosen) < len(best) {
				best = append(best[:0], chosen...)
			}
			return
		}
		if len(chosen)+1 >= len(best) {
			return // cannot beat the incumbent
		}
		// Branch on the uncovered minterm with the fewest covering primes.
		pick, pickOpts := -1, 0
		for mi := range uncovered {
			opts := 0
			for _, pi := range covering[mi] {
				if freeSet[pi] {
					opts++
				}
			}
			if pick < 0 || opts < pickOpts {
				pick, pickOpts = mi, opts
			}
		}
		for _, pi := range covering[pick] {
			if !freeSet[pi] {
				continue
			}
			var newly []int
			for mi := range uncovered {
				if primes[pi].Contains(minterms[mi]) {
					newly = append(newly, mi)
				}
			}
			for _, mi := range newly {
				delete(uncovered, mi)
			}
			chosen = append(chosen, pi)
			dfs(uncovered)
			chosen = chosen[:len(chosen)-1]
			for _, mi := range newly {
				uncovered[mi] = true
			}
		}
	}
	uncovered := make(map[int]bool, len(residual))
	for _, mi := range residual {
		uncovered[mi] = true
	}
	dfs(uncovered)
	return best
}
