package automaton

import (
	"fmt"
	"sort"
	"strings"

	"decentmon/internal/ltl"
)

// BuildProgression synthesizes a monitor by formula-progression
// determinization (Havelund–Roşu style rewriting, determinized over full
// letters): every state is a canonical DNF of temporal obligations, and
// reading a letter progresses each obligation. This reproduces the *shape*
// of the paper's monitor automata — its generator demonstrably worked this
// way: the machines of Figs. 2.3, 5.2 and 5.3 and the transition counts of
// Table 5.1 match this construction, not the minimal Moore machine (the
// thesis itself notes in §5.1 that its automata are deliberately not
// reduced).
//
// Verdict labels are taken from the minimal LTL3 monitor by running both
// machines in lockstep: states reaching the same progression formula have
// the same residual language, hence the same minimal-monitor state. The
// construction therefore inherits exact LTL3 verdicts and doubles as a
// cross-validation of both machines (any pairing conflict panics).
//
// Like Build, it runs over the propositions f reads, in declaration order,
// which are the returned Monitor's Props, and it refuses the same
// declarations Build refuses.
func BuildProgression(f *ltl.Formula, props []string) (*Monitor, error) {
	sup, err := supportOf(f, props)
	if err != nil {
		return nil, err
	}
	min := synthesize(f, sup)
	nLetters := sup.letters()

	pr := &progressor{propIdx: sup.idx, atoms: map[string]*ltl.Formula{}}
	start := pr.initial(f.NNF())

	type stateInfo struct {
		dnf  pdnf
		pair int // paired state of the minimal monitor
	}
	index := map[string]int{}
	var states []stateInfo

	add := func(d pdnf, pair int) int {
		key := d.key()
		if id, ok := index[key]; ok {
			if states[id].pair != pair {
				panic(fmt.Sprintf("automaton: progression state %q paired with minimal states %d and %d", key, states[id].pair, pair))
			}
			return id
		}
		id := len(states)
		index[key] = id
		states = append(states, stateInfo{dnf: d, pair: pair})
		return id
	}
	add(start, 0) // both machines start in state 0

	var delta [][]int32
	for qi := 0; qi < len(states); qi++ {
		row := make([]int32, nLetters)
		cur := states[qi]
		for a := 0; a < nLetters; a++ {
			next := pr.progressState(cur.dnf, uint32(a))
			row[a] = int32(add(next, int(min.delta[cur.pair][a])))
		}
		delta = append(delta, row)
	}

	verdicts := make([]Verdict, len(states))
	for i, st := range states {
		verdicts[i] = min.verdicts[st.pair]
	}
	return newMonitor(f, sup, verdicts, delta), nil
}

// pdnf is a canonical disjunction of obligation clauses; each clause is a
// sorted list of atom keys (conjunction). The empty pdnf is false; a pdnf
// containing an empty clause is true (canonicalization reduces it to
// exactly one empty clause).
type pdnf []pclause

type pclause []string

func (d pdnf) key() string {
	if d.isFalse() {
		return "⊥"
	}
	if d.isTrue() {
		return "⊤"
	}
	parts := make([]string, len(d))
	for i, c := range d {
		parts[i] = strings.Join(c, "&")
	}
	return strings.Join(parts, " | ")
}

func (d pdnf) isFalse() bool { return len(d) == 0 }
func (d pdnf) isTrue() bool  { return len(d) == 1 && len(d[0]) == 0 }

// progressor rewrites formulas over a letter and canonicalizes results.
type progressor struct {
	propIdx map[string]int
	atoms   map[string]*ltl.Formula // atom key -> obligation formula
}

func (p *progressor) atom(f *ltl.Formula) pdnf {
	key := f.String()
	p.atoms[key] = f
	return pdnf{pclause{key}}
}

var (
	dnfTrue  = pdnf{pclause{}}
	dnfFalse = pdnf{}
)

// initial wraps the whole formula as the single starting obligation.
func (p *progressor) initial(f *ltl.Formula) pdnf {
	switch f.Kind {
	case ltl.KTrue:
		return dnfTrue
	case ltl.KFalse:
		return dnfFalse
	}
	return p.atom(f)
}

// progressState progresses every obligation of every clause over the letter.
func (p *progressor) progressState(d pdnf, letter uint32) pdnf {
	out := dnfFalse
	for _, clause := range d {
		acc := dnfTrue
		for _, key := range clause {
			acc = dnfAnd(acc, p.progress(p.atoms[key], letter))
			if acc.isFalse() {
				break
			}
		}
		out = dnfOr(out, acc)
	}
	return out
}

// progress implements the standard LTL progression rules over one letter.
// The input must be in negation normal form.
func (p *progressor) progress(f *ltl.Formula, letter uint32) pdnf {
	switch f.Kind {
	case ltl.KTrue:
		return dnfTrue
	case ltl.KFalse:
		return dnfFalse
	case ltl.KProp:
		bit, ok := p.propIdx[f.Name]
		if !ok {
			panic(fmt.Sprintf("automaton: proposition %q not declared", f.Name))
		}
		if letter&(1<<bit) != 0 {
			return dnfTrue
		}
		return dnfFalse
	case ltl.KNot: // literal in NNF
		res := p.progress(f.L, letter)
		if res.isTrue() {
			return dnfFalse
		}
		return dnfTrue
	case ltl.KAnd:
		return dnfAnd(p.progress(f.L, letter), p.progress(f.R, letter))
	case ltl.KOr:
		return dnfOr(p.progress(f.L, letter), p.progress(f.R, letter))
	case ltl.KNext:
		return p.initial(f.L)
	case ltl.KUntil: // prog(ψ) ∨ (prog(ϕ) ∧ (ϕ U ψ))
		return dnfOr(p.progress(f.R, letter), dnfAnd(p.progress(f.L, letter), p.atom(f)))
	case ltl.KRelease: // prog(ψ) ∧ (prog(ϕ) ∨ (ϕ R ψ))
		return dnfAnd(p.progress(f.R, letter), dnfOr(p.progress(f.L, letter), p.atom(f)))
	case ltl.KEvent: // prog(ϕ) ∨ ◇ϕ
		return dnfOr(p.progress(f.L, letter), p.atom(f))
	case ltl.KAlways: // prog(ϕ) ∧ □ϕ
		return dnfAnd(p.progress(f.L, letter), p.atom(f))
	}
	panic("automaton: progression of unexpected formula " + f.String())
}

// dnfOr unions two DNFs and canonicalizes (dedupe + subsumption).
func dnfOr(a, b pdnf) pdnf {
	return canonical(append(append(pdnf{}, a...), b...))
}

// dnfAnd distributes conjunction over the clauses.
func dnfAnd(a, b pdnf) pdnf {
	var out pdnf
	for _, ca := range a {
		for _, cb := range b {
			merged := append(append(pclause{}, ca...), cb...)
			sort.Strings(merged)
			uniq := merged[:0]
			prev := ""
			for k, s := range merged {
				if k == 0 || s != prev {
					uniq = append(uniq, s)
				}
				prev = s
			}
			out = append(out, uniq)
		}
	}
	return canonical(out)
}

// canonical sorts clauses, removes duplicates and subsumed clauses (a
// clause with a subset of another's atoms subsumes it).
func canonical(d pdnf) pdnf {
	if len(d) == 0 {
		return dnfFalse
	}
	sort.Slice(d, func(i, j int) bool {
		if len(d[i]) != len(d[j]) {
			return len(d[i]) < len(d[j])
		}
		return strings.Join(d[i], "&") < strings.Join(d[j], "&")
	})
	var out pdnf
	for _, c := range d {
		subsumed := false
		for _, kept := range out {
			if clauseSubset(kept, c) {
				subsumed = true
				break
			}
		}
		if !subsumed {
			out = append(out, c)
		}
	}
	if len(out) > 0 && len(out[0]) == 0 {
		return dnfTrue
	}
	return out
}

// clauseSubset reports whether every atom of a appears in b (both sorted).
func clauseSubset(a, b pclause) bool {
	i := 0
	for _, x := range b {
		if i < len(a) && a[i] == x {
			i++
		}
	}
	return i == len(a)
}
