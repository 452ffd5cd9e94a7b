// Package automaton synthesizes LTL3 monitor automata (Definition 12 of the
// paper): the unique minimal deterministic Moore machine that maps every
// finite trace α over global states to the three-valued verdict
//
//	[α ⊨ ϕ] ∈ {⊤, ⊥, ?}
//
// of Bauer, Leucker & Schallhart. The pipeline is the standard LTL3
// construction, hand-rolled on top of the stdlib only:
//
//	NNF(ϕ), NNF(¬ϕ)
//	  → GPVW tableau → generalized Büchi automata           (tableau.go)
//	  → per-state language emptiness via Tarjan SCCs        (tableau.go)
//	  → subset construction to DFAs over 2^AP(ϕ)            (this file)
//	  → product Moore machine with verdict output           (this file)
//	  → Moore minimization                                  (this file)
//	  → symbolic conjunctive transitions via Quine–McCluskey (symbolic.go)
//	  → lift from 2^AP(ϕ) to the declared 2^Props           (symbolic.go)
//
// AP(ϕ) is the support: the propositions ϕ reads, in declaration order. Every
// stage up to the lift runs over its 2^|AP(ϕ)| letters, so ϕ sets the cost of
// synthesis and the declared alphabet only the size of the δ table.
//
// Letters of a Monitor are bitmasks over the declared atomic propositions:
// bit i is the truth value of Props[i] in the current global state.
package automaton

import (
	"fmt"
	"sort"

	"decentmon/internal/boolfn"
	"decentmon/internal/ltl"
)

// Verdict is a three-valued LTL3 evaluation result.
type Verdict int8

const (
	// Unknown is the inconclusive verdict '?': the finite trace has both
	// satisfying and violating infinite extensions.
	Unknown Verdict = iota
	// Top is '⊤': every infinite extension satisfies the property.
	Top
	// Bottom is '⊥': every infinite extension violates the property.
	Bottom
)

func (v Verdict) String() string {
	switch v {
	case Top:
		return "T"
	case Bottom:
		return "F"
	default:
		return "?"
	}
}

// Transition is a symbolic monitor transition: from state Src to state Dst
// under the conjunctive guard Guard (a cube over the monitor's proposition
// indexing). Guards with the same Src are pairwise exclusive across distinct
// Dst (the machine is deterministic); transitions between the same pair of
// states represent the disjuncts of the underlying predicate, split exactly
// as §4.3.3 of the paper prescribes.
type Transition struct {
	ID    int
	Src   int
	Dst   int
	Guard boolfn.Cube
}

// SelfLoop reports whether the transition does not change the monitor state.
func (t Transition) SelfLoop() bool { return t.Src == t.Dst }

// Monitor is an LTL3 monitor: a complete, deterministic, minimal Moore
// machine over the alphabet 2^Props. State 0 is the initial state.
type Monitor struct {
	// Formula is the monitored property.
	Formula *ltl.Formula
	// Props is the atomic-proposition indexing: letter bit i ↔ Props[i].
	Props []string

	verdicts    []Verdict
	delta       [][]int32 // delta[state][letter] -> state
	transitions []Transition
	outIdx      [][]int // per state: indices into transitions
}

// Build synthesizes the monitor for formula f over the given proposition
// ordering. Every proposition used by f must appear in props; props may
// declare extra (unused) propositions, which is convenient when several
// properties share one global-state encoding. Unused propositions cost only
// δ table width: the machine is synthesized over the propositions f reads
// and lifted to 2^len(props) letters at the end, and comes out identical to
// the one synthesized over the whole alphabet. Build returns an error if a
// proposition is declared twice, f reads an undeclared one, or more than
// boolfn.MaxVars are declared.
func Build(f *ltl.Formula, props []string) (*Monitor, error) {
	sup, err := supportOf(f, props)
	if err != nil {
		return nil, err
	}
	m := synthesize(f, sup)
	return lift(f, props, sup, m.verdicts, m.delta), nil
}

// support is the part of a declared alphabet a formula reads. Its
// propositions keep their declaration order and index the letters synthesis
// runs over: support letter bit j is the j-th declared proposition the
// formula reads.
type support struct {
	mask uint32         // bit i set iff the formula reads props[i]
	idx  map[string]int // read proposition -> its bit in a support letter
}

// supportOf validates the declared alphabet against f and returns f's
// support within it.
func supportOf(f *ltl.Formula, props []string) (support, error) {
	if len(props) > boolfn.MaxVars {
		return support{}, fmt.Errorf("automaton: %d propositions exceed the supported maximum %d", len(props), boolfn.MaxVars)
	}
	propIdx := make(map[string]int, len(props))
	for i, p := range props {
		if _, dup := propIdx[p]; dup {
			return support{}, fmt.Errorf("automaton: duplicate proposition %q", p)
		}
		propIdx[p] = i
	}
	read := f.Props()
	sup := support{idx: make(map[string]int, len(read))}
	for _, p := range read {
		i, ok := propIdx[p]
		if !ok {
			return support{}, fmt.Errorf("automaton: formula uses undeclared proposition %q", p)
		}
		sup.mask |= 1 << i
	}
	for i, p := range props {
		if sup.mask&(1<<i) != 0 {
			sup.idx[p] = len(sup.idx)
		}
	}
	return sup, nil
}

// letters is the size of the support's alphabet.
func (s support) letters() int { return 1 << len(s.idx) }

// synthesize runs the LTL3 pipeline over the support's letters and returns
// the minimal Moore machine for f, indexed by support letters.
func synthesize(f *ltl.Formula, sup support) *moore {
	n := sup.letters()
	pos := determinize(buildGBA(f.NNF(), sup.idx), n)
	neg := determinize(buildGBA(ltl.Not(f).NNF(), sup.idx), n)
	return minimize(product(pos, neg, n), n)
}

// MustBuild is Build that panics on error.
func MustBuild(f *ltl.Formula, props []string) *Monitor {
	m, err := Build(f, props)
	if err != nil {
		panic(err)
	}
	return m
}

// NumStates returns the number of monitor states.
func (m *Monitor) NumStates() int { return len(m.verdicts) }

// Initial returns the initial state (always 0).
func (m *Monitor) Initial() int { return 0 }

// VerdictOf returns the Moore output of a state.
func (m *Monitor) VerdictOf(state int) Verdict { return m.verdicts[state] }

// Final reports whether the state is conclusive (⊤ or ⊥); such states are
// absorbing.
func (m *Monitor) Final(state int) bool { return m.verdicts[state] != Unknown }

// Step returns the successor of state under the given letter.
func (m *Monitor) Step(state int, letter uint32) int {
	return int(m.delta[state][letter])
}

// Run evaluates the monitor over a finite word and returns the verdict of
// the reached state; Run(nil) is the verdict of the empty trace.
func (m *Monitor) Run(word []uint32) Verdict {
	q := 0
	for _, a := range word {
		q = int(m.delta[q][a])
	}
	return m.verdicts[q]
}

// Transitions returns all symbolic transitions (self-loops included).
func (m *Monitor) Transitions() []Transition { return m.transitions }

// Out returns the symbolic transitions leaving the given state (self-loops
// included).
func (m *Monitor) Out(state int) []Transition {
	idx := m.outIdx[state]
	out := make([]Transition, len(idx))
	for i, t := range idx {
		out[i] = m.transitions[t]
	}
	return out
}

// CountTransitions returns the total, outgoing (state-changing) and
// self-loop symbolic transition counts — the three columns of Table 5.1.
func (m *Monitor) CountTransitions() (total, outgoing, selfLoops int) {
	for _, t := range m.transitions {
		total++
		if t.SelfLoop() {
			selfLoops++
		} else {
			outgoing++
		}
	}
	return
}

// Letter builds a letter from the truth values of the monitor's
// propositions; assign maps proposition name to truth value (missing names
// default to false).
func (m *Monitor) Letter(assign map[string]bool) uint32 {
	var l uint32
	for i, p := range m.Props {
		if assign[p] {
			l |= 1 << i
		}
	}
	return l
}

// --- determinization ---

// dfa is a complete DFA over letters 0..nLetters-1; state 0 is initial.
type dfa struct {
	delta     [][]int32
	accepting []bool
}

// determinize subset-constructs the finite-word NFA derived from the GBA
// (accepting = states whose residual Büchi language is non-empty) into a
// complete DFA. DFA state acceptance = "some run of the GBA over the word so
// far ends in a state with non-empty language", i.e. the word still has an
// infinite extension accepted by the GBA.
func determinize(g *gba, nLetters int) *dfa {
	nonEmpty := g.nonEmptyStates()
	d := &dfa{}
	// index maps a subset's node list, packed by appendInt, to its DFA state.
	// The probe index[string(key)] does not allocate; the key string is
	// built only when a new subset is stored.
	index := map[string]int{}
	var order [][]int // DFA state -> its subset of GBA nodes
	var key []byte

	add := func(nodes []int) int {
		key = key[:0]
		for _, v := range nodes {
			key = appendInt(key, v)
		}
		if id, ok := index[string(key)]; ok {
			return id
		}
		id := len(order)
		index[string(key)] = id
		order = append(order, append([]int(nil), nodes...))
		acc := false
		for _, v := range nodes {
			if nonEmpty[v] {
				acc = true
				break
			}
		}
		d.accepting = append(d.accepting, acc)
		d.delta = append(d.delta, make([]int32, nLetters))
		return id
	}

	// The start subset is the virtual pre-initial state: no GBA node has been
	// entered yet. Its acceptance is "the formula is satisfiable", determined
	// by the initial nodes' emptiness. It is stored unindexed (no letter leads
	// back to it), and its successors are the initial nodes admitting the
	// letter.
	startNodes := append([]int(nil), g.initial...)
	startAcc := false
	for _, v := range startNodes {
		if nonEmpty[v] {
			startAcc = true
			break
		}
	}
	order = append(order, nil)
	d.accepting = append(d.accepting, startAcc)
	d.delta = append(d.delta, make([]int32, nLetters))

	// Per-letter successor buckets, computed output-sensitively: each
	// candidate target node contributes itself to exactly the letters its
	// label admits (enumerated as submasks of its free-bit mask), instead of
	// testing every (letter, node) pair. This matters when ϕ reads many
	// propositions (property F at n = 5 reads 10), where a node's label
	// constrains a few of them and leaves the rest free.
	buckets := make([][]int, nLetters)
	inCand := make([]bool, len(g.nodes))
	full := uint32(nLetters - 1)

	for qi := 0; qi < len(order); qi++ {
		var cands []int
		if qi == 0 {
			cands = startNodes
		} else {
			for _, v := range order[qi] {
				for _, r := range g.nodes[v].succ {
					if !inCand[r] {
						inCand[r] = true
						cands = append(cands, r)
					}
				}
			}
			sort.Ints(cands)
			for _, r := range cands {
				inCand[r] = false
			}
		}
		for a := range buckets {
			buckets[a] = buckets[a][:0]
		}
		for _, r := range cands {
			node := g.nodes[r]
			free := full &^ (node.pos | node.neg)
			sub := uint32(0)
			for {
				buckets[node.pos|sub] = append(buckets[node.pos|sub], r)
				if sub == free {
					break
				}
				sub = (sub - free) & free
			}
		}
		for a := 0; a < nLetters; a++ {
			d.delta[qi][a] = int32(add(buckets[a]))
		}
	}
	return d
}

// moore is an intermediate complete Moore machine prior to minimization.
type moore struct {
	verdicts []Verdict
	delta    [][]int32
}

// product combines the DFAs for ϕ and ¬ϕ into the verdict-labelled Moore
// machine: a word is ⊥ when the ϕ-DFA rejects (no extension can satisfy ϕ),
// ⊤ when the ¬ϕ-DFA rejects, and ? otherwise.
func product(pos, neg *dfa, nLetters int) *moore {
	type pair struct{ a, b int32 }
	index := map[pair]int{}
	var order []pair
	m := &moore{}
	add := func(p pair) int {
		if id, ok := index[p]; ok {
			return id
		}
		id := len(order)
		index[p] = id
		order = append(order, p)
		v := Unknown
		switch {
		case !pos.accepting[p.a]:
			v = Bottom
		case !neg.accepting[p.b]:
			v = Top
		}
		m.verdicts = append(m.verdicts, v)
		m.delta = append(m.delta, make([]int32, nLetters))
		return id
	}
	add(pair{0, 0})
	for qi := 0; qi < len(order); qi++ {
		p := order[qi]
		for a := 0; a < nLetters; a++ {
			np := pair{pos.delta[p.a][a], neg.delta[p.b][a]}
			m.delta[qi][a] = int32(add(np))
		}
	}
	return m
}

// minimize performs Moore-machine minimization by partition refinement,
// keeping state 0 initial. The result is the unique minimal machine for the
// verdict-output function.
func minimize(m *moore, nLetters int) *moore {
	n := len(m.verdicts)
	block := make([]int, n)
	// Initial partition by verdict.
	vb := map[Verdict]int{}
	nb := 0
	for i, v := range m.verdicts {
		b, ok := vb[v]
		if !ok {
			b = nb
			nb++
			vb[v] = b
		}
		block[i] = b
	}
	for {
		sig := make(map[string]int)
		newBlock := make([]int, n)
		next := 0
		buf := make([]byte, 0, 4*(nLetters+1))
		for i := 0; i < n; i++ {
			buf = buf[:0]
			buf = appendInt(buf, block[i])
			for a := 0; a < nLetters; a++ {
				buf = appendInt(buf, block[m.delta[i][a]])
			}
			b, ok := sig[string(buf)]
			if !ok {
				b = next
				next++
				sig[string(buf)] = b
			}
			newBlock[i] = b
		}
		same := next == nb
		block, nb = newBlock, next
		if same {
			break
		}
	}
	// Renumber blocks so that the initial state's block becomes 0, then by
	// first occurrence (deterministic).
	remap := make([]int, nb)
	for i := range remap {
		remap[i] = -1
	}
	nextID := 0
	remap[block[0]] = nextID
	nextID++
	for i := 0; i < n; i++ {
		if remap[block[i]] == -1 {
			remap[block[i]] = nextID
			nextID++
		}
	}
	out := &moore{
		verdicts: make([]Verdict, nb),
		delta:    make([][]int32, nb),
	}
	for i := 0; i < n; i++ {
		b := remap[block[i]]
		if out.delta[b] != nil {
			continue
		}
		out.verdicts[b] = m.verdicts[i]
		row := make([]int32, nLetters)
		for a := 0; a < nLetters; a++ {
			row[a] = int32(remap[block[m.delta[i][a]]])
		}
		out.delta[b] = row
	}
	return out
}

func appendInt(b []byte, v int) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
