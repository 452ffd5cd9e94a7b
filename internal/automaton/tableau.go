package automaton

import (
	"fmt"
	"sort"
	"strings"

	"decentmon/internal/ltl"
)

// This file implements the Gerth–Peled–Vardi–Wolper (GPVW) on-the-fly tableau
// construction translating an NNF LTL formula into a generalized Büchi
// automaton (GBA). The GBA is the first stage of the LTL3 monitor synthesis
// of Bauer, Leucker & Schallhart (ACM TOSEM 2011), which the paper adopts as
// its monitor-automaton generator (Definition 12).

// gba is a state-labeled generalized Büchi automaton. Each node carries a
// label constraint (positive and negative proposition sets); a run moves
// along edges, and the letter consumed when *entering* node q must satisfy
// q's label. Acceptance: a run is accepting iff for every acceptance set it
// visits that set infinitely often.
type gba struct {
	nodes []*gbaNode
	// accept[k] is the k-th acceptance set (one per Until subformula), as a
	// set of node ids.
	accept []map[int]bool
	// initial node ids (successors of the virtual init node).
	initial []int
}

type gbaNode struct {
	id       int
	succ     []int  // edges node -> succ (we store forward edges)
	pos, neg uint32 // label: required true / required false propositions
	// bookkeeping used during construction:
	old, next formulaSet
	incoming  map[int]bool
}

// formulaSet is a set of LTL formulas keyed by their canonical string.
type formulaSet map[string]*ltl.Formula

func (s formulaSet) add(f *ltl.Formula) { s[f.String()] = f }
func (s formulaSet) has(f *ltl.Formula) bool {
	_, ok := s[f.String()]
	return ok
}
func (s formulaSet) clone() formulaSet {
	t := make(formulaSet, len(s))
	for k, v := range s {
		t[k] = v
	}
	return t
}
func (s formulaSet) key() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\x00")
}

// initID is the id of the virtual initial node in the construction. Real
// nodes are numbered from 1 during construction and re-indexed afterwards.
const initID = 0

// buildGBA translates an NNF formula into a GBA over the given proposition
// indexing. It panics if the formula mentions a proposition missing from
// propIdx or is not in negation normal form.
func buildGBA(f *ltl.Formula, propIdx map[string]int) *gba {
	c := &tableauBuilder{
		propIdx: propIdx,
		byKey:   map[string]*tnode{},
	}
	start := &tnode{
		id:       c.fresh(),
		incoming: map[int]bool{initID: true},
		new:      formulaSet{},
		old:      formulaSet{},
		next:     formulaSet{},
	}
	start.new.add(f)
	c.expand(start)

	// Collect Until subformulas for the acceptance condition.
	untils := collectUntils(f)

	g := &gba{}
	// Re-index surviving nodes densely.
	ids := make([]int, 0, len(c.byKey))
	remap := map[int]int{}
	ordered := make([]*tnode, 0, len(c.byKey))
	for _, n := range c.byKey {
		ordered = append(ordered, n)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].id < ordered[j].id })
	for _, n := range ordered {
		remap[n.id] = len(ids)
		ids = append(ids, n.id)
		gn := &gbaNode{id: len(g.nodes), old: n.old, next: n.next, incoming: n.incoming}
		for _, lit := range litsOf(n.old) {
			bit, ok := propIdx[lit.name]
			if !ok {
				panic(fmt.Sprintf("automaton: proposition %q not declared", lit.name))
			}
			if lit.positive {
				gn.pos |= 1 << bit
			} else {
				gn.neg |= 1 << bit
			}
		}
		g.nodes = append(g.nodes, gn)
	}
	// Edges: q -> r iff q in incoming(r). The virtual init contributes the
	// initial node list.
	for ri, n := range ordered {
		for from := range n.incoming {
			if from == initID {
				g.initial = append(g.initial, ri)
				continue
			}
			if qi, ok := remap[from]; ok {
				g.nodes[qi].succ = append(g.nodes[qi].succ, ri)
			}
		}
	}
	sort.Ints(g.initial)
	for _, n := range g.nodes {
		sort.Ints(n.succ)
	}
	// Acceptance sets, one per Until subformula u = g U h:
	// F_u = { q : h ∈ old(q) or u ∉ old(q) }.
	for _, u := range untils {
		set := map[int]bool{}
		for qi, n := range g.nodes {
			if n.old.has(u.R) || !n.old.has(u) {
				set[qi] = true
			}
		}
		g.accept = append(g.accept, set)
	}
	return g
}

type tnode struct {
	id        int
	incoming  map[int]bool
	new       formulaSet
	old, next formulaSet
}

type tableauBuilder struct {
	propIdx map[string]int
	nextID  int
	byKey   map[string]*tnode // key(old)+"|"+key(next) -> node
}

func (c *tableauBuilder) fresh() int {
	c.nextID++
	return c.nextID
}

// expand is the recursive GPVW node-expansion procedure.
func (c *tableauBuilder) expand(n *tnode) {
	if len(n.new) == 0 {
		key := n.old.key() + "\x01" + n.next.key()
		if existing, ok := c.byKey[key]; ok {
			for from := range n.incoming {
				existing.incoming[from] = true
			}
			return
		}
		c.byKey[key] = n
		succ := &tnode{
			id:       c.fresh(),
			incoming: map[int]bool{n.id: true},
			new:      n.next.clone(),
			old:      formulaSet{},
			next:     formulaSet{},
		}
		c.expand(succ)
		return
	}
	// Pick any formula from New (map iteration order is fine: the node-merge
	// key makes the result order independent).
	var f *ltl.Formula
	var fk string
	for k, v := range n.new {
		fk, f = k, v
		break
	}
	delete(n.new, fk)

	switch f.Kind {
	case ltl.KFalse:
		return // contradiction: drop this node
	case ltl.KTrue:
		if !n.old.has(f) {
			n.old.add(f)
		}
		c.expand(n)
	case ltl.KProp, ltl.KNot:
		// literal; KNot guaranteed to wrap a KProp in NNF
		negated := ltl.Not(f)
		if n.old.has(negated) {
			return // contradiction
		}
		n.old.add(f)
		c.expand(n)
	case ltl.KAnd:
		for _, g := range []*ltl.Formula{f.L, f.R} {
			if !n.old.has(g) {
				n.new.add(g)
			}
		}
		n.old.add(f)
		c.expand(n)
	case ltl.KNext:
		n.old.add(f)
		n.next.add(f.L)
		c.expand(n)
	case ltl.KOr:
		n1 := c.split(n, f)
		n2 := c.split(n, f)
		if !n1.old.has(f.L) {
			n1.new.add(f.L)
		}
		if !n2.old.has(f.R) {
			n2.new.add(f.R)
		}
		c.expand(n1)
		c.expand(n2)
	case ltl.KUntil: // f = L U R  ≡  R ∨ (L ∧ X f)
		n1 := c.split(n, f)
		n2 := c.split(n, f)
		if !n1.old.has(f.L) {
			n1.new.add(f.L)
		}
		n1.next.add(f)
		if !n2.old.has(f.R) {
			n2.new.add(f.R)
		}
		c.expand(n1)
		c.expand(n2)
	case ltl.KRelease: // f = L R R' ≡ R' ∧ (L ∨ X f)
		n1 := c.split(n, f)
		n2 := c.split(n, f)
		for _, g := range []*ltl.Formula{f.L, f.R} {
			if !n1.old.has(g) {
				n1.new.add(g)
			}
		}
		if !n2.old.has(f.R) {
			n2.new.add(f.R)
		}
		n2.next.add(f)
		c.expand(n1)
		c.expand(n2)
	default:
		panic("automaton: formula not in NNF: " + f.String())
	}
}

// split clones node n for a disjunctive expansion of f, recording f in Old.
// Following GPVW, the copy receives a fresh name (id) but inherits the
// incoming set; the original node's identity is never stored, so successor
// edges always reference uniquely-named stored nodes.
func (c *tableauBuilder) split(n *tnode, f *ltl.Formula) *tnode {
	inc := make(map[int]bool, len(n.incoming))
	for k := range n.incoming {
		inc[k] = true
	}
	m := &tnode{
		id:       c.fresh(),
		incoming: inc,
		new:      n.new.clone(),
		old:      n.old.clone(),
		next:     n.next.clone(),
	}
	m.old.add(f)
	return m
}

type literal struct {
	name     string
	positive bool
}

func litsOf(old formulaSet) []literal {
	var out []literal
	for _, f := range old {
		switch f.Kind {
		case ltl.KProp:
			out = append(out, literal{f.Name, true})
		case ltl.KNot:
			out = append(out, literal{f.L.Name, false})
		}
	}
	return out
}

// collectUntils returns the distinct Until subformulas of f (by canonical
// string), in deterministic order.
func collectUntils(f *ltl.Formula) []*ltl.Formula {
	seen := map[string]*ltl.Formula{}
	var walk func(*ltl.Formula)
	walk = func(g *ltl.Formula) {
		if g == nil {
			return
		}
		if g.Kind == ltl.KUntil {
			seen[g.String()] = g
		}
		walk(g.L)
		walk(g.R)
	}
	walk(f)
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*ltl.Formula, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out
}

// nonEmptyStates computes, for every node of g, whether its residual Büchi
// language is non-empty: whether some infinite run from the node visits every
// acceptance set infinitely often. It returns a bitset indexed by node id.
//
// Method: Tarjan SCC decomposition; an SCC is *fair* iff it is non-trivial
// (contains an edge) and intersects every acceptance set; a node is non-empty
// iff it can reach a fair SCC.
func (g *gba) nonEmptyStates() []bool {
	n := len(g.nodes)
	sccID := make([]int, n)
	for i := range sccID {
		sccID[i] = -1
	}
	var (
		index, sccCount int
		idx             = make([]int, n)
		low             = make([]int, n)
		onStack         = make([]bool, n)
		stack           []int
	)
	for i := range idx {
		idx[i] = -1
	}
	// Iterative Tarjan to avoid deep recursion on large automata.
	type frame struct{ v, ei int }
	for root := 0; root < n; root++ {
		if idx[root] != -1 {
			continue
		}
		var callStack []frame
		callStack = append(callStack, frame{root, 0})
		idx[root], low[root] = index, index
		index++
		stack = append(stack, root)
		onStack[root] = true
		for len(callStack) > 0 {
			fr := &callStack[len(callStack)-1]
			v := fr.v
			if fr.ei < len(g.nodes[v].succ) {
				w := g.nodes[v].succ[fr.ei]
				fr.ei++
				if idx[w] == -1 {
					idx[w], low[w] = index, index
					index++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{w, 0})
				} else if onStack[w] && idx[w] < low[v] {
					low[v] = idx[w]
				}
				continue
			}
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := callStack[len(callStack)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == idx[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					sccID[w] = sccCount
					if w == v {
						break
					}
				}
				sccCount++
			}
		}
	}

	// Determine fair SCCs.
	nontrivial := make([]bool, sccCount)
	for v, node := range g.nodes {
		for _, w := range node.succ {
			if sccID[v] == sccID[w] {
				nontrivial[sccID[v]] = true
			}
		}
	}
	fair := make([]bool, sccCount)
	for s := 0; s < sccCount; s++ {
		if !nontrivial[s] {
			continue
		}
		ok := true
		for _, acc := range g.accept {
			hit := false
			for v := range acc {
				if sccID[v] == s {
					hit = true
					break
				}
			}
			if !hit {
				ok = false
				break
			}
		}
		fair[s] = ok
	}
	// Backward reachability: nonEmpty(v) iff v reaches a fair SCC. Iterate to
	// fixpoint over the condensation (simple worklist on nodes; graph is
	// small).
	nonEmpty := make([]bool, n)
	for v := range g.nodes {
		if fair[sccID[v]] {
			nonEmpty[v] = true
		}
	}
	changed := true
	for changed {
		changed = false
		for v := n - 1; v >= 0; v-- {
			if nonEmpty[v] {
				continue
			}
			for _, w := range g.nodes[v].succ {
				if nonEmpty[w] {
					nonEmpty[v] = true
					changed = true
					break
				}
			}
		}
	}
	return nonEmpty
}
