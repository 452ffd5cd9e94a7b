package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"testing"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/lattice"
	"decentmon/internal/ltl"
	"decentmon/internal/vclock"
)

// Property tests for the box kernel: at full support (the exact DP) it is
// checked node-for-node against a brute-force enumeration of the region and,
// over whole executions, against the lattice oracles; with a proper support
// slice it must agree on verdicts while visiting exactly the projected
// region, with every reported cut round-tripping through its support
// projection; and its successor dedupe must survive a table in which nearly
// every insert collides.

// exploreBox runs the kernel on a fresh scratch. A nil support stands for
// every process: the exact full-width DP.
func exploreBox(mon *automaton.Monitor, know *knowledge, lt *letterTable, init stateset, lo, hi vclock.VC, maxNodes int, support []int) (*boxResult, error) {
	if support == nil {
		support = allProcs(know.n)
	}
	res, err := new(boxScratch).explore(mon, know, lt, init, lo, hi, maxNodes, support)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

func allProcs(n int) []int {
	all := make([]int, n)
	for p := range all {
		all[p] = p
	}
	return all
}

// boxFixture assembles the explorer's inputs from a generated trace set.
type boxFixture struct {
	mon  *automaton.Monitor
	know *knowledge
	lt   *letterTable
	init stateset
	n    int
}

func newBoxFixture(t *testing.T, ts *dist.TraceSet, formula string) *boxFixture {
	t.Helper()
	mon, err := automaton.Build(ltl.MustParse(formula), ts.Props.Names)
	if err != nil {
		t.Fatal(err)
	}
	know := newKnowledge(ts.N(), ts.InitialState())
	for _, tr := range ts.Traces {
		for _, e := range tr.Events {
			if err := know.append(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	lt := mustLetters(t, mon, ts.Props, ts.N())
	init := newStateset(mon.NumStates())
	init.set(mon.Step(mon.Initial(), lt.letter(ts.InitialState())))
	return &boxFixture{mon: mon, know: know, lt: lt, init: init, n: ts.N()}
}

// frontier returns the knowledge's full frontier cut.
func (f *boxFixture) frontier() vclock.VC {
	hi := vclock.New(f.n)
	for p := 0; p < f.n; p++ {
		hi[p] = f.know.len(p)
	}
	return hi
}

// consistentCut reports whether every event included in the cut has its
// vector clock covered by the cut (the global definition, checked directly
// against the stamped clocks rather than via step-wise reachability).
func (f *boxFixture) consistentCut(c vclock.VC) bool {
	for p := 0; p < f.n; p++ {
		if c[p] == 0 {
			continue
		}
		for j, v := range f.know.event(p, c[p]).VC {
			if v > c[j] {
				return false
			}
		}
	}
	return true
}

// enumerateConsistent lists every consistent cut of [lo, hi] in rank order
// (rank = number of included events above lo), via odometer enumeration and
// the direct clock-coverage check — no BFS, no incremental anything.
func (f *boxFixture) enumerateConsistent(lo, hi vclock.VC) []vclock.VC {
	var out []vclock.VC
	c := lo.Clone()
	for {
		if f.consistentCut(c) {
			out = append(out, c.Clone())
		}
		p := 0
		for p < f.n {
			if c[p] < hi[p] {
				c[p]++
				break
			}
			c[p] = lo[p]
			p++
		}
		if p == f.n {
			break
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].Sum(), out[j].Sum()
		if ri != rj {
			return ri < rj
		}
		return out[i].Key() < out[j].Key()
	})
	return out
}

// bruteResult is the order-free digest a brute-force reference DP produces.
type bruteResult struct {
	nodes       int
	finalStates []int
	pivotKeys   map[string]bool // "q|cutkey", q not conclusive
	conclStates map[int]bool
}

// bruteBox recomputes the exact DP by enumerating every consistent cut of
// the box and running the layered recurrence in rank order, with each cut's
// letter rebuilt from scratch (no incremental letter maintenance, no queue):
// the most literal reading of the Chapter-3 DP, as an independent reference.
func (f *boxFixture) bruteBox(lo, hi vclock.VC) *bruteResult {
	cuts := f.enumerateConsistent(lo, hi)
	states := map[string]stateset{string(lo.AppendKey(nil)): append(stateset(nil), f.init...)}
	res := &bruteResult{nodes: len(cuts), pivotKeys: map[string]bool{}, conclStates: map[int]bool{}}
	seedFinal := map[int]bool{}
	f.init.forEach(func(q int) {
		if f.mon.Final(q) {
			seedFinal[q] = true
		}
	})
	for _, c := range cuts {
		if c.Equal(lo) {
			continue
		}
		letter := f.lt.letter(f.know.stateAt(c))
		cur := newStateset(f.mon.NumStates())
		for p := 0; p < f.n; p++ {
			if c[p] == lo[p] {
				continue
			}
			pred := c.Clone()
			pred[p]--
			ps, ok := states[string(pred.AppendKey(nil))]
			if !ok {
				continue // inconsistent predecessor: not a box node
			}
			ps.forEach(func(st int) {
				nq := f.mon.Step(st, letter)
				cur.set(nq)
				if nq != st {
					if !f.mon.Final(nq) {
						res.pivotKeys[strconv.Itoa(nq)+"|"+c.Key()] = true
					} else if !seedFinal[nq] {
						res.conclStates[nq] = true
					}
				}
			})
		}
		states[string(c.AppendKey(nil))] = cur
	}
	states[string(hi.AppendKey(nil))].forEach(func(st int) {
		res.finalStates = append(res.finalStates, st)
	})
	return res
}

// boxCases yields the boxes a fixture is probed with: the whole execution,
// and a mid-execution box rooted at an event's own clock (events' clocks are
// consistent cuts by construction).
func (f *boxFixture) boxCases(ts *dist.TraceSet) [][2]vclock.VC {
	hi := f.frontier()
	cases := [][2]vclock.VC{{vclock.New(f.n), hi}}
	ev := ts.Traces[0].Events
	if len(ev) > 1 {
		cases = append(cases, [2]vclock.VC{ev[len(ev)/2].VC.Clone(), hi})
	}
	return cases
}

func sortedInts(in []int) []int {
	out := append([]int(nil), in...)
	sort.Ints(out)
	return out
}

func pivotKeySet(ps []pivot) map[string]bool {
	out := make(map[string]bool, len(ps))
	for _, pv := range ps {
		out[strconv.Itoa(pv.q)+"|"+pv.cut.Key()] = true
	}
	return out
}

func generateBoxTraces(n int, topo dist.Topology, seed int64) *dist.TraceSet {
	return dist.Generate(dist.GenConfig{
		N: n, InternalPerProc: 2, CommMu: 3, CommSigma: 1,
		Topology: topo, Seed: seed,
		TrueProbs: map[string]float64{"p": 0.6, "q": 0.5},
	})
}

// TestBoxExactMatchesBruteForce pins the exact DP node-for-node against the
// brute-force enumeration: same node count (every consistent cut visited
// exactly once), same final states, same pivot (state, cut) set over the
// non-conclusive states (a conclusive step is reported once, as a conclusive
// hit), same conclusive state set.
func TestBoxExactMatchesBruteForce(t *testing.T) {
	topos := map[string]dist.Topology{
		"uniform": dist.TopoUniform, "ring": dist.TopoRing, "broadcast": dist.TopoBroadcast,
	}
	for name, topo := range topos {
		for n := 2; n <= 4; n++ {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/n%d/s%d", name, n, seed), func(t *testing.T) {
					ts := generateBoxTraces(n, topo, seed)
					f := newBoxFixture(t, ts, "F (P0.p && P1.q)")
					for _, box := range f.boxCases(ts) {
						lo, hi := box[0], box[1]
						got, err := exploreBox(f.mon, f.know, f.lt, f.init, lo, hi, 1<<21, nil)
						if err != nil {
							t.Fatalf("exact box %v..%v: %v", lo, hi, err)
						}
						want := f.bruteBox(lo, hi)
						if got.nodes != want.nodes {
							t.Errorf("box %v..%v: exact visited %d nodes, brute force %d consistent cuts", lo, hi, got.nodes, want.nodes)
						}
						if gf, wf := sortedInts(got.finalStates), sortedInts(want.finalStates); fmt.Sprint(gf) != fmt.Sprint(wf) {
							t.Errorf("box %v..%v: final states %v, want %v", lo, hi, gf, wf)
						}
						gp := pivotKeySet(got.pivots)
						if len(gp) != len(want.pivotKeys) {
							t.Errorf("box %v..%v: %d pivots, want %d", lo, hi, len(gp), len(want.pivotKeys))
						}
						for k := range gp {
							if !want.pivotKeys[k] {
								t.Errorf("box %v..%v: spurious pivot %s", lo, hi, k)
							}
						}
						gc := map[int]bool{}
						for _, pv := range got.conclusive {
							gc[pv.q] = true
						}
						if fmt.Sprint(gc) != fmt.Sprint(want.conclStates) {
							t.Errorf("box %v..%v: conclusive states %v, want %v", lo, hi, gc, want.conclStates)
						}
					}
				})
			}
		}
	}
}

// TestBoxKernelMatchesOracles is the exact-vs-sliced differential against
// implementations that share no code with the kernel: over a whole execution
// (lo = the initial cut, hi = the frontier) the verdicts of the kernel's
// conclusive hits and final states must equal the Chapter-3 lattice oracle's
// at full support, and the sliced oracle's on the formula's support slice.
func TestBoxKernelMatchesOracles(t *testing.T) {
	topos := map[string]dist.Topology{
		"uniform": dist.TopoUniform, "ring": dist.TopoRing, "broadcast": dist.TopoBroadcast,
	}
	for name, topo := range topos {
		for n := 2; n <= 4; n++ {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/n%d/s%d", name, n, seed), func(t *testing.T) {
					ts := generateBoxTraces(n, topo, seed)
					f := newBoxFixture(t, ts, "F (P0.p && P1.q)")
					// Without a formula the oracle cannot know the property is
					// stutter-invariant, so it walks the full lattice.
					unsliced := *f.mon
					unsliced.Formula = nil
					exact, err := lattice.Evaluate(ts, &unsliced)
					if err != nil {
						t.Fatal(err)
					}
					if len(exact.SupportProcs) != n {
						t.Fatalf("the full-lattice reference spanned %v", exact.SupportProcs)
					}
					sliced, err := lattice.EvaluateSliced(ts, f.mon)
					if err != nil {
						t.Fatal(err)
					}
					for _, c := range []struct {
						what    string
						support []int
						want    map[automaton.Verdict]bool
					}{
						{"full support vs lattice.Evaluate", allProcs(n), exact.VerdictSet()},
						{"support slice vs lattice.EvaluateSliced", []int{0, 1}, sliced.VerdictSet()},
					} {
						box, err := exploreBox(f.mon, f.know, f.lt, f.init, vclock.New(n), f.frontier(), 1<<21, c.support)
						if err != nil {
							t.Fatalf("%s: %v", c.what, err)
						}
						got := map[automaton.Verdict]bool{}
						for _, q := range append(conclStates(box), box.finalStates...) {
							got[f.mon.VerdictOf(q)] = true
						}
						if setString(got) != setString(c.want) {
							t.Errorf("%s: kernel verdicts %s, oracle %s", c.what, setString(got), setString(c.want))
						}
					}
				})
			}
		}
	}
}

// TestBoxDedupeSurvivesCollisions drives the dedupe with the table at the
// smallest size that terminates probing, so most inserts land on an occupied
// slot and node identity rests on the coordinate compare alone. A dedupe that
// trusted the hash would merge distinct cuts: every distinct projected cut
// must get a node of its own, and a repeated one the node it got first.
func TestBoxDedupeSurvivesCollisions(t *testing.T) {
	var cuts [][]int
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			for c := 0; c < 3; c++ {
				cuts = append(cuts, []int{a, b, c})
			}
		}
	}
	tab := make([]int32, 32) // the smallest power of two above the 27 cuts
	var f boxFrontier
	for i, cut := range cuts {
		if idx, fresh := f.successor(tab, cut, 1); !fresh || idx != i {
			t.Fatalf("cut %v: node %d (fresh %v), want new node %d", cut, idx, fresh, i)
		}
	}
	for i, cut := range cuts {
		again := slices.Clone(cut)
		if idx, fresh := f.successor(tab, again, 1); fresh || idx != i {
			t.Errorf("repeated cut %v: node %d (fresh %v), want node %d", again, idx, fresh, i)
		}
	}
	if len(f.letters) != len(cuts) {
		t.Errorf("%d nodes for %d distinct cuts", len(f.letters), len(cuts))
	}
}

func comparePivotSeq(t *testing.T, what string, got, want []pivot) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s sequence length %d, want %d", what, len(got), len(want))
		return
	}
	for i := range got {
		if got[i].q != want[i].q || !got[i].cut.Equal(want[i].cut) {
			t.Errorf("%s[%d] = (%d, %v), want (%d, %v)", what, i, got[i].q, got[i].cut, want[i].q, want[i].cut)
		}
	}
}

// projectedConsistent reports whether a cut (support components meaningful,
// others pinned at lo) is a consistent cut of the projected poset: every
// included support event above lo has its clock covered on the support
// components.
func (f *boxFixture) projectedConsistent(c, lo vclock.VC, support []int) bool {
	for _, p := range support {
		for s := lo[p] + 1; s <= c[p]; s++ {
			e := f.know.event(p, s)
			for _, j := range support {
				lim := c[j]
				if j == p {
					lim = s
				}
				if e.VC[j] > lim {
					return false
				}
			}
		}
	}
	return true
}

// countProjectedCuts enumerates the projected region directly.
func (f *boxFixture) countProjectedCuts(lo, hi vclock.VC, support []int) int {
	c := lo.Clone()
	count := 0
	for {
		if f.projectedConsistent(c, lo, support) {
			count++
		}
		i := 0
		for i < len(support) {
			p := support[i]
			if c[p] < hi[p] {
				c[p]++
				break
			}
			c[p] = lo[p]
			i++
		}
		if i == len(support) {
			break
		}
	}
	return count
}

// liftOf recomputes the full-width lift of a projected cut from scratch: lo
// joined with the vector clock of every included support event.
func (f *boxFixture) liftOf(lo, c vclock.VC, support []int) vclock.VC {
	lift := lo.Clone()
	for _, j := range support {
		if c[j] > lift[j] {
			lift[j] = c[j]
		}
		for s := lo[j] + 1; s <= c[j]; s++ {
			for i, v := range f.know.event(j, s).VC {
				if v > lift[i] {
					lift[i] = v
				}
			}
		}
	}
	return lift
}

// TestBoxSlicedProjectionRoundTrip probes the sliced sweep with a proper
// support slice. It pins:
//
//   - antichain coverage: the sweep visits exactly the projected region's
//     consistent cuts, each once (node count == direct enumeration), and the
//     maxBoxNodes bound speaks that projected count;
//   - verdict exactness: conclusive and final verdict sets match the exact
//     full-width DP (states may differ — stutter-equivalent words can land in
//     different but verdict-equivalent monitor states);
//   - cut round-trip: every reported pivot/conclusive cut is a consistent
//     full-width cut inside [lo, hi] that equals the lift of its own support
//     projection, so knowledge-store arithmetic (GC floors, addGV re-keying)
//     sees cuts indistinguishable from full-width ones;
//   - least lift: that cut is also the least consistent full cut of the box
//     with its projection, by brute force over every consistent cut;
//   - no pivot is in a conclusive state: those are reported once, as
//     conclusive hits.
func TestBoxSlicedProjectionRoundTrip(t *testing.T) {
	topos := map[string]dist.Topology{
		"uniform": dist.TopoUniform, "ring": dist.TopoRing, "broadcast": dist.TopoBroadcast,
	}
	support := []int{0, 1}
	for name, topo := range topos {
		for _, n := range []int{4, 5} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/n%d/s%d", name, n, seed), func(t *testing.T) {
					ts := generateBoxTraces(n, topo, seed)
					f := newBoxFixture(t, ts, "F (P0.p && P1.q)")
					for _, box := range f.boxCases(ts) {
						lo, hi := box[0], box[1]
						exact, err := exploreBox(f.mon, f.know, f.lt, f.init, lo, hi, 1<<21, nil)
						if err != nil {
							t.Fatalf("exact: %v", err)
						}
						sliced, err := exploreBox(f.mon, f.know, f.lt, f.init, lo, hi, 1<<21, support)
						if err != nil {
							t.Fatalf("sliced: %v", err)
						}

						projected := f.countProjectedCuts(lo, hi, support)
						if sliced.nodes != projected {
							t.Errorf("box %v..%v: sliced visited %d nodes, projected region has %d cuts", lo, hi, sliced.nodes, projected)
						}
						if sliced.nodes > exact.nodes {
							t.Errorf("box %v..%v: sliced visited %d nodes, exact only %d", lo, hi, sliced.nodes, exact.nodes)
						}

						if fmt.Sprint(verdictSet(f.mon, conclStates(sliced))) != fmt.Sprint(verdictSet(f.mon, conclStates(exact))) {
							t.Errorf("box %v..%v: sliced conclusive verdicts %v, exact %v",
								lo, hi, verdictSet(f.mon, conclStates(sliced)), verdictSet(f.mon, conclStates(exact)))
						}
						if fmt.Sprint(verdictSet(f.mon, sliced.finalStates)) != fmt.Sprint(verdictSet(f.mon, exact.finalStates)) {
							t.Errorf("box %v..%v: sliced final verdicts %v, exact %v",
								lo, hi, verdictSet(f.mon, sliced.finalStates), verdictSet(f.mon, exact.finalStates))
						}

						for _, pv := range sliced.pivots {
							if f.mon.Final(pv.q) {
								t.Errorf("box %v..%v: pivot (%d, %v) is in a conclusive state", lo, hi, pv.q, pv.cut)
							}
						}
						consistent := f.enumerateConsistent(lo, hi)
						for _, pv := range append(append([]pivot(nil), sliced.pivots...), sliced.conclusive...) {
							if !lo.LessEq(pv.cut) || !pv.cut.LessEq(hi) {
								t.Errorf("box %v..%v: reported cut %v outside the box", lo, hi, pv.cut)
							}
							if !f.consistentCut(pv.cut) {
								t.Errorf("box %v..%v: reported cut %v is not consistent", lo, hi, pv.cut)
							}
							if lift := f.liftOf(lo, pv.cut, support); !lift.Equal(pv.cut) {
								t.Errorf("box %v..%v: cut %v does not round-trip through its projection (lift %v)", lo, hi, pv.cut, lift)
							}
							if least := leastWithProjection(consistent, pv.cut, support); !least.Equal(pv.cut) {
								t.Errorf("box %v..%v: cut %v is not the least consistent cut with its projection (%v is)", lo, hi, pv.cut, least)
							}
						}
					}
				})
			}
		}
	}
}

// leastWithProjection returns the least of the consistent cuts that agree
// with c on the support, or nil when they have no least element.
func leastWithProjection(consistent []vclock.VC, c vclock.VC, support []int) vclock.VC {
	var same []vclock.VC
	for _, d := range consistent {
		agree := true
		for _, j := range support {
			agree = agree && d[j] == c[j]
		}
		if agree {
			same = append(same, d)
		}
	}
	for _, d := range same {
		least := true
		for _, e := range same {
			least = least && d.LessEq(e)
		}
		if least {
			return d
		}
	}
	return nil
}

func conclStates(r *boxResult) []int {
	var out []int
	for _, pv := range r.conclusive {
		out = append(out, pv.q)
	}
	return out
}

func verdictSet(mon *automaton.Monitor, states []int) []automaton.Verdict {
	seen := map[automaton.Verdict]bool{}
	for _, q := range states {
		seen[mon.VerdictOf(q)] = true
	}
	var out []automaton.Verdict
	for _, v := range []automaton.Verdict{automaton.Top, automaton.Bottom, automaton.Unknown} {
		if seen[v] {
			out = append(out, v)
		}
	}
	return out
}

// TestBoxSlicedNodeBound pins that the node budget bounds *projected* nodes
// under slicing: the sweep errors out one below the projected region's size
// and completes exactly at it — which is why a dense-broadcast region whose
// full-width size explodes stays explorable.
func TestBoxSlicedNodeBound(t *testing.T) {
	ts := generateBoxTraces(5, dist.TopoBroadcast, 1)
	f := newBoxFixture(t, ts, "F (P0.p && P1.q)")
	support := []int{0, 1}
	lo, hi := vclock.New(f.n), f.frontier()
	projected := f.countProjectedCuts(lo, hi, support)
	if projected < 2 {
		t.Fatalf("degenerate fixture: projected region has %d cuts", projected)
	}
	if _, err := exploreBox(f.mon, f.know, f.lt, f.init, lo, hi, projected-1, support); err == nil {
		t.Errorf("sliced sweep with maxNodes %d below projected size %d did not error", projected-1, projected)
	}
	if _, err := exploreBox(f.mon, f.know, f.lt, f.init, lo, hi, projected, support); err != nil {
		t.Errorf("sliced sweep with maxNodes == projected size %d failed: %v", projected, err)
	}
}

// TestBoxEmpty pins the degenerate lo == hi box for both strategies: one
// node, no pivots, final states == the initial state set.
func TestBoxEmpty(t *testing.T) {
	ts := generateBoxTraces(3, dist.TopoRing, 1)
	f := newBoxFixture(t, ts, "F (P0.p && P1.q)")
	lo := vclock.New(f.n)
	for _, support := range [][]int{nil, {0, 1}} {
		res, err := exploreBox(f.mon, f.know, f.lt, f.init, lo, lo, 1, support)
		if err != nil {
			t.Fatalf("support %v: %v", support, err)
		}
		if res.nodes != 1 || len(res.pivots) != 0 {
			t.Errorf("support %v: empty box visited %d nodes with %d pivots", support, res.nodes, len(res.pivots))
		}
		if fmt.Sprint(sortedInts(res.finalStates)) != fmt.Sprint(f.init.list(nil)) {
			t.Errorf("support %v: empty box final states %v, want %v", support, res.finalStates, f.init.list(nil))
		}
	}
}
