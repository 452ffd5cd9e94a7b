package automaton

import (
	"slices"
	"strings"
	"testing"

	"decentmon/internal/ltl"
)

// letters over props [p, q]: bit0 = p, bit1 = q.
const (
	lNone = uint32(0b00)
	lP    = uint32(0b01)
	lQ    = uint32(0b10)
	lPQ   = uint32(0b11)
)

var pq = []string{"p", "q"}

// project rewrites a word of letters over props into m's letters: m reads
// only the propositions of its formula.
func project(m *Monitor, props []string, word []uint32) []uint32 {
	out := make([]uint32, len(word))
	for i, l := range word {
		assign := map[string]bool{}
		for b, p := range props {
			assign[p] = l>>b&1 == 1
		}
		out[i] = m.Letter(assign)
	}
	return out
}

// over is project from pq.
func over(m *Monitor, word ...uint32) []uint32 { return project(m, pq, word) }

func TestBuildEventually(t *testing.T) {
	m := MustBuild(ltl.MustParse("F p"), pq)
	// F p: 2 states — ? with !p self-loop, ⊤ absorbing.
	if m.NumStates() != 2 {
		t.Fatalf("F p: %d states, want 2\n%s", m.NumStates(), m.Describe())
	}
	if m.Run(nil) != Unknown {
		t.Errorf("[ε ⊨ Fp] = %v, want ?", m.Run(nil))
	}
	if got := m.Run(over(m, lNone, lQ)); got != Unknown {
		t.Errorf("no p yet: %v, want ?", got)
	}
	if got := m.Run(over(m, lNone, lP)); got != Top {
		t.Errorf("p seen: %v, want T", got)
	}
	if got := m.Run(over(m, lP, lNone)); got != Top {
		t.Errorf("T must be absorbing: %v", got)
	}
}

func TestBuildAlways(t *testing.T) {
	m := MustBuild(ltl.MustParse("G p"), pq)
	if m.NumStates() != 2 {
		t.Fatalf("G p: %d states, want 2\n%s", m.NumStates(), m.Describe())
	}
	if got := m.Run(over(m, lP, lPQ)); got != Unknown {
		t.Errorf("all p so far: %v, want ?", got)
	}
	if got := m.Run(over(m, lP, lQ)); got != Bottom {
		t.Errorf("p violated: %v, want F", got)
	}
	if got := m.Run(over(m, lQ, lP)); got != Bottom {
		t.Errorf("F must be absorbing: %v", got)
	}
}

func TestBuildUntil(t *testing.T) {
	m := MustBuild(ltl.MustParse("p U q"), pq)
	// Expected: ? (waiting), ⊤ (q seen), ⊥ (p dropped before q).
	if m.NumStates() != 3 {
		t.Fatalf("p U q: %d states, want 3\n%s", m.NumStates(), m.Describe())
	}
	cases := []struct {
		word []uint32
		want Verdict
	}{
		{nil, Unknown},
		{[]uint32{lP}, Unknown},
		{[]uint32{lP, lP}, Unknown},
		{[]uint32{lQ}, Top},
		{[]uint32{lPQ}, Top},
		{[]uint32{lP, lQ}, Top},
		{[]uint32{lNone}, Bottom},
		{[]uint32{lP, lNone}, Bottom},
		{[]uint32{lP, lNone, lQ}, Bottom}, // absorbing
	}
	for _, c := range cases {
		if got := m.Run(over(m, c.word...)); got != c.want {
			t.Errorf("[%v ⊨ pUq] = %v, want %v", c.word, got, c.want)
		}
	}
}

func TestBuildNext(t *testing.T) {
	m := MustBuild(ltl.MustParse("X p"), pq)
	cases := []struct {
		word []uint32
		want Verdict
	}{
		{nil, Unknown},
		{[]uint32{lNone}, Unknown},
		{[]uint32{lQ, lP}, Top},
		{[]uint32{lP, lNone}, Bottom},
	}
	for _, c := range cases {
		if got := m.Run(over(m, c.word...)); got != c.want {
			t.Errorf("[%v ⊨ Xp] = %v, want %v", c.word, got, c.want)
		}
	}
}

func TestBuildLiveness(t *testing.T) {
	// G F p is not monitorable: every finite word yields ?.
	m := MustBuild(ltl.MustParse("G F p"), pq)
	words := [][]uint32{nil, {lP}, {lNone}, {lP, lNone, lQ, lPQ}, {lNone, lNone, lNone}}
	for _, w := range words {
		if got := m.Run(over(m, w...)); got != Unknown {
			t.Errorf("[%v ⊨ GFp] = %v, want ?", w, got)
		}
	}
	// The minimal monitor for a formula with constant output ? has one state.
	if m.NumStates() != 1 {
		t.Errorf("GFp monitor has %d states, want 1\n%s", m.NumStates(), m.Describe())
	}
}

func TestBuildConstants(t *testing.T) {
	mt := MustBuild(ltl.True(), pq)
	if mt.Run(nil) != Top || mt.Run(over(mt, lNone)) != Top {
		t.Error("monitor for true must output T everywhere")
	}
	mf := MustBuild(ltl.False(), pq)
	if mf.Run(nil) != Bottom || mf.Run(over(mf, lPQ)) != Bottom {
		t.Error("monitor for false must output F everywhere")
	}
	if mt.NumStates() != 1 || mf.NumStates() != 1 {
		t.Error("constant monitors must be single-state")
	}
}

// TestPaperRunningExample builds the monitor for the paper's Fig. 2.3
// property ψ = G((x1≥5) → ((x2≥15) U (x1=10))) and replays the verdicts the
// thesis reports for the lattice of Fig. 3.1.
func TestPaperRunningExample(t *testing.T) {
	props := []string{"x1>=5", "x1=10", "x2>=15"}
	// NOTE: x1≥5 and x1=10 are not independent in the program (x1=10 implies
	// x1≥5); the monitor is built over free propositions, exactly like the
	// paper's automaton in Fig. 2.3, which labels transitions with both.
	psi := ltl.MustParse("G ((x1>=5) -> ((x2>=15) U (x1=10)))")
	m := MustBuild(psi, props)

	// Fig. 2.3 shows 3 reachable states: q0 (?), q1 (?), q⊥.
	if m.NumStates() != 3 {
		t.Fatalf("ψ monitor has %d states, want 3\n%s", m.NumStates(), m.Describe())
	}
	nUnknown, nBottom, nTop := 0, 0, 0
	for s := 0; s < m.NumStates(); s++ {
		switch m.VerdictOf(s) {
		case Unknown:
			nUnknown++
		case Bottom:
			nBottom++
		case Top:
			nTop++
		}
	}
	if nUnknown != 2 || nBottom != 1 || nTop != 0 {
		t.Fatalf("ψ verdicts: %d?, %d⊥, %d⊤; want 2,1,0", nUnknown, nBottom, nTop)
	}

	letter := func(x1, x2 int) uint32 {
		return m.Letter(map[string]bool{
			"x1>=5":  x1 >= 5,
			"x1=10":  x1 == 10,
			"x2>=15": x2 >= 15,
		})
	}
	// Program of Fig. 2.1: P1: x1=5; x1=10. P2: x2=15; x2=20.
	// Interleaving through ⟨e11⟩ first (x1=5 while x2=0 <15): q⊥ per Fig 3.1.
	viol := []uint32{letter(0, 0), letter(5, 0)}
	if got := m.Run(viol); got != Bottom {
		t.Errorf("path through (x1=5, x2=0): %v, want F\n%s", got, m.Describe())
	}
	// Path β advancing P2 first: x2=15, x2=20, then x1=5, x1=10: stays ?.
	beta := []uint32{
		letter(0, 0), letter(0, 15), letter(0, 20),
		letter(5, 20), letter(10, 20),
	}
	if got := m.Run(beta); got != Unknown {
		t.Errorf("path β: %v, want ?", got)
	}
}

func TestTransitionsPartitionAlphabet(t *testing.T) {
	// For every state, the outgoing symbolic guards must cover the alphabet,
	// be deterministic across destinations, and agree with delta.
	formulas := []string{
		"F p", "G p", "p U q", "X (p && q)", "G (p -> F q)",
		"(p U q) || G p", "F (p && X q)",
	}
	for _, fs := range formulas {
		m := MustBuild(ltl.MustParse(fs), pq)
		for s := 0; s < m.NumStates(); s++ {
			for a := uint32(0); a < 1<<len(m.Props); a++ {
				matches := map[int]bool{}
				for _, tr := range m.Out(s) {
					if tr.Guard.Contains(a) {
						matches[tr.Dst] = true
					}
				}
				if len(matches) != 1 {
					t.Fatalf("%s: state %d letter %b matches %d destinations", fs, s, a, len(matches))
				}
				want := m.Step(s, a)
				if !matches[want] {
					t.Fatalf("%s: state %d letter %b: symbolic dst != delta dst %d", fs, s, a, want)
				}
			}
		}
	}
}

// TestOutIsAView pins Out to a window onto the machine's transitions: each
// state's run is its own, in id order, and reading it allocates nothing
// (the view step calls Out for every state of every view it steps).
func TestOutIsAView(t *testing.T) {
	m := MustBuild(ltl.MustParse("G (p -> F q)"), pq)
	next := 0
	for s := 0; s < m.NumStates(); s++ {
		out := m.Out(s)
		if cap(out) != len(out) {
			t.Errorf("state %d: Out has spare capacity %d, an append would write into the next state's", s, cap(out)-len(out))
		}
		for _, tr := range out {
			if tr.Src != s || tr.ID != next {
				t.Fatalf("state %d: transition %+v, want source %d and id %d", s, tr, s, next)
			}
			next++
		}
	}
	if next != len(m.Transitions()) {
		t.Errorf("Out covers %d transitions, the machine has %d", next, len(m.Transitions()))
	}
	n := 0
	if allocs := testing.AllocsPerRun(100, func() {
		for s := 0; s < m.NumStates(); s++ {
			n += len(m.Out(s))
		}
	}); allocs != 0 {
		t.Errorf("Out allocates %.1f objects per sweep, want 0", allocs)
	}
}

func TestFinalStatesAbsorbing(t *testing.T) {
	formulas := []string{
		"F p", "G p", "p U q", "X p", "G (p -> F q)", "F (p && q) || G !q",
	}
	for _, fs := range formulas {
		m := MustBuild(ltl.MustParse(fs), pq)
		for s := 0; s < m.NumStates(); s++ {
			if !m.Final(s) {
				continue
			}
			for a := uint32(0); a < 1<<len(m.Props); a++ {
				if m.Step(s, a) != s {
					t.Fatalf("%s: final state %d not absorbing on %b", fs, s, a)
				}
			}
		}
	}
}

func TestCountTransitions(t *testing.T) {
	m := MustBuild(ltl.MustParse("F p"), pq)
	total, outgoing, self := m.CountTransitions()
	if total != outgoing+self {
		t.Errorf("counts inconsistent: %d != %d + %d", total, outgoing, self)
	}
	if outgoing < 1 || self < 1 {
		t.Errorf("F p should have at least one outgoing and one self-loop, got %d/%d", outgoing, self)
	}
}

func TestDotAndDescribe(t *testing.T) {
	m := MustBuild(ltl.MustParse("p U q"), pq)
	dot := m.Dot("until")
	for _, want := range []string{"digraph", "q0", "->", "doublecircle"} {
		if !strings.Contains(dot, want) {
			t.Errorf("Dot output missing %q:\n%s", want, dot)
		}
	}
	desc := m.Describe()
	if !strings.Contains(desc, "states: 3") {
		t.Errorf("Describe missing state count:\n%s", desc)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(ltl.MustParse("p U r"), pq); err == nil {
		t.Error("undeclared proposition accepted")
	}
	if _, err := Build(ltl.MustParse("p"), []string{"p", "p"}); err == nil {
		t.Error("duplicate proposition accepted")
	}
	big := make([]string, 30)
	for i := range big {
		big[i] = string(rune('a' + i))
	}
	// The ceiling is on what the formula reads, not on what is declared.
	m, err := Build(ltl.MustParse("F a"), big)
	if err != nil {
		t.Fatalf("30 declared, one read: %v", err)
	}
	if !slices.Equal(m.Props, []string{"a"}) {
		t.Errorf("props %v, want [a]", m.Props)
	}
	if _, err := Build(ltl.MustParse("F ("+strings.Join(big[:25], " && ")+")"), big); err == nil {
		t.Error("a formula reading 25 propositions accepted")
	}
}

func TestLetter(t *testing.T) {
	m := MustBuild(ltl.MustParse("p U q"), pq)
	if l := m.Letter(map[string]bool{"p": true}); l != lP {
		t.Errorf("Letter(p) = %b", l)
	}
	if l := m.Letter(map[string]bool{"p": true, "q": true}); l != lPQ {
		t.Errorf("Letter(p,q) = %b", l)
	}
	if l := m.Letter(nil); l != lNone {
		t.Errorf("Letter() = %b", l)
	}
}

// TestSupport pins the one rule every lattice walk follows: a ○-free formula
// reading a proposition spans the sorted, unique owners of what it reads;
// anything else spans every process.
func TestSupport(t *testing.T) {
	abcd := []string{"a", "b", "c", "d"}
	noFormula := *MustBuild(ltl.MustParse("F a"), abcd)
	noFormula.Formula = nil
	for _, c := range []struct {
		name   string
		mon    *Monitor
		owners []int // owners[i] owns mon.Props[i]
		want   []int
	}{
		{"proper subset, one owner of two", MustBuild(ltl.MustParse("F (a && b && c)"), abcd), []int{2, 0, 2}, []int{0, 2}},
		{"next", MustBuild(ltl.MustParse("X (a && b)"), abcd), []int{1, 1}, []int{0, 1, 2, 3}},
		{"no formula", &noFormula, []int{1}, []int{0, 1, 2, 3}},
		{"no proposition", MustBuild(ltl.MustParse("true"), abcd), nil, []int{0, 1, 2, 3}},
		{"owners out of order", MustBuild(ltl.MustParse("a U b"), abcd), []int{3, 1}, []int{1, 3}},
	} {
		if len(c.owners) != len(c.mon.Props) {
			t.Fatalf("%s: %d owners for props %v", c.name, len(c.owners), c.mon.Props)
		}
		owners := slices.Clone(c.owners)
		if got := c.mon.Support(owners, 4); !slices.Equal(got, c.want) {
			t.Errorf("%s: support %v, want %v", c.name, got, c.want)
		}
		if !slices.Equal(owners, c.owners) {
			t.Errorf("%s: Support rewrote its owners to %v", c.name, owners)
		}
	}
}
