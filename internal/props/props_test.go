package props

import (
	"slices"
	"testing"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/ltl"
)

func TestFormulaErrors(t *testing.T) {
	if _, err := Formula("A", 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := Formula("Z", 3); err == nil {
		t.Error("unknown property accepted")
	}
}

func TestAllParses(t *testing.T) {
	for n := 2; n <= 5; n++ {
		for name, fs := range All(n) {
			if _, err := ltl.Parse(fs); err != nil {
				t.Errorf("property %s n=%d does not parse: %v", name, n, err)
			}
		}
	}
}

func TestAAndCIdenticalAtSmallN(t *testing.T) {
	// §5.1: "automatons A and C for the 2 processes and 3 processes
	// experiments are identical".
	for n := 2; n <= 3; n++ {
		a, _ := Formula("A", n)
		c, _ := Formula("C", n)
		fa, fc := ltl.MustParse(a), ltl.MustParse(c)
		if !fa.Equal(fc) {
			t.Errorf("n=%d: A = %s differs from C = %s", n, fa, fc)
		}
	}
	a4, _ := Formula("A", 4)
	c4, _ := Formula("C", 4)
	if ltl.MustParse(a4).Equal(ltl.MustParse(c4)) {
		t.Error("A and C should differ at n=4")
	}
}

// table51 is Table 5.1 of the paper: per property and n=2..5, the total /
// outgoing / self-loop transition counts of the generated automata.
var table51 = map[string][4][3]int{
	"A": {{7, 4, 3}, {11, 7, 4}, {15, 11, 4}, {21, 16, 5}},
	"B": {{4, 1, 3}, {5, 1, 4}, {6, 1, 5}, {7, 1, 7}},
	"C": {{7, 4, 3}, {11, 7, 4}, {15, 11, 4}, {19, 13, 6}},
	"D": {{15, 11, 4}, {27, 22, 5}, {43, 35, 7}, {63, 56, 7}},
	"E": {{6, 1, 5}, {8, 1, 7}, {10, 1, 9}, {12, 1, 11}},
	"F": {{31, 23, 8}, {49, 37, 12}, {67, 51, 16}, {85, 65, 20}},
}

// figStates is the state count visible in Figs. 2.3/5.2/5.3 per property.
var figStates = map[string]int{"A": 3, "B": 2, "C": 3, "D": 3, "E": 2, "F": 5}

// TestTable51Shape checks the paper-shape construction against Table 5.1:
// state counts match the figures exactly; transition counts match exactly
// for most cells and within 60% everywhere (cube-minimization tie-breaking
// differs; see EXPERIMENTS.md for the full side-by-side).
func TestTable51Shape(t *testing.T) {
	exact := 0
	for _, name := range Names {
		for n := 2; n <= 5; n++ {
			m, err := Build(name, n, true)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if m.NumStates() != figStates[name] {
				t.Errorf("%s n=%d: %d states, figures show %d", name, n, m.NumStates(), figStates[name])
			}
			tot, out, self := m.CountTransitions()
			want := table51[name][n-2]
			if tot == want[0] && out == want[1] && self == want[2] {
				exact++
			}
			if float64(tot) < 0.4*float64(want[0]) || float64(tot) > 1.6*float64(want[0]) {
				t.Errorf("%s n=%d: %d transitions too far from paper's %d", name, n, tot, want[0])
			}
		}
	}
	if exact < 15 {
		t.Errorf("only %d/24 Table 5.1 cells exact; expected at least 15", exact)
	}
}

// TestPaperShapeVerdictEquivalence: the progression machine must agree with
// the minimal machine on every word (they differ only in state count).
func TestPaperShapeVerdictEquivalence(t *testing.T) {
	pm := dist.PerProcess(3, "p", "q")
	words := [][]uint32{
		{}, {0}, {0b111111}, {0b010101}, {0b101010, 0b111111},
		{0, 0, 0}, {0b000111, 0b111000, 0b111111},
	}
	for _, name := range Names {
		shaped, err := Build(name, 3, true)
		if err != nil {
			t.Fatal(err)
		}
		minimal, err := Build(name, 3, false)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(shaped.Props, minimal.Props) {
			t.Fatalf("%s: paper-shape reads %v, minimal %v", name, shaped.Props, minimal.Props)
		}
		for _, w := range words {
			w = project(minimal, pm.Names, w)
			if a, b := shaped.Run(w), minimal.Run(w); a != b {
				t.Errorf("%s: paper-shape %v != minimal %v on %v", name, a, b, w)
			}
		}
	}
}

// project rewrites a word of letters over props into m's letters: m reads
// only the propositions of its formula.
func project(m *automaton.Monitor, props []string, word []uint32) []uint32 {
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

// TestProgressionAgainstMinimalRandom cross-validates the progression
// construction on random formulas and words.
func TestProgressionAgainstMinimalRandom(t *testing.T) {
	props2 := []string{"a", "b"}
	formulas := []string{
		"G (a -> F b)", "a U (b U a)", "F G a", "G F (a && b)",
		"(a U b) || (b U a)", "X (a R b)", "G ((a U b) && (b U a))",
	}
	for _, fs := range formulas {
		f := ltl.MustParse(fs)
		prog, err := automaton.BuildProgression(f, props2)
		if err != nil {
			t.Fatal(err)
		}
		minimal, err := automaton.Build(f, props2)
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 1<<8; w++ {
			// enumerate all words of length 4 over 2 props
			word := []uint32{uint32(w) & 3, uint32(w>>2) & 3, uint32(w>>4) & 3, uint32(w>>6) & 3}
			word = project(minimal, props2, word)
			if a, b := prog.Run(word), minimal.Run(word); a != b {
				t.Fatalf("%s: progression %v != minimal %v on %v", fs, a, b, word)
			}
		}
	}
}

func TestSuffixesPerProperty(t *testing.T) {
	for _, name := range []string{"A", "B", "C"} {
		suf, err := Suffixes(name)
		if err != nil || len(suf) != 1 || suf[0] != "p" {
			t.Errorf("%s: suffixes %v, %v (want [p])", name, suf, err)
		}
	}
	for _, name := range []string{"D", "E", "F"} {
		suf, err := Suffixes(name)
		if err != nil || len(suf) != 2 || suf[0] != "p" || suf[1] != "q" {
			t.Errorf("%s: suffixes %v, %v (want [p q])", name, suf, err)
		}
	}
	if _, err := Suffixes("Z"); err == nil {
		t.Error("unknown property accepted")
	}
}

func TestBuildAt(t *testing.T) {
	for _, name := range Names {
		mon, pm, err := BuildAt(name, 3, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The proposition space is exactly the property's own alphabet
		// shape: every formula proposition declared, owners 0..arity-1.
		want, _ := Formula(name, 3)
		f, err := ltl.Parse(want)
		if err != nil {
			t.Fatal(err)
		}
		declared := map[string]bool{}
		for i, p := range pm.Names {
			declared[p] = true
			if pm.Owner[i] < 0 || pm.Owner[i] >= 3 {
				t.Errorf("%s: prop %s owned by %d, want < 3", name, p, pm.Owner[i])
			}
		}
		for _, p := range f.Props() {
			if !declared[p] {
				t.Errorf("%s: formula proposition %s not in BuildAt's space", name, p)
			}
		}
		if len(mon.Props) != pm.Len() {
			t.Errorf("%s: monitor has %d props, space %d", name, len(mon.Props), pm.Len())
		}
		// The paper-shape variant must synthesize too.
		if _, _, err := BuildAt(name, 3, true); err != nil {
			t.Errorf("%s paper shape: %v", name, err)
		}
	}
	if _, _, err := BuildAt("A", 1, false); err == nil {
		t.Error("arity 1 accepted")
	}
	if _, _, err := BuildAt("Z", 3, false); err == nil {
		t.Error("unknown property accepted")
	}
}
