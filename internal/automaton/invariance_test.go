package automaton_test

import (
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/ltl"
	"decentmon/internal/props"
)

// sameMonitor fails unless got is the monitor want is: the same
// propositions, states, verdicts and δ row for row, and the same transitions
// in the same order.
func sameMonitor(t *testing.T, what string, want, got *automaton.Monitor) {
	t.Helper()
	if !slices.Equal(got.Props, want.Props) {
		t.Fatalf("%s: propositions %v, want %v", what, got.Props, want.Props)
	}
	if got.NumStates() != want.NumStates() {
		t.Fatalf("%s: %d states, want %d", what, got.NumStates(), want.NumStates())
	}
	for q := 0; q < want.NumStates(); q++ {
		if got.VerdictOf(q) != want.VerdictOf(q) {
			t.Fatalf("%s: state %d verdict %v, want %v", what, q, got.VerdictOf(q), want.VerdictOf(q))
		}
		for a := uint32(0); a < 1<<len(want.Props); a++ {
			if g, w := got.Step(q, a), want.Step(q, a); g != w {
				t.Fatalf("%s: δ(%d, %b) = %d, want %d", what, q, a, g, w)
			}
		}
	}
	if !slices.Equal(got.Transitions(), want.Transitions()) {
		t.Fatalf("%s: transitions %v, want %v", what, got.Transitions(), want.Transitions())
	}
}

// TestBuildAlphabetInvariance: declaring propositions a formula does not
// read, at any positions, yields the identical monitor, for both builders.
func TestBuildAlphabetInvariance(t *testing.T) {
	type tc struct {
		formula *ltl.Formula
		props   []string
	}
	var cases []tc
	pq := dist.PerProcess(2, "p", "q").Names
	for _, name := range props.Names {
		fs, err := props.Formula(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{ltl.MustParse(fs), pq})
	}
	rng := rand.New(rand.NewSource(12))
	five := dist.PerProcess(5, "p").Names
	reversed := slices.Clone(five)
	slices.Reverse(reversed)
	for i := 0; i < 60; i++ {
		declared := five
		if i%2 == 1 {
			declared = reversed
		}
		cases = append(cases, tc{randomOver(rng, declared, 2+rng.Intn(3)), declared})
	}
	for _, c := range cases {
		for name, build := range builders {
			narrow, err := build(c.formula, c.props)
			if err != nil {
				t.Fatalf("%s %s: %v", name, c.formula, err)
			}
			// One unused proposition at every position, then two at
			// random positions.
			var wides [][]string
			for at := 0; at <= len(c.props); at++ {
				wides = append(wides, slices.Insert(slices.Clone(c.props), at, "u0"))
			}
			two := slices.Insert(slices.Clone(c.props), rng.Intn(len(c.props)+1), "u0")
			wides = append(wides, slices.Insert(two, rng.Intn(len(two)+1), "u1"))
			for _, wideProps := range wides {
				wide, err := build(c.formula, wideProps)
				if err != nil {
					t.Fatal(err)
				}
				sameMonitor(t, name+" "+c.formula.String(), narrow, wide)
			}
		}
	}
}

// TestBuildWideDeclaration: the proposition ceiling bounds what a formula
// reads, not what is declared. The arity-3 B formula over the 32 propositions
// of PerProcess(16, "p", "q") builds with both builders, and its monitor
// reads the three propositions of the formula.
func TestBuildWideDeclaration(t *testing.T) {
	fs, err := props.Formula("B", 3)
	if err != nil {
		t.Fatal(err)
	}
	names := dist.PerProcess(16, "p", "q").Names
	if len(names) != 32 {
		t.Fatalf("%d names, want 32", len(names))
	}
	for name, build := range builders {
		m, err := build(ltl.MustParse(fs), names)
		if err != nil {
			t.Fatalf("%s over %d propositions: %v", name, len(names), err)
		}
		if want := []string{"P0.p", "P1.p", "P2.p"}; !slices.Equal(m.Props, want) {
			t.Errorf("%s: propositions %v, want %v", name, m.Props, want)
		}
	}
}

// fuzzProps is FuzzBuild's fixed alphabet: enough for properties A–F at
// n = 2 and a serve-detect triple.
var fuzzProps = []string{"P0.p", "P0.q", "P1.p", "P1.q", "P2.p"}

// fuzzMaxNodes caps the formulas FuzzBuild synthesizes: tableau size is
// exponential in the formula, and a small cap keeps every input fast.
const fuzzMaxNodes = 24

// FuzzBuild throws arbitrary formulas at Build: properties are tenant input
// (dlmond's Register synthesizes whatever it is sent), so Build must refuse
// or succeed, never panic. On every accepted formula over fuzzProps:
//
//   - the monitor's propositions are those the formula reads, in declaration
//     order, and δ is complete over their letters and in range;
//   - declaring one more, unused, proposition yields the identical monitor;
//   - a conclusive verdict on a finite word u agrees with EvalLasso on
//     u·v^ω for a few lassos derived from the input.
func FuzzBuild(f *testing.F) {
	for _, name := range props.Names {
		fs, err := props.Formula(name, 2)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(fs)
	}
	f.Add("F (P0.p && P1.p && P2.p)")
	f.Add("G (P0.p -> F (P1.p && P2.p))")
	f.Add("X !P0.q R (P1.q U P0.p)")
	f.Fuzz(func(t *testing.T, input string) {
		formula, err := ltl.Parse(input)
		if err != nil || formula.Size() > fuzzMaxNodes {
			return
		}
		m, err := automaton.Build(formula, fuzzProps)
		if err != nil {
			return // an undeclared proposition
		}
		var read []string
		for _, p := range fuzzProps {
			if slices.Contains(formula.Props(), p) {
				read = append(read, p)
			}
		}
		if !slices.Equal(m.Props, read) {
			t.Fatalf("%s: propositions %v, want %v", formula, m.Props, read)
		}
		for q := 0; q < m.NumStates(); q++ {
			for a := uint32(0); a < 1<<len(m.Props); a++ {
				if s := m.Step(q, a); s < 0 || s >= m.NumStates() {
					t.Fatalf("%s: δ(%d, %b) = %d out of range [0, %d)", formula, q, a, s, m.NumStates())
				}
			}
		}

		h := fnv.New64a()
		h.Write([]byte(input))
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		wideProps := slices.Insert(slices.Clone(fuzzProps), rng.Intn(len(fuzzProps)+1), "unused")
		wide, err := automaton.Build(formula, wideProps)
		if err != nil {
			t.Fatalf("%s: accepted over %v, refused over %v: %v", formula, fuzzProps, wideProps, err)
		}
		sameMonitor(t, formula.String(), m, wide)

		for i := 0; i < 4; i++ {
			word := make([]uint32, rng.Intn(5)+1+rng.Intn(3))
			for j := range word {
				word[j] = uint32(rng.Intn(1 << len(m.Props)))
			}
			loop := rng.Intn(len(word))
			v := m.Run(word[:loop])
			if v == automaton.Unknown {
				continue
			}
			if sat := automaton.EvalLasso(formula, m.Props, word, loop); sat != (v == automaton.Top) {
				t.Fatalf("%s: verdict %v on %v, but the lasso loop@%d of %v satisfies: %v", formula, v, word[:loop], loop, word, sat)
			}
		}
	})
}
