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

// squeeze drops the bits of x outside keep and closes the gaps, so that a
// letter or cube over a widened alphabet reads as one over the original.
func squeeze(x, keep uint32) uint32 {
	var out uint32
	j := 0
	for i := 0; i < 32; i++ {
		if keep&(1<<i) == 0 {
			continue
		}
		out |= (x >> i & 1) << j
		j++
	}
	return out
}

// addedBits is the mask of the positions of wide that hold a proposition
// props does not declare.
func addedBits(wide, props []string) uint32 {
	var mask uint32
	for i, p := range wide {
		if !slices.Contains(props, p) {
			mask |= 1 << i
		}
	}
	return mask
}

// sameUpToLift fails unless wide, built over narrow's alphabet plus the
// unused propositions at the positions set in inserted, differs from narrow
// only by those positions: same states and verdicts, δ equal on every letter
// once the inserted bits are removed, and the same transitions in the same
// order with guards that leave the inserted bits free.
func sameUpToLift(t *testing.T, what string, narrow, wide *automaton.Monitor, inserted uint32) {
	t.Helper()
	if narrow.NumStates() != wide.NumStates() {
		t.Fatalf("%s: %d states over the wider alphabet, %d without", what, wide.NumStates(), narrow.NumStates())
	}
	keep := (uint32(1)<<len(wide.Props) - 1) &^ inserted
	for q := 0; q < narrow.NumStates(); q++ {
		if narrow.VerdictOf(q) != wide.VerdictOf(q) {
			t.Fatalf("%s: state %d verdict %v, want %v", what, q, wide.VerdictOf(q), narrow.VerdictOf(q))
		}
		for a := uint32(0); a < 1<<len(wide.Props); a++ {
			if got, want := wide.Step(q, a), narrow.Step(q, squeeze(a, keep)); got != want {
				t.Fatalf("%s: δ(%d, %b) = %d, want %d", what, q, a, got, want)
			}
		}
	}
	nt, wt := narrow.Transitions(), wide.Transitions()
	if len(nt) != len(wt) {
		t.Fatalf("%s: %d transitions over the wider alphabet, %d without", what, len(wt), len(nt))
	}
	for i, w := range wt {
		n := nt[i]
		if w.Src != n.Src || w.Dst != n.Dst || w.Guard.Care&inserted != 0 ||
			squeeze(w.Guard.Care, keep) != n.Guard.Care || squeeze(w.Guard.Val, keep) != n.Guard.Val {
			t.Fatalf("%s: transition %d is %d>%d %v, want %d>%d %v", what, i, w.Src, w.Dst, w.Guard, n.Src, n.Dst, n.Guard)
		}
	}
}

// TestBuildAlphabetInvariance: declaring propositions a formula does not
// read, at any positions, changes nothing but the lift, for both builders.
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
				sameUpToLift(t, name+" "+c.formula.String(), narrow, wide, addedBits(wideProps, c.props))
			}
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
//   - δ is complete over the 2^5 letters and in range;
//   - declaring one more, unused, proposition changes nothing but the lift;
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
		for q := 0; q < m.NumStates(); q++ {
			for a := uint32(0); a < 1<<len(fuzzProps); a++ {
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
		sameUpToLift(t, formula.String(), m, wide, addedBits(wideProps, fuzzProps))

		for i := 0; i < 4; i++ {
			word := make([]uint32, rng.Intn(5)+1+rng.Intn(3))
			for j := range word {
				word[j] = uint32(rng.Intn(1 << len(fuzzProps)))
			}
			loop := rng.Intn(len(word))
			v := m.Run(word[:loop])
			if v == automaton.Unknown {
				continue
			}
			if sat := automaton.EvalLasso(formula, fuzzProps, word, loop); sat != (v == automaton.Top) {
				t.Fatalf("%s: verdict %v on %v, but the lasso loop@%d of %v satisfies: %v", formula, v, word[:loop], loop, word, sat)
			}
		}
	})
}
