package automaton_test

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/ltl"
	"decentmon/internal/props"
)

var update = flag.Bool("update", false, "rewrite testdata/build.golden from the current builders")

const goldenPath = "testdata/build.golden"

// builders names the two constructions in the fixture's first column.
var builders = map[string]func(*ltl.Formula, []string) (*automaton.Monitor, error){
	"min":  automaton.Build,
	"prog": automaton.BuildProgression,
}

// goldenCase is one line of testdata/build.golden before it is built.
type goldenCase struct {
	builder string
	formula string
	props   []string
}

// goldenCases lists what the fixture pins: properties A–F at n = 2..4 over
// PerProcess(n, "p", "q") with both builders, the 56 serve-detect triples and
// the stream property over PerProcess(8, "p"), the running example, and
// seeded random formulas reading 2–5 of 7 declared propositions.
func goldenCases() []goldenCase {
	var cs []goldenCase
	for n := 2; n <= 4; n++ {
		names := dist.PerProcess(n, "p", "q").Names
		for _, name := range props.Names {
			fs, err := props.Formula(name, n)
			if err != nil {
				panic(err)
			}
			cs = append(cs, goldenCase{"min", fs, names}, goldenCase{"prog", fs, names})
		}
	}
	wide := dist.PerProcess(8, "p").Names
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			for k := j + 1; k < 8; k++ {
				cs = append(cs, goldenCase{"min", fmt.Sprintf("F (P%d.p && P%d.p && P%d.p)", i, j, k), wide})
			}
		}
	}
	cs = append(cs,
		goldenCase{"min", "G (P0.p -> F (P1.p && P2.p))", wide},
		goldenCase{"prog", "G (P0.p -> F (P1.p && P2.p))", wide})

	// Declaration order is not name order here, nor in half of the random
	// cases below.
	example := []string{"x1>=5", "x1=10", "x2>=15"}
	cs = append(cs,
		goldenCase{"min", dist.RunningExampleProperty, example},
		goldenCase{"prog", dist.RunningExampleProperty, example})

	rng := rand.New(rand.NewSource(30))
	seven := dist.PerProcess(7, "p").Names
	reversed := slices.Clone(seven)
	slices.Reverse(reversed)
	for i := 0; i < 520; i++ {
		declared := seven
		if i%2 == 1 {
			declared = reversed
		}
		f := randomOver(rng, declared, 2+rng.Intn(4))
		cs = append(cs, goldenCase{"min", f.String(), declared})
		if i%4 < 2 {
			cs = append(cs, goldenCase{"prog", f.String(), declared})
		}
	}
	return cs
}

// randomOver draws a random formula reading at least two and at most k of
// the declared propositions, in its parsed form (so that the fixture's text
// parses back to the same tree).
func randomOver(rng *rand.Rand, declared []string, k int) *ltl.Formula {
	for {
		perm := rng.Perm(len(declared))
		subset := make([]string, k)
		for i := range subset {
			subset[i] = declared[perm[i]]
		}
		f := ltl.MustParse(ltl.RandomFormula(rng, 12, subset).String())
		if len(f.Props()) >= 2 {
			return f
		}
	}
}

// goldenLine renders a monitor as one fixture line: builder, formula,
// declared propositions, state count, verdicts, an FNV-64 of the whole δ
// table and every transition as src>dst:care/val, in Transitions() order.
func goldenLine(c goldenCase, m *automaton.Monitor) string {
	var verdicts strings.Builder
	h := fnv.New64a()
	var b [4]byte
	for q := 0; q < m.NumStates(); q++ {
		verdicts.WriteString(m.VerdictOf(q).String())
		for a := uint32(0); a < 1<<len(m.Props); a++ {
			binary.LittleEndian.PutUint32(b[:], uint32(m.Step(q, a)))
			h.Write(b[:])
		}
	}
	ts := make([]string, 0, len(m.Transitions()))
	for _, t := range m.Transitions() {
		ts = append(ts, fmt.Sprintf("%d>%d:%x/%x", t.Src, t.Dst, t.Guard.Care, t.Guard.Val))
	}
	return strings.Join([]string{
		c.builder, c.formula, strings.Join(c.props, ","),
		fmt.Sprint(m.NumStates()), verdicts.String(),
		fmt.Sprintf("%016x", h.Sum64()), strings.Join(ts, " "),
	}, "\t")
}

func buildCase(t *testing.T, c goldenCase) *automaton.Monitor {
	t.Helper()
	m, err := builders[c.builder](ltl.MustParse(c.formula), c.props)
	if err != nil {
		t.Fatalf("%s %q: %v", c.builder, c.formula, err)
	}
	return m
}

// TestBuildGolden rebuilds every machine of testdata/build.golden and
// requires it byte for byte: state numbering, δ, verdicts and the symbolic
// transitions with their order. Session snapshots fingerprint exactly these,
// so any change here would orphan stored checkpoints. Regenerate with
// go test ./internal/automaton -run TestBuildGolden -update, and only for a
// change that means to move the machines.
func TestBuildGolden(t *testing.T) {
	if *update {
		var sb strings.Builder
		for _, c := range goldenCases() {
			sb.WriteString(goldenLine(c, buildCase(t, c)))
			sb.WriteByte('\n')
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	lines := 0
	for sc.Scan() {
		want := sc.Text()
		cols := strings.SplitN(want, "\t", 4)
		if len(cols) != 4 {
			t.Fatalf("line %d: malformed", lines+1)
		}
		c := goldenCase{cols[0], cols[1], strings.Split(cols[2], ",")}
		if got := goldenLine(c, buildCase(t, c)); got != want {
			t.Errorf("line %d changed:\n got  %s\n want %s", lines+1, got, want)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines < len(goldenCases()) {
		t.Fatalf("fixture has %d lines, want %d", lines, len(goldenCases()))
	}
}
