package automaton_test

import (
	"testing"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/ltl"
	"decentmon/internal/props"
)

// settledStates lists the settled states of m, checking on the way that each
// is '?' and steps only into settled states.
func settledStates(t *testing.T, m *automaton.Monitor) []int {
	t.Helper()
	var out []int
	for q := 0; q < m.NumStates(); q++ {
		if !m.Settled(q) {
			continue
		}
		out = append(out, q)
		if m.VerdictOf(q) != automaton.Unknown {
			t.Errorf("settled state %d has verdict %v", q, m.VerdictOf(q))
		}
		for _, tr := range m.Out(q) {
			if !m.Settled(tr.Dst) {
				t.Errorf("settled state %d steps into unsettled state %d", q, tr.Dst)
			}
		}
	}
	return out
}

// TestSettleNeverConclusive: properties no finite trace decides settle every
// state, with both constructions.
func TestSettleNeverConclusive(t *testing.T) {
	for _, c := range []struct {
		formula string
		props   []string
	}{
		{"G F p", []string{"p"}},
		{"F G p", []string{"p"}},
		{"G (p -> F q)", []string{"p", "q"}},
		{"G (P0.p -> F (P1.p && P2.p))", dist.PerProcess(8, "p").Names},
	} {
		for name, build := range builders {
			m, err := build(ltl.MustParse(c.formula), c.props)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(settledStates(t, m)); got != m.NumStates() {
				t.Errorf("%s %s: %d of %d states settled, want all", name, c.formula, got, m.NumStates())
			}
		}
	}
}

// TestSettleNoneInChapter5: every '?' state of properties A–F can still reach
// ⊤ or ⊥, so none settles and the paper's workloads explore as before.
// -short stops at n = 4: n = 5 is most of the synthesis time.
func TestSettleNoneInChapter5(t *testing.T) {
	most := 5
	if testing.Short() {
		most = 4
	}
	for n := 2; n <= most; n++ {
		for _, name := range props.Names {
			for _, paper := range []bool{false, true} {
				m, err := props.Build(name, n, paper)
				if err != nil {
					t.Fatal(err)
				}
				if s := settledStates(t, m); len(s) != 0 {
					t.Errorf("%s at n = %d (paper shape %v): states %v settled, want none", name, n, paper, s)
				}
			}
		}
	}
}

// TestSettleMixed: in (P0.p U P1.p) || G F P2.p the initial '?' is live (P1.p
// still leads to ⊤), and the '?' states reached once P0.p and P1.p are both
// false are settled: only G F P2.p is left, which nothing finite decides.
func TestSettleMixed(t *testing.T) {
	names := []string{"P0.p", "P1.p", "P2.p"}
	for name, build := range builders {
		m, err := build(ltl.MustParse("(P0.p U P1.p) || G F P2.p"), names)
		if err != nil {
			t.Fatal(err)
		}
		q0 := m.Initial()
		if m.Settled(q0) {
			t.Errorf("%s: initial state settled", name)
		}
		reached := map[int]bool{}
		for _, p2 := range []bool{false, true} {
			q := m.Step(q0, m.Letter(map[string]bool{"P2.p": p2}))
			reached[q] = true
			if m.VerdictOf(q) != automaton.Unknown || !m.Settled(q) {
				t.Errorf("%s: state %d after !P0.p && !P1.p (P2.p %v) is %v, settled %v; want a settled '?'",
					name, q, p2, m.VerdictOf(q), m.Settled(q))
			}
		}
		want := 1 // the minimal machine merges the two
		if name == "prog" {
			want = 2
		}
		if len(reached) != want {
			t.Errorf("%s: %d states reached after !P0.p && !P1.p, want %d", name, len(reached), want)
		}
		if got := len(settledStates(t, m)); got != len(reached) {
			t.Errorf("%s: %d settled states, want the %d reached after !P0.p && !P1.p", name, got, len(reached))
		}
	}
}
