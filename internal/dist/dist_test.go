package dist

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"decentmon/internal/boolfn"
	"decentmon/internal/vclock"
)

func TestPerProcessLayout(t *testing.T) {
	pm := PerProcess(3, "p", "q")
	wantNames := []string{"P0.p", "P0.q", "P1.p", "P1.q", "P2.p", "P2.q"}
	if pm.Len() != len(wantNames) {
		t.Fatalf("Len = %d", pm.Len())
	}
	for i, w := range wantNames {
		if pm.Names[i] != w {
			t.Errorf("Names[%d] = %q, want %q", i, pm.Names[i], w)
		}
		if pm.Owner[i] != i/2 {
			t.Errorf("Owner[%d] = %d, want %d", i, pm.Owner[i], i/2)
		}
		if pm.LocalBit[i] != i%2 {
			t.Errorf("LocalBit[%d] = %d, want %d", i, pm.LocalBit[i], i%2)
		}
	}
}

func TestLetterEncoding(t *testing.T) {
	pm, err := PerProcess(2, "p", "q").Restrict([]string{"P0.p", "P0.q", "P1.p", "P1.q"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		g    GlobalState
		want uint32
	}{
		{GlobalState{0, 0}, 0b0000},
		{GlobalState{0b01, 0}, 0b0001}, // P0.p
		{GlobalState{0b10, 0}, 0b0010}, // P0.q
		{GlobalState{0, 0b11}, 0b1100}, // P1.p, P1.q
		{GlobalState{0b11, 0b01}, 0b0111},
	}
	for _, c := range cases {
		if got := pm.Letter(c.g); got != c.want {
			t.Errorf("Letter(%v) = %04b, want %04b", c.g, got, c.want)
		}
	}
}

// TestPropMapRestrict: the restricted map lists the named propositions in the
// given order, each at its owner and local bit, so that its letter bit i is
// names[i]'s truth value; an undeclared name is refused by name.
func TestPropMapRestrict(t *testing.T) {
	pm := PerProcess(3, "p", "q")
	r, err := pm.Restrict([]string{"P2.q", "P0.p", "P1.q"})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(r.Names, []string{"P2.q", "P0.p", "P1.q"}) || !slices.Equal(r.Owner, []int{2, 0, 1}) || !slices.Equal(r.LocalBit, []int{1, 0, 1}) {
		t.Fatalf("restricted to %v owned by %v at %v", r.Names, r.Owner, r.LocalBit)
	}
	// P0: p; P1: q; P2: p and q.
	if got := r.Letter(GlobalState{0b01, 0b10, 0b11}); got != 0b111 {
		t.Errorf("letter %03b, want 111", got)
	}
	if got := r.Letter(GlobalState{0b10, 0b01, 0b01}); got != 0 {
		t.Errorf("letter %03b, want 000", got)
	}
	if _, err := pm.Restrict([]string{"P0.p", "P3.p"}); err == nil || !strings.Contains(err.Error(), `"P3.p"`) {
		t.Errorf("undeclared name: %v, want an error naming it", err)
	}
	// A letter is a uint32 and a monitor reads at most boolfn.MaxVars
	// propositions: Restrict takes that many names and refuses one more.
	wide := PerProcess(boolfn.MaxVars+1, "p")
	if _, err := wide.Restrict(wide.Names[:boolfn.MaxVars]); err != nil {
		t.Errorf("%d names: %v", boolfn.MaxVars, err)
	}
	if _, err := wide.Restrict(wide.Names); err == nil || !strings.Contains(err.Error(), "more than the supported maximum") {
		t.Errorf("%d names: %v, want a refusal", boolfn.MaxVars+1, err)
	}
}

func TestPropMapAddErrors(t *testing.T) {
	pm := NewPropMap()
	if err := pm.Add("a", 0); err != nil {
		t.Fatal(err)
	}
	if err := pm.Add("a", 1); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := pm.Add("", 0); err == nil {
		t.Error("empty name accepted")
	}
	if err := pm.Add("b", -1); err == nil {
		t.Error("negative owner accepted")
	}
	// A process owns at most MaxLocalProps propositions, one bit of its
	// local state each; the space as a whole has no such bound.
	full := PerProcess(2*MaxLocalProps, "p")
	for i := 1; i < MaxLocalProps; i++ {
		full.MustAdd(fmt.Sprintf("P0.x%d", i), 0)
	}
	if got := full.LocalBit[full.Len()-1]; got != MaxLocalProps-1 {
		t.Errorf("process 0's %dth proposition at bit %d", MaxLocalProps, got)
	}
	if err := full.Add("P0.overflow", 0); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("process 0 already owns %d", MaxLocalProps)) {
		t.Errorf("33rd proposition of one process: %v, want a refusal", err)
	}
	if err := full.Add("P1.x", 1); err != nil {
		t.Errorf("second proposition of process 1 refused: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAdd did not panic on error")
		}
	}()
	pm.MustAdd("a", 2)
}

func TestEventTypeStrings(t *testing.T) {
	if Internal.String() != "internal" || Send.String() != "send" || Recv.String() != "recv" {
		t.Error("event type strings wrong")
	}
	if !strings.Contains(EventType(9).String(), "9") {
		t.Error("unknown event type string wrong")
	}
}

func TestTraceSetAccessors(t *testing.T) {
	ts := RunningExample()
	if ts.N() != 2 || ts.TotalEvents() != 8 {
		t.Fatalf("N=%d events=%d", ts.N(), ts.TotalEvents())
	}
	init := ts.InitialState()
	if len(init) != 2 || init[0] != 0 || init[1] != 0 {
		t.Errorf("initial state %v", init)
	}
	// InitialState must hand out independent copies.
	init[0] = 7
	if again := ts.InitialState(); again[0] != 0 {
		t.Error("InitialState aliases internal storage")
	}
	if !ts.FinalCut().Equal(vclock.VC{4, 4}) {
		t.Errorf("final cut %v", ts.FinalCut())
	}
	g := ts.StateAtCut(vclock.VC{3, 1})
	if g[0] != 0b11 || g[1] != 0 {
		t.Errorf("state at <3,1> = %v", g)
	}
	if ts.Traces[0].StateAt(0) != ts.Traces[0].Init {
		t.Error("StateAt(0) != Init")
	}
	cl := g.Clone()
	cl[0] = 0
	if g[0] != 0b11 {
		t.Error("Clone aliases storage")
	}
}

func TestRunningExampleValid(t *testing.T) {
	ts := RunningExample()
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}
	// The recv of m1 must causally depend on P0's send (Fig. 2.1 arrows).
	if !ts.Traces[0].Events[0].VC.Less(ts.Traces[1].Events[0].VC) {
		t.Error("m1 recv does not follow its send")
	}
	if !ts.Traces[1].Events[3].VC.Less(ts.Traces[0].Events[3].VC) {
		t.Error("m2 recv does not follow its send")
	}
}

func TestValidateRejections(t *testing.T) {
	breakIt := func(mutate func(*TraceSet)) error {
		ts := RunningExample()
		mutate(ts)
		return ts.Validate()
	}
	cases := []struct {
		name   string
		mutate func(*TraceSet)
	}{
		{"nil props", func(ts *TraceSet) { ts.Props = nil }},
		{"wrong trace label", func(ts *TraceSet) { ts.Traces[0].Proc = 1 }},
		{"wrong event proc", func(ts *TraceSet) { ts.Traces[0].Events[1].Proc = 1 }},
		{"gapped sn", func(ts *TraceSet) { ts.Traces[0].Events[1].SN = 5 }},
		{"short clock", func(ts *TraceSet) { ts.Traces[0].Events[1].VC = vclock.VC{2} }},
		{"own component drift", func(ts *TraceSet) { ts.Traces[0].Events[1].VC = vclock.VC{3, 0} }},
		{"non-monotone clock", func(ts *TraceSet) { ts.Traces[1].Events[1].VC = vclock.VC{0, 2} }},
		{"dangling reference", func(ts *TraceSet) { ts.Traces[0].Events[3].VC = vclock.VC{4, 9} }},
		{"time regression", func(ts *TraceSet) { ts.Traces[0].Events[2].Time = 0.1 }},
		{"self send", func(ts *TraceSet) { ts.Traces[0].Events[0].Peer = 0 }},
		{"duplicate msgid", func(ts *TraceSet) { ts.Traces[1].Events[3].MsgID = 1 }},
		{"wrong sender named", func(ts *TraceSet) { ts.Traces[1].Events[0].Peer = 1 }},
		{"recv before send", func(ts *TraceSet) { ts.Traces[1].Events[0].VC = vclock.VC{0, 1} }},
		{"owner out of range", func(ts *TraceSet) { ts.Props.Owner[2] = 5 }},
		{"nil trace", func(ts *TraceSet) { ts.Traces[1] = nil }},
		{"message received twice", func(ts *TraceSet) {
			// Turn P1's final send into a second delivery of m1.
			e := ts.Traces[1].Events[3]
			e.Type, e.Peer, e.MsgID = Recv, 0, 1
			ts.Traces[0].Events[3].Type = Internal // drop the now-dangling recv of m2
			ts.Traces[0].Events[3].MsgID = 0
		}},
		{"NaN timestamp", func(ts *TraceSet) { ts.Traces[0].Events[0].Time = math.NaN() }},
		{"nil event", func(ts *TraceSet) { ts.Traces[1].Events[2] = nil }},
	}
	for _, c := range cases {
		if err := breakIt(c.mutate); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if err := RunningExample().Validate(); err != nil {
		t.Errorf("pristine example rejected: %v", err)
	}

	// No writer produces what the readers refuse: SaveFile refuses the
	// NaN-stamped set before creating its file.
	ts := RunningExample()
	ts.Traces[0].Events[0].Time = math.NaN()
	path := filepath.Join(t.TempDir(), "x.dmtb")
	if err := ts.SaveFile(path); err == nil || !strings.Contains(err.Error(), "process 0 event 1 has a NaN timestamp") {
		t.Errorf("SaveFile of a NaN-stamped set: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("SaveFile left a file behind after refusing the set: %v", err)
	}
}
