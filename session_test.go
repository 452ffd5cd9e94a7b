package decentmon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"
	"time"

	"decentmon/internal/dist"
	"decentmon/internal/vclock"
)

// replayThroughHandles drives a recorded trace set through a live session's
// Process handles in global timestamp order: sends yield tokens consumed by
// the matching receives, exactly as a real application would wire them. The
// stamper recomputes every clock — equality with the replay entry points
// shows the live path and the recorded path are the same machine.
func replayThroughHandles(t *testing.T, s *Session, ts *TraceSet) {
	t.Helper()
	src := ts.Stream()
	handles := make([]*Process, ts.N())
	for i := range handles {
		handles[i] = s.Process(i)
	}
	tokens := map[int]MsgToken{}
	for {
		e, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		h := handles[e.Proc]
		switch e.Type {
		case dist.Internal:
			err = h.Internal(e.State)
		case dist.Send:
			var tok MsgToken
			tok, err = h.Send(e.Peer, e.State)
			tokens[e.MsgID] = tok
		case dist.Recv:
			tok, ok := tokens[e.MsgID]
			if !ok {
				t.Fatalf("recv of message %d before its send", e.MsgID)
			}
			err = h.Recv(tok, e.State)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range handles {
		if err := h.End(); err != nil {
			t.Fatal(err)
		}
	}
}

func verdictKey(m map[Verdict]bool) string {
	var parts []string
	for v := range m {
		parts = append(parts, v.String())
	}
	sort.Strings(parts)
	return fmt.Sprint(parts)
}

// TestSessionEqualsRunOnRunningExample: the live-handle session reproduces
// the replay verdict set on the paper's running example.
func TestSessionEqualsRunOnRunningExample(t *testing.T) {
	ts := RunningExample()
	spec := MustCompile(RunningExampleProperty, ts.Props)
	want, err := Run(spec, ts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(spec, ts.N(), WithInitialState(ts.InitialState()))
	if err != nil {
		t.Fatal(err)
	}
	replayThroughHandles(t, s, ts)
	got, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if verdictKey(got.Verdicts) != verdictKey(want.Verdicts) {
		t.Errorf("session verdicts %v != replay %v", got.VerdictList(), want.VerdictList())
	}
}

// TestSessionEqualsRunAcrossPropertiesAndTopologies is the redesign's
// equivalence acceptance: for all six case-study properties and every
// communication topology, a live-handle session produces exactly the
// verdict set of the replay entry points (which the oracle tests pin).
func TestSessionEqualsRunAcrossPropertiesAndTopologies(t *testing.T) {
	topos := []Topology{TopoUniform, TopoRing, TopoStar, TopoBroadcast, TopoClustered}
	for _, topo := range topos {
		ts := Generate(GenConfig{
			N: 3, InternalPerProc: 6,
			CommMu: 2, CommSigma: 0.5,
			Topology:  topo,
			TrueProbs: map[string]float64{"p": 0.4, "q": 0.4},
			PlantGoal: true, Seed: 11,
		})
		for _, name := range []string{"A", "B", "C", "D", "E", "F"} {
			f, err := CaseStudyProperty(name, 3)
			if err != nil {
				t.Fatal(err)
			}
			spec := MustCompile(f, ts.Props)
			want, err := Run(spec, ts)
			if err != nil {
				t.Fatalf("topo %v prop %s replay: %v", topo, name, err)
			}
			s, err := NewSession(spec, ts.N(), WithInitialState(ts.InitialState()))
			if err != nil {
				t.Fatal(err)
			}
			replayThroughHandles(t, s, ts)
			got, err := s.Close()
			if err != nil {
				t.Fatalf("topo %v prop %s session: %v", topo, name, err)
			}
			if verdictKey(got.Verdicts) != verdictKey(want.Verdicts) {
				t.Errorf("topo %v prop %s: session %v != replay %v",
					topo, name, got.VerdictList(), want.VerdictList())
			}
		}
	}
}

// TestSessionLiveVerdictSubscription drives a tiny live execution and reads
// the conclusive detection off the channel before Close.
func TestSessionLiveVerdictSubscription(t *testing.T) {
	spec := MustCompile("F (P0.p && P1.p)", PerProcessProps(2, "p"))
	s, err := NewSession(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	p0, p1 := s.Process(0), s.Process(1)
	if err := p0.Internal(1); err != nil {
		t.Fatal(err)
	}
	tok, err := p0.Send(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Recv(tok, 1); err != nil {
		t.Fatal(err)
	}
	// Both propositions hold at the cut (2,1): some monitor must prove ⊤
	// online, before the execution even ends.
	select {
	case ev := <-s.Verdicts():
		if ev.Verdict != Top || !ev.Conclusive {
			t.Errorf("first event %+v, want conclusive ⊤", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no verdict event before close")
	}
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdicts[Top] {
		t.Errorf("terminal verdicts %v missing ⊤", res.VerdictList())
	}
}

// TestSessionCancellationFacade: cancelling the WithContext context returns
// from handle calls and Close promptly (run under -race in CI).
func TestSessionCancellationFacade(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	spec := MustCompile("F (P0.p && P1.p)", PerProcessProps(2, "p"))
	s, err := NewSession(spec, 2, WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Process(0).Internal(1); err != nil {
		t.Fatal(err)
	}
	cancel()
	done := make(chan error, 1)
	go func() {
		_, err := s.Close()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Close after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after cancellation")
	}
}

// TestRunBoundedMatchesPath: RunBounded produces an oracle-member verdict
// and honors WithContext.
func TestRunBoundedMatchesPath(t *testing.T) {
	ts := Generate(GenConfig{N: 3, InternalPerProc: 6, CommMu: 2, PlantGoal: true, Seed: 4})
	spec := MustCompile("F (P0.p && P1.p && P2.p)", ts.Props)
	res, err := RunBounded(spec, ts.Stream())
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Oracle(spec, ts)
	if err != nil {
		t.Fatal(err)
	}
	if !oracle.VerdictSet()[res.Verdict] {
		t.Errorf("path verdict %v outside oracle set %v", res.Verdict, oracle.Verdicts)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunBounded(spec, ts.Stream(), WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled RunBounded = %v, want context.Canceled", err)
	}
}

// TestSessionOptionValidation: incompatible combinations fail loudly.
func TestSessionOptionValidation(t *testing.T) {
	spec := MustCompile("F (P0.p && P1.p)", PerProcessProps(2, "p"))
	ts := Generate(GenConfig{N: 2, InternalPerProc: 3, CommMu: 2, Seed: 1, Suffixes: []string{"p"}})

	nw := NewChanNetwork(2)
	defer nw.Close()
	for name, opt := range map[string]Option{
		"WithNetwork":         WithNetwork(nw),
		"WithoutFinalization": WithoutFinalization(),
		"WithPace":            WithPace(1),
		"WithInitialState":    WithInitialState(GlobalState{0, 0}),
		"WithValidation":      WithValidation(),
	} {
		if _, err := RunBounded(spec, ts.Stream(), opt); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("RunBounded with %s: %v, want a refusal naming it", name, err)
		}
	}
	if _, err := Run(spec, ts, WithInitialState(GlobalState{0, 0})); err == nil {
		t.Error("Run accepted WithInitialState()")
	}
	if _, err := NewSession(spec, 2, WithPace(1)); err == nil {
		t.Error("NewSession accepted WithPace()")
	}
	if _, err := NewSession(spec, 2, WithInitialState(GlobalState{1})); err == nil {
		t.Error("mis-sized initial state accepted")
	}
	if _, err := NewSession(spec, 1); err == nil {
		t.Error("session smaller than the proposition space accepted")
	}
	if _, err := NewSession(nil, 2); err == nil {
		t.Error("nil spec accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Process(9) did not panic")
			}
		}()
		s, err := NewSession(spec, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.Process(9)
	}()
}

// handSource is a user-written EventSource: its header and events reach
// RunBounded without passing through a trace codec's checks.
type handSource struct {
	pm   *PropMap
	n    int
	init GlobalState
	evs  []*Event
}

func (h *handSource) Props() *PropMap   { return h.pm }
func (h *handSource) N() int            { return h.n }
func (h *handSource) Init() GlobalState { return h.init }
func (h *handSource) Close() error      { return nil }
func (h *handSource) Next() (*Event, error) {
	if len(h.evs) == 0 {
		return nil, io.EOF
	}
	e := h.evs[0]
	h.evs = h.evs[1:]
	return e, nil
}

// TestRunBoundedRefusesMalformedEvents: the path evaluator applies the
// decentralized engine's admission rule to every event — an n-wide clock
// whose own entry is the sequence number — instead of evaluating a cut the
// event does not describe.
func TestRunBoundedRefusesMalformedEvents(t *testing.T) {
	spec := MustCompile("F (P0.p && P1.p)", PerProcessProps(2, "p"))
	good := &Event{Proc: 0, SN: 1, Peer: -1, State: 1, VC: vclock.VC{1, 0}}
	if _, err := RunBounded(spec, &handSource{pm: spec.Props, n: 2, init: GlobalState{0, 0}, evs: []*Event{good}}); err != nil {
		t.Fatalf("well-formed event refused: %v", err)
	}
	for name, e := range map[string]*Event{
		"1-entry clock":           {Proc: 0, SN: 1, Peer: -1, State: 1, VC: vclock.VC{1}},
		"3-entry clock":           {Proc: 0, SN: 1, Peer: -1, State: 1, VC: vclock.VC{1, 0, 0}},
		"clock disagrees with SN": {Proc: 0, SN: 1, Peer: -1, State: 1, VC: vclock.VC{2, 0}},
		"nil event":               nil,
	} {
		if _, err := RunBounded(spec, &handSource{pm: spec.Props, n: 2, init: GlobalState{0, 0}, evs: []*Event{e}}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestRunBoundedChecksSourceHeader: a hand-written source's header is held
// to a session's rules — a nil initial state is all-zero, and a wrong-width
// one, no processes, or a proposition owned by a process the source lacks
// are refused rather than indexed past.
func TestRunBoundedChecksSourceHeader(t *testing.T) {
	spec := MustCompile("F (P0.p && P1.p)", PerProcessProps(2, "p"))
	good := &Event{Proc: 0, SN: 1, Peer: -1, State: 1, VC: vclock.VC{1, 0}}
	res, err := RunBounded(spec, &handSource{pm: spec.Props, n: 2, evs: []*Event{good}})
	if err != nil {
		t.Fatalf("nil initial state refused: %v", err)
	}
	if res.Events != 1 || res.Verdict != Unknown {
		t.Errorf("nil initial state: %d events, verdict %v; want 1 and ?", res.Events, res.Verdict)
	}
	for name, h := range map[string]*handSource{
		"1-entry initial state": {pm: spec.Props, n: 2, init: GlobalState{0}, evs: []*Event{good}},
		"3-entry initial state": {pm: spec.Props, n: 2, init: GlobalState{0, 0, 0}, evs: []*Event{good}},
		"no processes":          {pm: spec.Props, n: 0},
		"owner outside source":  {pm: spec.Props, n: 1, evs: []*Event{{Proc: 0, SN: 1, Peer: -1, State: 1, VC: vclock.VC{1}}}},
	} {
		if _, err := RunBounded(spec, h); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
