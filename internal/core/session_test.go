package core

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"decentmon/internal/dist"
	"decentmon/internal/vclock"
)

func newTestSession(t *testing.T, ts *dist.TraceSet, formula string, cfg SessionConfig) *Session {
	t.Helper()
	cfg.N = ts.N()
	cfg.Automaton = mustMonitor(t, formula, ts.Props.Names)
	cfg.Props = ts.Props
	cfg.Init = ts.InitialState()
	s, err := NewSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSessionMatchesRun pins the redesign's core invariant: feeding a
// session incrementally produces exactly the verdict set of the replay
// entry points (which the oracle tests pin in turn).
func TestSessionMatchesRun(t *testing.T) {
	ts := dist.RunningExample()
	mon := mustMonitor(t, dist.RunningExampleProperty, ts.Props.Names)
	want, err := Run(RunConfig{Traces: ts, Automaton: mon})
	if err != nil {
		t.Fatal(err)
	}

	s := newTestSession(t, ts, dist.RunningExampleProperty, SessionConfig{})
	src := ts.Stream()
	for {
		e, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if setString(got.Verdicts) != setString(want.Verdicts) {
		t.Errorf("session verdicts %s != replay %s", setString(got.Verdicts), setString(want.Verdicts))
	}
}

// TestSessionVerdictSubscription checks the incremental channel: conclusive
// detections arrive while the session is open, each with a monitor id and
// (where known) a consistent cut, and the channel closes after Close.
func TestSessionVerdictSubscription(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{N: 3, InternalPerProc: 8, CommMu: 3, PlantGoal: true, Seed: 3})
	f := propsAF(3)["B"]
	s := newTestSession(t, ts, f, SessionConfig{})
	src := ts.Stream()
	for {
		e, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	var events []VerdictEvent
	for ev := range s.Verdicts() { // closed by Close
		events = append(events, ev)
	}
	if len(events) == 0 {
		t.Fatal("no verdict events delivered")
	}
	sawConclusive := false
	seen := map[[2]int]bool{}
	for _, ev := range events {
		if ev.Monitor < 0 || ev.Monitor >= ts.N() {
			t.Errorf("verdict event from nonexistent monitor %d", ev.Monitor)
		}
		key := [2]int{ev.Monitor, ev.State}
		if seen[key] {
			t.Errorf("duplicate verdict event for monitor %d state %d", ev.Monitor, ev.State)
		}
		seen[key] = true
		if ev.Conclusive {
			sawConclusive = true
			if !res.Verdicts[ev.Verdict] {
				t.Errorf("conclusive event verdict %v missing from terminal set %v", ev.Verdict, res.VerdictList())
			}
		}
		if ev.Cut != nil && len(ev.Cut) != ts.N() {
			t.Errorf("verdict cut %v has wrong arity", ev.Cut)
		}
	}
	if !sawConclusive {
		t.Error("planted goal produced no conclusive verdict event")
	}
}

// TestSessionCancellation is the promptness acceptance: cancelling the
// session context must return from Feed and Close quickly even though the
// execution never ends. Run under -race in CI.
func TestSessionCancellation(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{N: 3, InternalPerProc: 2000, CommMu: 1, Seed: 9})
	ctx, cancel := context.WithCancel(context.Background())
	mon := mustMonitor(t, propsAF(3)["B"], ts.Props.Names)
	s, err := NewSession(ctx, SessionConfig{
		N: 3, Automaton: mon, Props: ts.Props, Init: ts.InitialState(),
	})
	if err != nil {
		t.Fatal(err)
	}
	fedErr := make(chan error, 1)
	go func() {
		src := ts.Stream()
		for {
			e, err := src.Next()
			if err == io.EOF {
				fedErr <- nil
				return
			}
			if err != nil {
				fedErr <- err
				return
			}
			if err := s.Feed(e); err != nil {
				fedErr <- err
				return
			}
		}
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()

	done := make(chan struct{})
	var closeErr error
	go func() {
		_, closeErr = s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return promptly after cancellation")
	}
	if !errors.Is(closeErr, context.Canceled) {
		t.Errorf("Close error = %v, want context.Canceled", closeErr)
	}
	select {
	case err := <-fedErr:
		// The feeder either finished before the cancel or was cut off by it.
		if err != nil && !errors.Is(err, context.Canceled) &&
			err.Error() != "core: session closed" && err.Error() != "core: process 0 already ended" {
			t.Errorf("feeder error = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Feed did not return promptly after cancellation")
	}
}

// TestSessionCancelledBeforeFeed: a session whose context is already dead
// fails fast on every entry point.
func TestSessionCancelledBeforeFeed(t *testing.T) {
	ts := dist.RunningExample()
	ctx, cancel := context.WithCancel(context.Background())
	mon := mustMonitor(t, dist.RunningExampleProperty, ts.Props.Names)
	s, err := NewSession(ctx, SessionConfig{
		N: 2, Automaton: mon, Props: ts.Props, Init: ts.InitialState(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	e := ts.Traces[0].Events[0]
	// The monitors race the cancellation; both outcomes are context errors.
	if err := s.Feed(e); err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("Feed after cancel = %v", err)
	}
	if _, err := s.Close(); !errors.Is(err, context.Canceled) {
		t.Errorf("Close after cancel = %v, want context.Canceled", err)
	}
	// Idempotent: the second Close returns the same outcome.
	if _, err := s.Close(); !errors.Is(err, context.Canceled) {
		t.Errorf("second Close = %v", err)
	}
}

// TestSessionMisuse covers the guard rails: bad config, feeding unknown or
// ended processes, feeding after Close.
func TestSessionMisuse(t *testing.T) {
	ts := dist.RunningExample()
	mon := mustMonitor(t, dist.RunningExampleProperty, ts.Props.Names)
	base := SessionConfig{N: 2, Automaton: mon, Props: ts.Props, Init: ts.InitialState()}

	bad := base
	bad.N = 0
	if _, err := NewSession(nil, bad); err == nil {
		t.Error("zero-process session accepted")
	}
	bad = base
	bad.Automaton = nil
	if _, err := NewSession(nil, bad); err == nil {
		t.Error("nil automaton accepted")
	}
	bad = base
	bad.Init = nil
	if _, err := NewSession(nil, bad); err == nil {
		t.Error("mis-sized init accepted")
	}

	s, err := NewSession(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(nil); err == nil {
		t.Error("nil event accepted")
	}
	if err := s.Feed(&dist.Event{Proc: 7}); err == nil {
		t.Error("event of nonexistent process accepted")
	}
	// The event record has no room for these, so the gate refuses them.
	for name, e := range map[string]*dist.Event{
		"three-entry clock":        {Proc: 0, SN: 1, Peer: -1, VC: vclock.VC{1, 0, 0}},
		"clock disagreeing on sn":  {Proc: 0, SN: 1, Peer: -1, VC: vclock.VC{2, 0}},
		"event of an unknown kind": {Proc: 0, SN: 1, Peer: -1, VC: vclock.VC{1, 0}, Type: 9},
	} {
		if err := s.Feed(e); err == nil {
			t.Errorf("%s accepted by Feed", name)
		}
		var fs FeedScratch
		if err := s.FeedRun(&fs, []*dist.Event{ts.Traces[0].Events[0], e}); err == nil {
			t.Errorf("%s accepted by FeedRun", name)
		}
	}
	if fed := s.Fed()[0]; fed != 0 {
		t.Errorf("refused FeedRun windows fed %d events; a refused window feeds nothing", fed)
	}
	if err := s.End(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(ts.Traces[0].Events[0]); err == nil {
		t.Error("feed after End accepted")
	}
	if err := s.End(9); err == nil {
		t.Error("ending nonexistent process accepted")
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(ts.Traces[1].Events[0]); err == nil {
		t.Error("feed after Close accepted")
	}
}

// feedAll feeds a whole execution through Session.Feed as fast as the gate
// admits and returns the largest KnowledgePeak over the monitors.
func feedAll(t *testing.T, ts *dist.TraceSet, cfg SessionConfig) int {
	t.Helper()
	s := newTestSession(t, ts, gcProperty, cfg)
	src := ts.Stream()
	for {
		e, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	for _, m := range res.Metrics {
		peak = max(peak, m.KnowledgePeak)
	}
	return peak
}

// TestSessionBackpressureBounded feeds a collectible execution and one four
// times as long, unpaced, and checks what backpressure promises: the retained
// backlog does not grow with the trace and stays far below it. It does not
// compare the peak with MaxLag itself: a monitor keeps its own events until
// every peer's need-floor has passed them, and floors travel piggybacked or
// every floorAnnounceEvery events, so the backlog has a structural part (some
// hundreds of events here) that no lag bound below it can remove.
func TestSessionBackpressureBounded(t *testing.T) {
	short, long := dist.Generate(gcWorkload(500)), dist.Generate(gcWorkload(2000))
	cfg := SessionConfig{MaxLag: 64}
	peakShort, peakLong := feedAll(t, short, cfg), feedAll(t, long, cfg)
	if peakLong > 2*peakShort {
		t.Errorf("knowledge peak grew with the trace: %d events -> peak %d, %d events -> peak %d",
			short.TotalEvents(), peakShort, long.TotalEvents(), peakLong)
	}
	if peakLong > long.TotalEvents()/8 {
		t.Errorf("knowledge peak %d is not far below the %d events fed", peakLong, long.TotalEvents())
	}
	t.Logf("peak %d over %d events, %d over %d", peakShort, short.TotalEvents(), peakLong, long.TotalEvents())
}

// TestSessionGateBanksNoProgress pins the gate's credit cap on gauges set by
// hand (the monitors are built, never started). Progress overcounts
// admissions — a fed event is collected once by every monitor that fetched it
// — so a healthy run piles up credits nobody spends; if they were all
// honoured, a feeder could flood a stalled pipeline with the whole surplus.
// At the bound, old progress buys one lag bound of admissions and no more.
func TestSessionGateBanksNoProgress(t *testing.T) {
	ts := dist.Generate(gcWorkload(1))
	const maxLag = 8
	s, err := buildSession(context.Background(), SessionConfig{
		N: ts.N(), Automaton: mustMonitor(t, gcProperty, ts.Props.Names),
		Props: ts.Props, Init: ts.InitialState(), MaxLag: maxLag,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.nw.Close()
	defer s.cancel()
	s.monitors[0].lagGauge.Store(maxLag)
	s.monitors[1].progressGauge.Store(100 * maxLag)
	if err := s.admitN(maxLag); err != nil {
		t.Fatal(err)
	}
	if left := s.progress() - s.lastProgress; left != 0 {
		t.Errorf("gate still holds %d credits after one lag bound of admissions", left)
	}
}
