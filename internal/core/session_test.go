package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"

	"decentmon/internal/dist"
	"decentmon/internal/vclock"
)

func newTestSession(t *testing.T, ts *dist.TraceSet, formula string) *Session {
	t.Helper()
	s, err := NewSession(context.Background(), SessionConfig{
		N: ts.N(), Automaton: mustMonitor(t, formula, ts.Props.Names),
		Props: ts.Props, Init: ts.InitialState(),
	})
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

	s := newTestSession(t, ts, dist.RunningExampleProperty)
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
	s := newTestSession(t, ts, f)
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
// fails fast on every entry point, even while its feed queues have room.
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
	if err := s.Feed(e); !errors.Is(err, context.Canceled) {
		t.Errorf("Feed after cancel = %v, want context.Canceled", err)
	}
	var sc FeedScratch
	if err := s.FeedRun(&sc, []*dist.Event{e}); !errors.Is(err, context.Canceled) {
		t.Errorf("FeedRun after cancel = %v, want context.Canceled", err)
	}
	if _, err := s.Close(); !errors.Is(err, context.Canceled) {
		t.Errorf("Close after cancel = %v, want context.Canceled", err)
	}
	// Idempotent: the second Close returns the same outcome.
	if _, err := s.Close(); !errors.Is(err, context.Canceled) {
		t.Errorf("second Close = %v", err)
	}
}

// TestSessionCancelRacesFeeders drives the close protocol (stopMonitors) from
// every side at once. Four feeders, one per process, hand their process's
// events over in windows (FeedRun) and one at a time (Feed), wait for the
// session to be done and then End their process, while the session is
// cancelled at a seeded random instant: through the parent context
// ("parent"); through the parent with process 0's queue filled before the
// monitors start, so its feeder begins blocked, and with the monitors started
// before or after the cancel ("blocked"); and by a monitor that fails on a
// malformed message, which cancels the session itself ("failing"). Every call
// returns nil or context.Canceled, nothing is enqueued once the session is
// done (End included), and Close returns within 5 s: with the cancellation,
// or with the monitor's failure, which collect reports ahead of it. A queue
// closed while a send to it could still happen panics the test binary with
// "send on closed channel".
func TestSessionCancelRacesFeeders(t *testing.T) {
	ts := dist.Generate(gcWorkload(300))
	cfg := SessionConfig{
		N: ts.N(), Automaton: mustMonitor(t, propsAF(ts.N())["B"], ts.Props.Names),
		Props: ts.Props, Init: ts.InitialState(),
	}
	for _, mode := range []string{"parent", "blocked", "failing"} {
		t.Run(mode, func(t *testing.T) {
			for seed := uint64(1); seed <= 6; seed++ {
				raceCancelFeeders(t, ts, cfg, mode, rand.New(rand.NewPCG(seed, 0)))
			}
		})
	}
}

func raceCancelFeeders(t *testing.T, ts *dist.TraceSet, cfg SessionConfig, mode string, rng *rand.Rand) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := buildSession(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	from := make([]int, ts.N())
	if mode == "blocked" {
		for _, e := range ts.Traces[0].Events[:feedQueue] {
			if err := s.Feed(e); err != nil {
				t.Fatal(err)
			}
		}
		from[0] = feedQueue
	} else {
		s.launch()
	}
	errs := make(chan error, 2*ts.N())
	var wg sync.WaitGroup
	for p := range ts.N() {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var fs FeedScratch
			own := ts.Traces[p].Events
			for i := from[p]; i < len(own); {
				var err error
				if k := min(1+i%5, len(own)-i); k > 1 {
					err, i = s.FeedRun(&fs, own[i:i+k]), i+k
				} else {
					err, i = s.Feed(own[i]), i+1
				}
				if err != nil {
					errs <- err
					break
				}
			}
			<-s.ctx.Done()
			if err := s.End(p); err != context.Canceled {
				errs <- fmt.Errorf("End(%d) after the cancel = %v, want %v", p, err, context.Canceled)
			}
		}(p)
	}
	pause := func() { time.Sleep(time.Duration(rng.Int64N(int64(2 * time.Millisecond)))) }
	switch mode {
	case "parent":
		pause()
		cancel()
	case "blocked":
		if rng.IntN(2) == 0 {
			pause()
			s.launch()
			pause()
			cancel()
		} else {
			pause()
			cancel()
			pause()
			s.launch()
		}
	case "failing":
		pause()
		if err := s.nw.Endpoint(1).Send(0, []byte{0xff}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-s.ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("the session was not done 5 s after it was doomed")
	}
	// With every feed lock taken once the context is done, no send is in
	// flight, and none may start: the count of items enqueued is final.
	for p := range s.feedMu {
		s.feedMu[p].Lock()
	}
	enqueued := s.feedItems.Load()
	for p := range s.feedMu {
		s.feedMu[p].Unlock()
	}
	fed := make(chan struct{})
	go func() { wg.Wait(); close(fed) }()
	select {
	case <-fed:
	case <-time.After(5 * time.Second):
		t.Fatal("feeders did not return within 5 s of the cancel")
	}
	close(errs)
	for err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: %v, want nil or %v", mode, err, context.Canceled)
		}
	}
	closed := make(chan error, 1)
	go func() { _, err := s.Close(); closed <- err }()
	select {
	case err := <-closed:
		if mode == "failing" {
			if err == nil || !strings.Contains(err.Error(), "monitor 0 failed") {
				t.Errorf("Close = %v, want monitor 0's failure", err)
			}
		} else if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Close = %v, want %v", mode, err, context.Canceled)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return within 5 s of the cancel")
	}
	if got := s.feedItems.Load(); got != enqueued {
		t.Errorf("%s: %d feed items enqueued after the session was done", mode, got-enqueued)
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
	// The event record has no room for these, so checkEvent refuses them.
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

// TestSessionRefusesClocksOfMissingEvents: an execution whose clocks do not
// describe it gets an error from Close, never a verdict. Feed checks an
// event's shape only; what is wrong here shows against the rest of the
// execution. Process 0's receive names event 5 of process 1, which ends after
// one event, and is refused once the totals are known, whatever ϕ reads; an
// own event whose clock does not dominate its predecessor's is refused as it
// arrives.
func TestSessionRefusesClocksOfMissingEvents(t *testing.T) {
	pm := dist.PerProcess(2, "p")
	forged := []*dist.Event{
		{Proc: 0, SN: 1, Type: dist.Recv, Peer: 1, MsgID: 1, State: 1, VC: vclock.VC{1, 5}},
		{Proc: 1, SN: 1, Type: dist.Internal, Peer: -1, State: 1, VC: vclock.VC{0, 1}},
	}
	regressing := []*dist.Event{
		{Proc: 0, SN: 1, Type: dist.Internal, Peer: -1, State: 1, VC: vclock.VC{1, 1}},
		{Proc: 0, SN: 2, Type: dist.Internal, Peer: -1, VC: vclock.VC{2, 0}},
		{Proc: 1, SN: 1, Type: dist.Internal, Peer: -1, State: 1, VC: vclock.VC{0, 1}},
	}
	for _, tc := range []struct {
		formula string
		evs     []*dist.Event
		want    string
	}{
		{"G (P0.p -> F P1.p)", forged, "process 0 references event 5 of process 1, which ended after 1"},
		{"(P0.p U P1.p)", forged, "process 0 references event 5 of process 1, which ended after 1"},
		{"F (P0.p && P1.p)", forged, "process 0 references event 5 of process 1, which ended after 1"},
		{"F (P0.p && P1.p)", regressing, "event 2 of process 0 has clock <2,0>, which does not dominate its predecessor's <1,1>"},
	} {
		s, err := NewSession(context.Background(), SessionConfig{
			N: 2, Automaton: mustMonitor(t, tc.formula, pm.Names), Props: pm, Init: make(dist.GlobalState, 2),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range tc.evs {
			if err := s.Feed(e); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.Close()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			var got string
			if res != nil {
				got = setString(res.Verdicts)
			}
			t.Errorf("%s: Close returned {%s}, %v; want an error saying %q", tc.formula, got, err, tc.want)
		}
		// And on every schedule the driver picks.
		ts := &dist.TraceSet{Props: pm, Traces: []*dist.Trace{{Proc: 0}, {Proc: 1}}}
		for _, e := range tc.evs {
			ts.Traces[e.Proc].Events = append(ts.Traces[e.Proc].Events, e)
		}
		for _, values := range []bool{true, false} {
			for seed := int64(1); seed <= schedSeeds; seed++ {
				d := newSchedDriver(t, ts, s.cfg.Automaton, false, values, seed)
				if err := d.run(); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s, values %v, seed %d: the driver's run returned %v; want an error saying %q", tc.formula, values, seed, err, tc.want)
				}
			}
		}
	}
}

// feedAll feeds a whole execution through Session.Feed as fast as the feed
// queues take it and returns the largest KnowledgePeak over the monitors.
func feedAll(t *testing.T, ts *dist.TraceSet) int {
	t.Helper()
	s := newTestSession(t, ts, gcProperty)
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
// backlog does not grow with the trace and stays far below it. The feed
// queues bound only what a feeder runs ahead; a monitor keeps its own events
// until every peer's need-floor has passed them, and floors travel piggybacked
// or every floorAnnounceEvery events, so the backlog has a structural part
// (some hundreds of events here) on top of that.
func TestSessionBackpressureBounded(t *testing.T) {
	short, long := dist.Generate(gcWorkload(500)), dist.Generate(gcWorkload(2000))
	peakShort, peakLong := feedAll(t, short), feedAll(t, long)
	if peakLong > 2*peakShort {
		t.Errorf("knowledge peak grew with the trace: %d events -> peak %d, %d events -> peak %d",
			short.TotalEvents(), peakShort, long.TotalEvents(), peakLong)
	}
	if peakLong > long.TotalEvents()/8 {
		t.Errorf("knowledge peak %d is not far below the %d events fed", peakLong, long.TotalEvents())
	}
	t.Logf("peak %d over %d events, %d over %d", peakShort, short.TotalEvents(), peakLong, long.TotalEvents())
}

// TestSessionFeedQueueBlocks pins the backpressure the session has: each
// monitor's feed queue. On a built session whose monitors never run, a feeder
// gets exactly feedQueue calls in for a process; the next one blocks until the
// session is cancelled and then returns the context's error. Feed hands over
// one event a call, and FeedRun a window with one event of each of two
// processes, so both queues fill together: that is the slack of a per-event
// feeder. A FeedRun of FeedWindow events of one process is one item too, so
// a windowed feeder is held at feedQueue × FeedWindow events.
func TestSessionFeedQueueBlocks(t *testing.T) {
	ts := dist.Generate(gcWorkload((feedQueue + 1) * FeedWindow))
	p0, p1 := ts.Traces[0].Events, ts.Traces[1].Events
	for name, c := range map[string]struct {
		perCall int // events of process 0 a call feeds
		feed    func(s *Session, fs *FeedScratch, i int) error
	}{
		"Feed": {1, func(s *Session, _ *FeedScratch, i int) error { return s.Feed(p0[i]) }},
		"FeedRun": {1, func(s *Session, fs *FeedScratch, i int) error {
			return s.FeedRun(fs, []*dist.Event{p0[i], p1[i]})
		}},
		"FeedWindow": {FeedWindow, func(s *Session, fs *FeedScratch, i int) error {
			return s.FeedRun(fs, p0[i*FeedWindow:(i+1)*FeedWindow])
		}},
	} {
		feed := c.feed
		t.Run(name, func(t *testing.T) {
			s := builtSession(t, SessionConfig{
				N: ts.N(), Automaton: mustMonitor(t, gcProperty, ts.Props.Names),
				Props: ts.Props, Init: ts.InitialState(),
			})
			var fs FeedScratch
			accepted := make(chan error, 1)
			go func() {
				for i := 0; i < feedQueue; i++ {
					if err := feed(s, &fs, i); err != nil {
						accepted <- err
						return
					}
				}
				accepted <- nil
			}()
			select {
			case err := <-accepted:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%d calls did not all go through to an empty feed queue", feedQueue)
			}
			blocked := make(chan error, 1)
			go func() { blocked <- feed(s, &fs, feedQueue) }()
			select {
			case err := <-blocked:
				t.Fatalf("call %d returned %v past a full feed queue, want it to block", feedQueue+1, err)
			case <-time.After(50 * time.Millisecond):
			}
			s.cancel()
			select {
			case err := <-blocked:
				if !errors.Is(err, context.Canceled) {
					t.Errorf("blocked call returned %v after cancel, want %v", err, context.Canceled)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("blocked call did not return after the session was cancelled")
			}
			s.mu.Lock()
			defer s.mu.Unlock()
			if want := feedQueue * c.perCall; s.fed[0] != want {
				t.Errorf("process 0 counts %d events fed, want %d", s.fed[0], want)
			}
		})
	}
}

// TestSessionProcessByProcess feeds one process's whole trace before any
// event of the other. With its peer silent, monitor 0 can collect nothing and
// resolve no search, so it must take in all of process 0's events without
// waiting on its peer: backpressure that waited for the pipeline to make
// progress would deadlock here. The session must complete, with the oracle's
// verdicts, and monitor 0 must have held at least 512 events at once.
func TestSessionProcessByProcess(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{
		N: 2, InternalPerProc: 1024, CommMu: 3, CommSigma: 1,
		PlantGoal: true, Seed: 1,
	})
	const formula = "F (P0.p && P1.p)"
	mon := mustMonitor(t, formula, ts.Props.Names)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	s, err := NewSession(ctx, SessionConfig{
		N: ts.N(), Automaton: mon, Props: ts.Props, Init: ts.InitialState(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for p, tr := range ts.Traces {
		for _, e := range tr.Events {
			if err := s.Feed(e); err != nil {
				t.Fatalf("feeding process %d: %v", p, err)
			}
		}
		if err := s.End(p); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := setString(res.Verdicts), setString(oracleSet(t, ts, mon)); got != want {
		t.Errorf("process-by-process feed verdicts %s != oracle %s", got, want)
	}
	if peak := res.Metrics[0].KnowledgePeak; peak < 512 {
		t.Errorf("monitor 0 peaked at %d retained events, want at least 512: it cannot collect while its peer is silent", peak)
	}
	t.Logf("monitor 0 peak %d of %d events fed", res.Metrics[0].KnowledgePeak, len(ts.Traces[0].Events))
}
