package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"decentmon/internal/dist"
	"decentmon/internal/transport"
)

// jsonlSource renders the trace set through the streaming format and opens
// it with the validating reader, so the test exercises the exact pipeline
// dlmon -stream uses.
func jsonlSource(t *testing.T, ts *dist.TraceSet) dist.EventSource {
	t.Helper()
	var buf bytes.Buffer
	if err := ts.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := dist.OpenStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestStreamedRunningExampleMatchesMaterialized(t *testing.T) {
	ts := dist.RunningExample()
	mon := mustMonitor(t, dist.RunningExampleProperty, ts.Props.Names)
	want, err := Run(RunConfig{Traces: ts, Automaton: mon})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunStream(jsonlSource(t, ts), RunConfig{Automaton: mon})
	if err != nil {
		t.Fatal(err)
	}
	if setString(got.Verdicts) != setString(want.Verdicts) {
		t.Fatalf("streamed verdicts %s != materialized %s", setString(got.Verdicts), setString(want.Verdicts))
	}
}

func TestStreamedVerdictsMatchMaterialized(t *testing.T) {
	// Streamed consumption must be verdict-equal to the materialized path
	// on every topology: both are sound and complete for the same lattice.
	for _, topo := range dist.Topologies {
		ts := dist.Generate(dist.GenConfig{
			N: 3, InternalPerProc: 6,
			CommMu: 3, CommSigma: 1,
			Topology: topo, Clusters: 2, CrossProb: 0.2,
			PlantGoal: true, Seed: 21,
		})
		for name, f := range propsAF(3) {
			mon := mustMonitor(t, f, ts.Props.Names)
			want, err := Run(RunConfig{Traces: ts, Automaton: mon})
			if err != nil {
				t.Fatalf("%v/%s materialized: %v", topo, name, err)
			}
			got, err := RunStream(jsonlSource(t, ts), RunConfig{Automaton: mon})
			if err != nil {
				t.Fatalf("%v/%s streamed: %v", topo, name, err)
			}
			if setString(got.Verdicts) != setString(want.Verdicts) {
				t.Errorf("%v/%s: streamed %s != materialized %s",
					topo, name, setString(got.Verdicts), setString(want.Verdicts))
			}
		}
	}
}

func TestStreamedTopologiesMatchOracle(t *testing.T) {
	// Soundness + completeness of the streamed decentralized run against
	// the ground-truth oracle, per topology.
	for _, topo := range dist.Topologies {
		ts := dist.Generate(dist.GenConfig{
			N: 4, InternalPerProc: 5,
			CommMu: 3, CommSigma: 1,
			Topology: topo, Clusters: 2, CrossProb: 0.2,
			PlantGoal: true, Seed: 9,
		})
		f := propsAF(4)["B"]
		mon := mustMonitor(t, f, ts.Props.Names)
		want := oracleSet(t, ts, mon)
		got, err := RunStream(ts.Stream(), RunConfig{Automaton: mon})
		if err != nil {
			t.Fatalf("%v: %v", topo, err)
		}
		if setString(got.Verdicts) != setString(want) {
			t.Errorf("%v: streamed verdicts %s != oracle %s", topo, setString(got.Verdicts), setString(want))
		}
	}
}

func TestRunStreamMetricsCoverAllEvents(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{
		N: 3, InternalPerProc: 8, CommMu: 3, CommSigma: 1, Seed: 4,
	})
	mon := mustMonitor(t, propsAF(3)["B"], ts.Props.Names)
	res, err := RunStream(ts.Stream(), RunConfig{Automaton: mon})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, m := range res.Metrics {
		total += m.EventsProcessed
	}
	if total != ts.TotalEvents() {
		t.Errorf("monitors processed %d events, trace has %d", total, ts.TotalEvents())
	}
}

func TestRunRequiresTraces(t *testing.T) {
	ts := dist.RunningExample()
	mon := mustMonitor(t, dist.RunningExampleProperty, ts.Props.Names)
	if _, err := Run(RunConfig{Automaton: mon}); err == nil {
		t.Error("Run without traces accepted")
	}
	if _, err := RunStream(nil, RunConfig{Automaton: mon}); err == nil {
		t.Error("RunStream without source accepted")
	}
}

// gatedSource hands out an event only once the monitors have handled every
// event handed out before it: a replay that reads ahead of what it has fed
// waits here for patience, and is then told so.
type gatedSource struct {
	dist.EventSource
	handled  func() int
	patience time.Duration
	given    int
}

func (g *gatedSource) Next() (*dist.Event, error) {
	for deadline := time.Now().Add(g.patience); g.handled() < g.given; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("event %d read with event %d not yet fed", g.given+1, g.given)
		}
	}
	e, err := g.EventSource.Next()
	if err == nil {
		g.given++
	}
	return e, err
}

// TestRunStreamPacedFeedsEventByEvent: a paced replay delivers each event when
// it is due — a window of one — while an unpaced one reads a window ahead of
// what it has fed. Replicated monitors broadcast every local event as they
// handle it, so the network's message count says how many events have been.
func TestRunStreamPacedFeedsEventByEvent(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{N: 3, InternalPerProc: 8, CommMu: 3, CommSigma: 1, Seed: 4})
	mon := mustMonitor(t, propsAF(3)["B"], ts.Props.Names)
	if ts.TotalEvents() <= feedChunk {
		t.Fatalf("the trace has %d events, need more than a window", ts.TotalEvents())
	}
	replay := func(pace float64, patience time.Duration) error {
		nw := transport.NewChanNetwork(ts.N())
		src := &gatedSource{
			EventSource: ts.Stream(),
			handled:     func() int { return int(nw.Stats().Messages()) / (ts.N() - 1) },
			patience:    patience,
		}
		res, err := RunStream(src, RunConfig{Automaton: mon, Mode: ModeReplicated, Network: nw, Pace: pace})
		if err == nil && src.given != ts.TotalEvents() {
			err = fmt.Errorf("replayed %d of %d events (verdicts %s)", src.given, ts.TotalEvents(), setString(res.Verdicts))
		}
		return err
	}
	if err := replay(1e-6, 30*time.Second); err != nil {
		t.Errorf("paced: %v", err)
	}
	if err := replay(0, 50*time.Millisecond); err == nil || !strings.Contains(err.Error(), "not yet fed") {
		t.Errorf("unpaced: the replay read no window ahead of its feeding (%v)", err)
	}
}
