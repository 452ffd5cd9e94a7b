package core

import (
	"bytes"
	"strings"
	"testing"

	"decentmon/internal/dist"
)

// jsonlSource renders the trace set through the JSON-lines stream and opens
// it with the validating reader, so the test runs the engine over the reader
// dlmon uses for a JSON-lines trace.
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

// TestStreamedRunningExampleMatchesOracle runs the running example off the
// JSON-lines reader and requires the oracle's verdict set.
func TestStreamedRunningExampleMatchesOracle(t *testing.T) {
	ts := dist.RunningExample()
	mon := mustMonitor(t, dist.RunningExampleProperty, ts.Props.Names)
	want := oracleSet(t, ts, mon)
	got, err := RunStream(jsonlSource(t, ts), RunConfig{Automaton: mon})
	if err != nil {
		t.Fatal(err)
	}
	if setString(got.Verdicts) != setString(want) {
		t.Fatalf("streamed verdicts %s != oracle %s", setString(got.Verdicts), setString(want))
	}
}

// TestStreamedVerdictsMatchMaterialized: the run fed off the JSON-lines
// reader, on every topology and for every case-study property, reaches the
// verdicts the oracle finds on the materialized trace set's lattice.
func TestStreamedVerdictsMatchMaterialized(t *testing.T) {
	for _, topo := range dist.Topologies {
		ts := dist.Generate(dist.GenConfig{
			N: 3, InternalPerProc: 6,
			CommMu: 3, CommSigma: 1,
			Topology: topo, Clusters: 2, CrossProb: 0.2,
			PlantGoal: true, Seed: 21,
		})
		for name, f := range propsAF(3) {
			mon := mustMonitor(t, f, ts.Props.Names)
			want := oracleSet(t, ts, mon)
			got, err := RunStream(jsonlSource(t, ts), RunConfig{Automaton: mon})
			if err != nil {
				t.Fatalf("%v/%s: %v", topo, name, err)
			}
			if setString(got.Verdicts) != setString(want) {
				t.Errorf("%v/%s: streamed verdicts %s != oracle on the materialized set %s",
					topo, name, setString(got.Verdicts), setString(want))
			}
		}
	}
}

// TestStreamedTopologiesMatchOracle: soundness and completeness of the
// streamed decentralized run against the oracle, for every case-study
// property on every topology.
func TestStreamedTopologiesMatchOracle(t *testing.T) {
	for _, topo := range dist.Topologies {
		ts := dist.Generate(dist.GenConfig{
			N: 4, InternalPerProc: 5,
			CommMu: 3, CommSigma: 1,
			Topology: topo, Clusters: 2, CrossProb: 0.2,
			PlantGoal: true, Seed: 9,
		})
		for name, f := range propsAF(4) {
			mon := mustMonitor(t, f, ts.Props.Names)
			want := oracleSet(t, ts, mon)
			got, err := RunStream(ts.Stream(), RunConfig{Automaton: mon})
			if err != nil {
				t.Fatalf("%v/%s: %v", topo, name, err)
			}
			if setString(got.Verdicts) != setString(want) {
				t.Errorf("%v/%s: streamed verdicts %s != oracle %s", topo, name, setString(got.Verdicts), setString(want))
			}
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

// poisonedSource counts the events read from it and hands out event bad with
// its clock one entry short, which the session refuses: the feed fails at the
// window holding it, so reading stops at that window's end.
type poisonedSource struct {
	dist.EventSource
	bad, read int
}

func (p *poisonedSource) Next() (*dist.Event, error) {
	e, err := p.EventSource.Next()
	if err != nil {
		return e, err
	}
	if p.read++; p.read == p.bad {
		short := *e
		short.VC = e.VC[:len(e.VC)-1]
		return &short, nil
	}
	return e, nil
}

// TestRunStreamPacedFeedsEventByEvent: a paced replay feeds each event when it
// is due — a window of one, so a malformed event k is refused with exactly k
// events read, whatever k — while an unpaced one reads a whole window ahead of
// what it has fed.
func TestRunStreamPacedFeedsEventByEvent(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{N: 3, InternalPerProc: 8, CommMu: 3, CommSigma: 1, Seed: 4})
	mon := mustMonitor(t, propsAF(3)["B"], ts.Props.Names)
	if ts.TotalEvents() <= feedChunk {
		t.Fatalf("the trace has %d events, need more than a window", ts.TotalEvents())
	}
	readBeforeRefusal := func(pace float64, bad int) int {
		src := &poisonedSource{EventSource: ts.Stream(), bad: bad}
		if _, err := RunStream(src, RunConfig{Automaton: mon, Pace: pace}); err == nil || !strings.Contains(err.Error(), "clock") {
			t.Fatalf("pace %g, event %d malformed: RunStream = %v, want its clock refused", pace, bad, err)
		}
		return src.read
	}
	for bad := 1; bad <= 4; bad++ {
		if got := readBeforeRefusal(1e-6, bad); got != bad {
			t.Errorf("paced: malformed event %d refused after %d events were read", bad, got)
		}
	}
	if got := readBeforeRefusal(0, 1); got != feedChunk {
		t.Errorf("unpaced: malformed event 1 refused after %d events were read, want a window of %d", got, feedChunk)
	}
}
