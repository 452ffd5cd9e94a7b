package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/gauntlet"
	"decentmon/internal/ltl"
	"decentmon/internal/props"
)

// shortTraces encodes count executions of the paper's short-run cell (ring,
// n = 16, 4 internal events per process, Commµ = 6, the goal planted, about
// 112 events each) as .dmtb bytes, with the property B monitor at arity 3
// over the space the traces are read against.
func shortTraces(tb testing.TB, count int) ([][]byte, *automaton.Monitor, *dist.PropMap) {
	tb.Helper()
	pm := dist.PerProcess(3, "p")
	mon, err := automaton.Build(ltl.MustParse("F (P0.p && P1.p && P2.p)"), pm.Names)
	if err != nil {
		tb.Fatal(err)
	}
	var traces [][]byte
	for seed := int64(1); seed <= int64(count); seed++ {
		gc := dist.GenConfig{
			N: 16, InternalPerProc: 4, CommMu: 6, CommSigma: 1,
			Topology: dist.TopoRing, PlantGoal: true, Seed: seed,
			TrueProbs: map[string]float64{"p": 0.9, "q": 0.8},
		}
		var buf bytes.Buffer
		bw, err := dist.NewBinaryWriter(&buf, gc.Props(), gc.InitState())
		if err != nil {
			tb.Fatal(err)
		}
		if err := dist.GenerateStream(gc, bw.Write); err != nil {
			tb.Fatal(err)
		}
		if err := bw.Close(); err != nil {
			tb.Fatal(err)
		}
		traces = append(traces, buf.Bytes())
	}
	return traces, mon, pm
}

// replayShort decodes one .dmtb trace and monitors it, detection only, the
// way dlmon and the benchmark's replay-short workload do.
func replayShort(tb testing.TB, trace []byte, mon *automaton.Monitor, pm *dist.PropMap) *RunResult {
	src, err := dist.OpenBinaryStream(bytes.NewReader(trace))
	if err != nil {
		tb.Fatal(err)
	}
	rebound, err := dist.SourceWithProps(src, pm)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := RunStreamContext(context.Background(), rebound, RunConfig{Automaton: mon, SkipFinalize: true})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// BenchmarkShortSession replays 64 short-run traces from their .dmtb bytes,
// one session at a time: the cost a Chapter-5-sized session pays end to end,
// decode included. Run it with -memprofile to see who owns its allocations
// (PERFORMANCE.md, "The short session's allocation bill").
func BenchmarkShortSession(b *testing.B) {
	traces, mon, pm := shortTraces(b, 64)
	events := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := replayShort(b, traces[i%len(traces)], mon, pm)
		for _, mt := range res.Metrics {
			events += mt.EventsProcessed
		}
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// TestScratchRecycledAcrossSessions runs gauntlet cells of three sizes and
// three properties — so automata of different widths — as concurrent
// sessions, then back to back, so that monitors keep taking scratch that a
// monitor of another shape grew and handed back (monitor.go, scratch). Every
// verdict set must still be the oracle's; under -race the run also checks
// that nothing touches a scratch after its monitor has returned it.
func TestScratchRecycledAcrossSessions(t *testing.T) {
	type job struct {
		cell gauntlet.Cell
		ts   *dist.TraceSet
		mon  *automaton.Monitor
		want map[automaton.Verdict]bool
	}
	var jobs []job
	for _, c := range gauntlet.Cells(true) {
		if c.Topo != dist.TopoRing || (c.Prop != "B" && c.Prop != "D" && c.Prop != "F") {
			continue
		}
		mon, _, err := props.BuildAt(c.Prop, c.Arity, false)
		if err != nil {
			t.Fatal(err)
		}
		ts := dist.Generate(c.Gen())
		jobs = append(jobs, job{cell: c, ts: ts, mon: mon, want: oracleSet(t, ts, mon)})
	}
	if len(jobs) < 8 {
		t.Fatalf("%d cells picked, want at least 8", len(jobs))
	}
	replay := func(j job) error {
		res, err := Run(RunConfig{Traces: j.ts, Automaton: j.mon})
		if err != nil {
			return fmt.Errorf("%s: %w", j.cell.Name(), err)
		}
		if got, want := setString(res.Verdicts), setString(j.want); got != want {
			return fmt.Errorf("%s: verdicts %s, oracle %s", j.cell.Name(), got, want)
		}
		return nil
	}
	errs := make(chan error, len(jobs))
	for _, j := range jobs {
		go func(j job) { errs <- replay(j) }(j)
	}
	for range jobs {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	for _, j := range jobs {
		if err := replay(j); err != nil {
			t.Error(err)
		}
	}
}
