package decentmon

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	pm := PerProcessProps(3, "p", "q")
	spec, err := Compile("F (P0.p && P1.p && P2.p)", pm)
	if err != nil {
		t.Fatal(err)
	}
	ts := Generate(GenConfig{N: 3, InternalPerProc: 8, CommMu: 3, CommSigma: 1, PlantGoal: true, Seed: 1})
	res, err := Run(spec, ts)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Oracle(spec, ts)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.VerdictSet()
	if len(res.Verdicts) != len(want) {
		t.Fatalf("run %v != oracle %v", res.Verdicts, want)
	}
	for v := range want {
		if !res.Verdicts[v] {
			t.Fatalf("run %v != oracle %v", res.Verdicts, want)
		}
	}
	if !res.Verdicts[Top] {
		t.Error("planted goal not detected")
	}
}

func TestRunningExampleFacade(t *testing.T) {
	ts := RunningExample()
	spec, err := Compile(RunningExampleProperty, ts.Props)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec, ts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdicts[Bottom] || !res.Verdicts[Unknown] || res.Verdicts[Top] {
		t.Fatalf("verdicts %v, want {F,?}", res.VerdictList())
	}
}

func TestPaperShapeOption(t *testing.T) {
	pm := PerProcessProps(2, "p", "q")
	f, err := CaseStudyProperty("D", 2)
	if err != nil {
		t.Fatal(err)
	}
	minimal := MustCompile(f, pm)
	shaped := MustCompile(f, pm, PaperShape())
	if shaped.Automaton().NumStates() <= minimal.Automaton().NumStates() {
		t.Errorf("paper shape (%d states) should be larger than minimal (%d)",
			shaped.Automaton().NumStates(), minimal.Automaton().NumStates())
	}
	if !strings.Contains(shaped.Dot("d"), "digraph") {
		t.Error("Dot output broken")
	}
	if !strings.Contains(minimal.Describe(), "states:") {
		t.Error("Describe output broken")
	}
}

func TestRunOptions(t *testing.T) {
	pm := PerProcessProps(2, "p", "q")
	spec := MustCompile("F (P0.p && P1.p)", pm)
	ts := Generate(GenConfig{N: 2, InternalPerProc: 5, CommMu: 3, PlantGoal: true, Seed: 2})

	nofin, err := Run(spec, ts, WithoutFinalization())
	if err != nil {
		t.Fatal(err)
	}
	if !nofin.Verdicts[Top] {
		t.Error("no-finalize run missed planted detection")
	}
	tcp, err := NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	overTCP, err := Run(spec, ts, WithNetwork(tcp))
	if err != nil {
		t.Fatal(err)
	}
	if !overTCP.Verdicts[Top] {
		t.Error("TCP run missed verdict")
	}
	paced, err := Run(spec, ts, WithPace(1e-4))
	if err != nil {
		t.Fatal(err)
	}
	if paced.ProgramWall <= 0 {
		t.Error("paced run did not record program wall time")
	}
}

func TestErrorPaths(t *testing.T) {
	pm := PerProcessProps(2, "p", "q")
	if _, err := Compile("F (", pm); err == nil {
		t.Error("bad formula accepted")
	}
	if _, err := Compile("F zebra", pm); err == nil {
		t.Error("unknown proposition accepted")
	}
	spec := MustCompile("F P0.p", pm)
	other := Generate(GenConfig{N: 3, InternalPerProc: 3, Seed: 1})
	if _, err := Run(spec, other); err == nil {
		t.Error("mismatched trace set accepted")
	}
	if _, err := Oracle(spec, other); err == nil {
		t.Error("mismatched trace set accepted by oracle")
	}
	if _, err := Run(nil, other); err == nil {
		t.Error("nil spec accepted")
	}
	if _, err := CaseStudyProperty("Z", 3); err == nil {
		t.Error("unknown case-study property accepted")
	}
}

func TestCustomPropSpace(t *testing.T) {
	pm := NewProps()
	if err := pm.Add("door.open", 0); err != nil {
		t.Fatal(err)
	}
	if err := pm.Add("light.on", 1); err != nil {
		t.Fatal(err)
	}
	// G(a → ◇b) is not monitorable: no finite prefix is conclusive, so the
	// minimal monitor is the single ?-state machine.
	spec, err := Compile("G (door.open -> F light.on)", pm)
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.Automaton().Run(nil); got != Unknown {
		t.Errorf("verdict %v, want ?", got)
	}
	// A monitorable variant has conclusive states.
	spec2, err := Compile("G (!door.open) || F light.on", pm)
	if err != nil {
		t.Fatal(err)
	}
	if spec2.Automaton().NumStates() < 2 {
		t.Error("suspiciously small monitor for monitorable property")
	}
}

func TestStreamingFacade(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.jsonl")
	cfg := GenConfig{
		N: 3, InternalPerProc: 8, CommMu: 3, CommSigma: 1,
		Topology: TopoRing, PlantGoal: true, Seed: 5,
	}
	ts := Generate(cfg)
	if err := ts.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	spec := MustCompile("F (P0.p && P1.p && P2.p)", ts.Props)

	want, err := Run(spec, ts)
	if err != nil {
		t.Fatal(err)
	}
	src, err := StreamTraces(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	got, err := RunStream(spec, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Verdicts) != len(want.Verdicts) {
		t.Fatalf("streamed %v != materialized %v", got.VerdictList(), want.VerdictList())
	}
	for v := range want.Verdicts {
		if !got.Verdicts[v] {
			t.Fatalf("streamed %v != materialized %v", got.VerdictList(), want.VerdictList())
		}
	}

	src2, err := StreamTraces(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src2.Close()
	bounded, err := RunBounded(spec, src2)
	if err != nil {
		t.Fatal(err)
	}
	if bounded.Verdict != Top {
		t.Errorf("bounded path verdict %v, want T (goal planted)", bounded.Verdict)
	}
	if !want.Verdicts[bounded.Verdict] {
		t.Errorf("bounded verdict %v outside the full run's set %v", bounded.Verdict, want.VerdictList())
	}

	// Spec/stream mismatch must be rejected up front.
	wrong := MustCompile("F P0.p", PerProcessProps(2, "p", "q"))
	src3, err := StreamTraces(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src3.Close()
	if _, err := RunStream(wrong, src3); err == nil {
		t.Error("mismatched stream accepted")
	}
}
