package experiments

import (
	"strings"
	"testing"

	"decentmon/internal/dist"
)

var quick = Config{
	Ns:              []int{2, 3},
	Seeds:           []int64{1},
	InternalPerProc: 5,
	CommMu:          3, CommSigma: 1,
}

func TestTable51(t *testing.T) {
	rows, err := Table51()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 24 {
		t.Fatalf("%d rows, want 24", len(rows))
	}
	exact := 0
	for _, r := range rows {
		if r.Total == r.PaperTot && r.Outgoing == r.PaperOut && r.Self == r.PaperSelf {
			exact++
		}
	}
	if exact < 15 {
		t.Errorf("only %d exact Table 5.1 cells", exact)
	}
	out := RenderTable51(rows)
	if !strings.Contains(out, "exact") {
		t.Error("render lacks exact markers")
	}
}

func TestAutomata(t *testing.T) {
	figs, err := Automata(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 6 {
		t.Fatalf("%d automata, want 6", len(figs))
	}
	for k, dot := range figs {
		if !strings.Contains(dot, "digraph") {
			t.Errorf("%s: not DOT", k)
		}
	}
}

func TestMeasureAndSweep(t *testing.T) {
	cells, err := Sweep([]string{"B", "D"}, quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("%d cells, want 4", len(cells))
	}
	for _, c := range cells {
		if c.Events <= 0 {
			t.Errorf("%s/%d: no events", c.Property, c.N)
		}
		if c.Messages < 0 || c.GlobalViews <= 0 {
			t.Errorf("%s/%d: bad metrics %+v", c.Property, c.N, c)
		}
	}
	out := RenderCells(cells)
	if !strings.Contains(out, "globalviews") {
		t.Error("render missing header")
	}
}

func TestMessagesGrowWithN(t *testing.T) {
	cfg := quick
	cfg.Ns = []int{2, 4}
	cells, err := Sweep([]string{"D"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cells[1].Messages <= cells[0].Messages {
		t.Errorf("messages should grow with n: n=2 %.0f, n=4 %.0f", cells[0].Messages, cells[1].Messages)
	}
}

func TestSingleOutgoingCheaperThanMany(t *testing.T) {
	// Property B (one outgoing transition) must generate fewer monitoring
	// messages than property D at the same size (Fig. 5.4b vs 5.5a shape).
	cfg := quick
	cfg.Ns = []int{4}
	cfg.Seeds = []int64{1, 2}
	b, err := Sweep([]string{"B"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Sweep([]string{"D"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b[0].Messages >= d[0].Messages {
		t.Errorf("B should be cheaper than D: B %.0f vs D %.0f messages", b[0].Messages, d[0].Messages)
	}
}

func TestCommFrequency(t *testing.T) {
	cfg := quick
	cells, err := CommFrequency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 5 {
		t.Fatalf("%d comm-frequency cells, want 5", len(cells))
	}
	if cells[0].Label != "commMu=3" || cells[4].Label != "no comm" {
		t.Errorf("labels wrong: %s .. %s", cells[0].Label, cells[4].Label)
	}
	// Fewer program messages with larger Commµ => fewer events.
	if cells[0].Events <= cells[3].Events {
		t.Errorf("events should shrink as Commµ grows: %v vs %v", cells[0].Events, cells[3].Events)
	}
	out := RenderCommFreq(cells)
	if !strings.Contains(out, "no comm") {
		t.Error("render missing no-comm row")
	}
}

func TestBaselines(t *testing.T) {
	cfg := quick
	row, err := Baselines("D", 3, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !row.Agree {
		t.Error("baselines disagree on verdicts")
	}
	if row.RepMsgs <= row.DecMsgs/10 {
		t.Errorf("replicated should not be cheap: dec %d repl %d", row.DecMsgs, row.RepMsgs)
	}
	if row.CentralMsgs <= 0 || row.CentralCuts <= 0 {
		t.Errorf("central metrics empty: %+v", row)
	}
	out := RenderBaselines([]*BaselineRow{row})
	if !strings.Contains(out, "central cuts") {
		t.Error("render missing header")
	}
}

func TestDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if len(c.Ns) != 4 || c.InternalPerProc == 0 || c.EvtMu != 3 {
		t.Errorf("defaults wrong: %+v", c)
	}
	if Log10(0) != 0 || Log10(100) != 2 {
		t.Error("Log10 helper wrong")
	}
}

func TestTopologies(t *testing.T) {
	cells, err := Topologies("B", 3, quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(dist.Topologies) {
		t.Fatalf("%d topology cells, want %d", len(cells), len(dist.Topologies))
	}
	names := map[string]bool{}
	for _, c := range cells {
		names[c.Topology] = true
		if c.Events <= 0 {
			t.Errorf("%s: no events", c.Topology)
		}
	}
	for _, want := range []string{"uniform", "ring", "star", "broadcast", "clustered"} {
		if !names[want] {
			t.Errorf("missing topology %s", want)
		}
	}
	// Broadcast bursts fan every communication out to n-1 peers, so the
	// program event count must exceed the unicast shapes'.
	var uni, bcast float64
	for _, c := range cells {
		switch c.Topology {
		case "uniform":
			uni = c.Events
		case "broadcast":
			bcast = c.Events
		}
	}
	if bcast <= uni {
		t.Errorf("broadcast events %.0f not above uniform %.0f", bcast, uni)
	}
}

func TestOracleSweep(t *testing.T) {
	cfg := Config{Seeds: []int64{1}, InternalPerProc: 4, CommMu: 6, CommSigma: 1}
	cells, err := OracleSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 14 {
		t.Fatalf("got %d rows, want 14", len(cells))
	}
	for _, c := range cells {
		if c.Events == 0 || c.Cuts == 0 || c.WallSeconds <= 0 || c.Verdicts == "" {
			t.Errorf("degenerate row %+v", c)
		}
		if c.Arity == c.N && c.Support != c.N {
			t.Errorf("full-width row %s/n%d: the oracle spanned %d processes", c.Property, c.N, c.Support)
		}
		if c.Arity == 3 && c.Support > 3 {
			t.Errorf("arity-3 row %s/n%d: the oracle spanned %d processes", c.Property, c.N, c.Support)
		}
	}
	if !strings.Contains(RenderOracleCells(cells), "events/s") {
		t.Error("oracle table missing events/s column")
	}
}

// TestDlmondLongSession runs the long-session pair on a short execution: the
// durable side must sync its log every time its cadence calls for it, write
// its registration's base blob, report where the time of both went, what it
// made durable per event and how long a restart over its state takes, and the
// record must render.
func TestDlmondLongSession(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{
		N: 3, InternalPerProc: 400, CommMu: 6, CommSigma: 1,
		Topology: dist.TopoRing, Suffixes: []string{"p"}, Seed: 2,
		TrueProbs: map[string]float64{"p": 0.5},
	})
	long, err := dlmondLongSession("test/ring/n=3", ts, "G (P0.p -> F (P1.p && P2.p))", 1)
	if err != nil {
		t.Fatal(err)
	}
	if long.Events != ts.TotalEvents() || long.EventsPerSec <= 0 || long.DurableEventsPerSec <= 0 {
		t.Fatalf("pair not measured: %+v", long)
	}
	if want := long.Events / long.CheckpointEvery; long.Syncs != want {
		t.Errorf("%d log syncs over %d events at cadence %d, want %d", long.Syncs, long.Events, long.CheckpointEvery, want)
	}
	if long.Checkpoints < 1 {
		t.Errorf("%d base blobs, want the registration's at least", long.Checkpoints)
	}
	if long.SyncBytes <= 0 || long.SyncMs <= 0 || long.CheckpointBytes <= 0 || long.BarrierMs <= 0 || long.EncodeMs <= 0 || long.InstallMs <= 0 {
		t.Errorf("phase means not filled in: %+v", long)
	}
	// A record is the events' own bytes plus six of framing: more than a
	// ".dmtb" file's 20-odd bytes an event at n = 3, far less than a snapshot.
	if long.DurableBytesPerEvent < 10 || long.DurableBytesPerEvent > 200 {
		t.Errorf("durable_bytes_per_event = %v", long.DurableBytesPerEvent)
	}
	if long.RecoveryMs <= 0 {
		t.Errorf("recovery_ms = %v", long.RecoveryMs)
	}
	if got, want := long.DurableRatio, long.DurableEventsPerSec/long.EventsPerSec; got != want {
		t.Errorf("durable_ratio %v, want %v", got, want)
	}
	out := RenderDlmondCells(&DlmondBench{LongSession: long})
	if !strings.Contains(out, "long session") || !strings.Contains(out, "log syncs") || !strings.Contains(out, "compactions") || !strings.Contains(out, "install-wait") {
		t.Errorf("rendered record misses the long-session lines:\n%s", out)
	}
}
