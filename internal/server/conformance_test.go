package server

import (
	"fmt"
	"os"
	"sync/atomic"
	"testing"

	"decentmon"
	"decentmon/internal/dist"
	"decentmon/internal/gauntlet"
)

// TestRecoveryConformance: recover-by-replay ≡ uninterrupted, against the
// oracle rather than against ourselves. Every -short cell of the conformance
// gauntlet is fed to a durable dlmond up to its middle, the daemon is killed,
// a second one recovers the session from base and log, the feeder attaches and
// sends what the reply says is missing, and the verdict set the session closes
// with must be the oracle's — the whole set at n ≤ 5, the conclusive verdicts
// at n = 8, where '?' is the sliced oracle's to waive, exactly as the gauntlet
// holds its own engines. The cadence and the compaction floor are small enough
// that a prefix of thirty events syncs several times and, in some cells,
// compacts; the n = 2 ring cells are driven through Emit, so their logs hold
// the server's own stamps and their recovery rebuilds the stamper.
//
// Each of the two daemons compiles the cell's property for itself, and the
// full-width D and F automata at n = 5 take over a second apiece: the cells
// run side by side, and under -short (the race job) those four are left to the
// full run.
func TestRecoveryConformance(t *testing.T) {
	const cadence = 4
	var compacted, emitted atomic.Int32
	t.Cleanup(func() { // once the parallel cells are through
		if !t.Failed() && (compacted.Load() == 0 || emitted.Load() == 0) {
			t.Errorf("%d cells were killed behind a compaction and %d were live-stamped: the matrix must have one of each", compacted.Load(), emitted.Load())
		}
	})
	specs := map[string]*decentmon.Spec{} // one per property and arity: topologies share it
	for _, cell := range gauntlet.Cells(true) {
		if testing.Short() && cell.N == 5 && (cell.Prop == "D" || cell.Prop == "F") {
			continue
		}
		key := fmt.Sprintf("%s/%d", cell.Prop, cell.Arity)
		if specs[key] == nil {
			spec, err := decentmon.CaseStudySpecAt(cell.Prop, cell.Arity)
			if err != nil {
				t.Fatal(err)
			}
			specs[key] = spec
		}
		spec := specs[key]
		t.Run(cell.Name(), func(t *testing.T) {
			t.Parallel()
			ts, err := dist.Generate(cell.Gen()).WithProps(spec.Props)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := decentmon.Oracle(spec, ts)
			if err != nil {
				t.Fatal(err)
			}
			want := verdictSetCodes(oracle.VerdictSet(), cell.N <= 5)
			evs := linearize(t, ts)
			live := cell.N == 2 && cell.Topo == dist.TopoRing
			cfg := Config{StateDir: t.TempDir(), CheckpointEvery: cadence, MetricsAddr: "off"}
			if live {
				cfg.CheckpointEvery = 1
				emitted.Add(1)
			}

			s1, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s1.Shutdown() })
			s1.compactFloor = 256
			cl, err := Dial(s1.Addr())
			if err != nil {
				t.Fatal(err)
			}
			sid, _, err := cl.Register("acme", spec.Formula, ts.InitialState(), ts.Props)
			if err != nil {
				t.Fatal(err)
			}
			half := len(evs) / 2
			feeder := &emitFeeder{ids: map[int]int{}}
			if live {
				feeder.emit(t, cl, sid, evs[:half])
			} else {
				feedRemaining(t, cl, sid, evs[:half], make([]int, cell.N))
				if _, _, err := cl.Attach(sid); err != nil {
					t.Fatal(err)
				}
			}
			cl.Close()
			s1.crash()
			if blob, err := os.ReadFile(checkpointPath(cfg.StateDir, sid)); err != nil {
				t.Fatal(err)
			} else if ck, err := decodeCheckpoint(blob); err != nil {
				t.Fatal(err)
			} else if ck.logGen > 0 {
				compacted.Add(1)
			}

			s2 := newTestServer(t, cfg)
			cl2, err := Dial(s2.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cl2.Close()
			epoch, fed, err := cl2.Attach(sid)
			if err != nil {
				t.Fatalf("attach after the restart: %v (%d checkpoint errors)", err, s2.mx.checkpointErrors.Load())
			}
			total := 0
			for _, k := range fed {
				total += k
			}
			if wantFed := half / cfg.CheckpointEvery * cfg.CheckpointEvery; epoch != 1 || total != wantFed {
				t.Fatalf("recovered at epoch %d with %d events (fed %v), want epoch 1 and the %d of the last sync", epoch, total, fed, wantFed)
			}
			if live {
				feeder.emit(t, cl2, sid, evs[half:])
			} else {
				feedRemaining(t, cl2, sid, evs, fed)
			}
			codes, err := cl2.CloseSession(sid)
			if err != nil {
				t.Fatal(err)
			}
			got := map[decentmon.Verdict]bool{}
			for _, c := range codes {
				got[decentmon.Verdict(c)] = true
			}
			if g := verdictSetCodes(got, cell.N <= 5); g != want {
				t.Errorf("verdicts after kill and recovery {%s}, oracle {%s}", g, want)
			}
		})
	}
}

// verdictSetCodes renders a verdict set in the order ⊤, ⊥, ?, the last only on
// request.
func verdictSetCodes(set map[decentmon.Verdict]bool, inconclusive bool) string {
	var codes []byte
	for _, v := range []decentmon.Verdict{decentmon.Top, decentmon.Bottom, decentmon.Unknown} {
		if set[v] && (v != decentmon.Unknown || inconclusive) {
			codes = append(codes, byte(v))
		}
	}
	return codeString(codes)
}

// emitFeeder replays recorded events through Emit: the server stamps them
// again, and since it sees them in an order consistent with the recorded
// causality it arrives at the recorded clocks. ids maps a recorded message id
// to the one the server handed out for the send — the application's own
// bookkeeping, which survives the daemon's crash because it is the client's.
type emitFeeder struct {
	ids map[int]int
}

func (f *emitFeeder) emit(t *testing.T, cl *Client, sid uint64, evs []*dist.Event) {
	t.Helper()
	for _, e := range evs {
		id, err := cl.Emit(sid, e.Type, e.Proc, e.Peer, f.ids[e.MsgID], e.State)
		if err != nil {
			t.Fatalf("emit of event %d of process %d: %v", e.SN, e.Proc, err)
		}
		if e.Type == dist.Send {
			f.ids[e.MsgID] = id
		}
	}
}
