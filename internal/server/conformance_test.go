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
// compacts; the n = 2 ring cells are stamped live at cadence 1, by the tenant's
// own dist.Stamper as the feed goes, which carries on across the daemon's
// crash because it is the tenant's, not the daemon's.
//
// Each of the two daemons compiles the cell's property for itself, and the
// full-width D and F automata at n = 5 take over a second apiece: the cells
// run side by side, and under -short (the race job) those four are left to the
// full run.
func TestRecoveryConformance(t *testing.T) {
	const cadence = 4
	var compacted atomic.Int32
	t.Cleanup(func() { // once the parallel cells are through
		if !t.Failed() && compacted.Load() == 0 {
			t.Error("no cell was killed behind a compaction: the matrix must have one")
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
			ts := dist.Generate(cell.Gen())
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
			feeder := &stampFeeder{st: dist.NewStamper(cell.N), tokens: map[int]dist.MsgToken{}}
			if live {
				feedRemaining(t, cl, sid, feeder.stamp(t, evs[:half]), make([]int, cell.N))
			} else {
				feedRemaining(t, cl, sid, evs[:half], make([]int, cell.N))
			}
			if _, _, err := cl.Attach(sid); err != nil {
				t.Fatal(err)
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
				feedRemaining(t, cl2, sid, feeder.stamp(t, evs[half:]), fed)
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

// stampFeeder replays recorded events as a live execution: each process
// stamps its event with the tenant's dist.Stamper, a receive presenting the
// token its send was given, as the application's messages would carry it.
// Seeing the events in an order consistent with the recorded causality, it
// arrives at the recorded clocks. stamped is every event stamped so far, for a
// feeder resuming at the fed counts of an Attach.
type stampFeeder struct {
	st      *dist.Stamper
	tokens  map[int]dist.MsgToken // by recorded message id
	stamped []*dist.Event
}

func (f *stampFeeder) stamp(t *testing.T, evs []*dist.Event) []*dist.Event {
	t.Helper()
	for _, e := range evs {
		var (
			s   *dist.Event
			tok dist.MsgToken
			err error
		)
		switch e.Type {
		case dist.Internal:
			s, err = f.st.Internal(e.Proc, e.State, e.Time)
		case dist.Send:
			s, tok, err = f.st.Send(e.Proc, e.Peer, e.State, e.Time)
			f.tokens[e.MsgID] = tok
		case dist.Recv:
			s, err = f.st.Recv(e.Proc, f.tokens[e.MsgID], e.State, e.Time)
		}
		if err != nil {
			t.Fatalf("stamping event %d of process %d: %v", e.SN, e.Proc, err)
		}
		if s.SN != e.SN || !s.VC.Equal(e.VC) {
			t.Fatalf("event %d of process %d stamped %d %v, recorded %v", e.SN, e.Proc, s.SN, s.VC, e.VC)
		}
		f.stamped = append(f.stamped, s)
	}
	return f.stamped
}
