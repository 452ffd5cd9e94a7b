package core

// Tests of the termination wave (handshake.go): its message count as a closed
// form, what closing an empty session costs, the routing it refuses, and
// snapshots taken before, during and after the wave.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"decentmon/internal/dist"
	"decentmon/internal/props"
	"decentmon/internal/transport"
)

// raceEnabled is set under -race (race_test.go), where allocation figures are
// not the program's own.
var raceEnabled bool

// kindNetwork is a ChanNetwork whose endpoints still hand values over but
// count every monitor message by kind.
type kindNetwork struct {
	transport.Network
	counts [msgFloor + 1]atomic.Int64
}

func (k *kindNetwork) Endpoint(i int) transport.Endpoint {
	ep := k.Network.Endpoint(i)
	return &kindEndpoint{Endpoint: ep, hand: ep.(transport.ValueSender), net: k}
}

func (k *kindNetwork) count(kind msgKind) int64 { return k.counts[kind].Load() }

type kindEndpoint struct {
	transport.Endpoint
	hand transport.ValueSender
	net  *kindNetwork
}

func (e *kindEndpoint) SendValue(to int, v any, size int) error {
	e.net.counts[v.(*wireMsg).Kind].Add(1) // before the send: a token is no longer ours after it
	return e.hand.SendValue(to, v, size)
}

// TestTerminationMessagesClosedForm: whatever the topology, the schedule and
// finalization, a session sends exactly n−1 reports and n−1 totals vectors,
// n−1 FINIs to the root and n−1 from it; an empty session sends nothing else.
// Each row runs as the Go scheduler interleaves it and on schedSeeds
// schedules the seeded driver picks.
func TestTerminationMessagesClosedForm(t *testing.T) {
	for _, n := range []int{2, 5, 16} {
		mon := mustMonitor(t, propsAF(min(n, 3))["B"], dist.PerProcess(n, "p").Names)
		for _, topo := range dist.Topologies {
			ts := dist.Generate(dist.GenConfig{
				N: n, InternalPerProc: 3, CommMu: 3, PlantGoal: true, Seed: int64(n), Topology: topo,
				Suffixes: []string{"p"},
			})
			want := 2 * (n - 1)
			for _, skip := range []bool{false, true} {
				nw := &kindNetwork{Network: transport.NewChanNetwork(n)}
				if _, err := Run(RunConfig{Traces: ts, Automaton: mon, SkipFinalize: skip, Network: nw}); err != nil {
					t.Fatalf("n=%d %v skip=%v: %v", n, topo, skip, err)
				}
				if term, fini := nw.count(msgTerm), nw.count(msgFini); term != int64(want) || fini != int64(want) {
					t.Errorf("n=%d %v skip=%v: %d term + %d fini messages, want %d + %d", n, topo, skip, term, fini, want, want)
				}
				for seed := int64(1); seed <= schedSeeds; seed++ {
					d := newSchedDriver(t, ts, mon, skip, true, seed)
					if err := d.run(); err != nil {
						t.Fatalf("n=%d %v skip=%v seed %d: %v", n, topo, skip, seed, err)
					}
					if term, fini := d.nw.kinds[msgTerm], d.nw.kinds[msgFini]; term != want || fini != want {
						t.Errorf("n=%d %v skip=%v seed %d: %d term + %d fini messages, want %d + %d", n, topo, skip, seed, term, fini, want, want)
					}
				}
			}
		}
	}
	for _, n := range []int{1, 2, 5, 16} {
		pm := dist.PerProcess(n, "p")
		mon := mustMonitor(t, "F P0.p", pm.Names)
		s, err := NewSession(context.Background(), SessionConfig{N: n, Automaton: mon, Props: pm, Init: make(dist.GlobalState, n)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(4 * (n - 1)); res.NetMessages != want {
			t.Errorf("empty n=%d session sent %d messages, want %d", n, res.NetMessages, want)
		}
	}
}

// TestTerminationEmptyCloseCost pins what closing an empty n = 256 session
// costs: the wave's 4(n−1) messages, and a few megabytes where the all-to-all
// handshake's n-wide floor per message allocated 32 MB.
func TestTerminationEmptyCloseCost(t *testing.T) {
	const n = 256
	mon, pm, err := props.BuildAt("B", 3, false)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(context.Background(), SessionConfig{N: n, Automaton: mon, Props: pm, Init: make(dist.GlobalState, n)})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := s.Close()
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.NetMessages != 4*(n-1) {
		t.Errorf("closing an empty n=%d session sent %d messages, want %d", n, res.NetMessages, 4*(n-1))
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("empty n=%d Close: %d messages, %.1f MB allocated, %v", n, res.NetMessages, float64(allocated)/(1<<20), took)
	if !raceEnabled && allocated > 8<<20 {
		t.Errorf("closing an empty n=%d session allocated %.1f MB, budget 8 MB", n, float64(allocated)/(1<<20))
	}
}

// TestHandshakeRefusesMisrouting: once every process has ended and the root
// has process 1's report, a message the star cannot have sent fails the
// monitor that receives it; the messages the star does send are accepted.
func TestHandshakeRefusesMisrouting(t *testing.T) {
	const n = 3
	ended := func(t *testing.T) []*Monitor {
		mon, pm, err := props.BuildAt("B", 2, false)
		if err != nil {
			t.Fatal(err)
		}
		s := builtSession(t, SessionConfig{N: n, Automaton: mon, Props: pm, Init: make(dist.GlobalState, n)})
		for _, m := range s.monitors {
			m.start()
			m.handleLocalTermination(0)
		}
		return s.monitors
	}
	deliver := func(m *Monitor, from int, msg *wireMsg) error {
		m.handleMessage(transport.Message{From: from, To: m.index, Value: msg})
		return m.err
	}
	report := func(p int) *wireMsg { return &wireMsg{Kind: msgTerm, Term: &termWire{Proc: p}} }
	vector := func(width int) *wireMsg {
		return &wireMsg{Kind: msgTerm, Term: &termWire{Proc: root, Totals: make([]int, width)}}
	}
	fini := func(p int) *wireMsg { return &wireMsg{Kind: msgFini, Fini: p} }
	for _, c := range []struct {
		name     string
		to, from int
		msg      *wireMsg
		want     string
	}{
		{"report from a peer at a peer", 1, 2, report(2), "term from monitor 2, which is not the root"},
		{"fini from a peer at a peer", 1, 2, fini(2), "unexpected fini from monitor 2"},
		{"vector at the root", root, 1, vector(n), "totals vector reached the root"},
		{"vector too narrow", 1, root, vector(n - 1), "totals vector of width 2, want 3"},
		{"vector too wide", 1, root, vector(n + 1), "totals vector of width 4, want 3"},
		{"second report", root, 1, report(1), "unexpected term from process 1"},
		{"root fini before the peer's own", 1, root, fini(root), "unexpected fini from monitor 0"},
	} {
		t.Run(c.name, func(t *testing.T) {
			ms := ended(t)
			if err := deliver(ms[root], 1, report(1)); err != nil {
				t.Fatalf("process 1's report refused: %v", err)
			}
			if err := deliver(ms[c.to], c.from, c.msg); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("monitor %d took %s: error %v, want %q", c.to, c.name, err, c.want)
			}
		})
	}
	t.Run("routed by the star", func(t *testing.T) {
		ms := ended(t)
		for p := 1; p < n; p++ {
			if err := deliver(ms[root], p, report(p)); err != nil {
				t.Fatal(err)
			}
		}
		for p := 1; p < n; p++ {
			if err := deliver(ms[p], root, vector(n)); err != nil {
				t.Fatal(err)
			}
			if !ms[p].quiescent() {
				t.Errorf("monitor %d is not quiescent after the totals vector", p)
			}
		}
	})
}

// TestHandshakeSnapshotPartialEnds snapshots a session in which some
// processes have ended — the root's among them, or not — restores it and
// closes: the wave resumes from the restored marks, and the verdicts are the
// uninterrupted run's.
func TestHandshakeSnapshotPartialEnds(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{N: 5, InternalPerProc: 8, CommMu: 3, PlantGoal: true, Seed: 3, Topology: dist.TopoRing})
	cfg := sessionCfg(t, ts, propsAF(3)["D"])
	events := allEvents(t, ts)
	base, err := NewSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := setString(runToVerdicts(t, base, events, nil))
	for _, ended := range [][]int{{root, 2, 3}, {1, 4}} {
		t.Run(fmt.Sprint(ended), func(t *testing.T) {
			s, err := NewSession(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range events {
				if err := s.Feed(e); err != nil {
					t.Fatal(err)
				}
			}
			for _, p := range ended {
				if err := s.End(p); err != nil {
					t.Fatal(err)
				}
			}
			snap, err := s.Snapshot(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := RestoreSession(context.Background(), cfg, snap)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range ended {
				if done := r.monitors[root].handshake.peerDone[p]; !done {
					t.Errorf("restored root does not know process %d ended", p)
				}
			}
			res, err := r.Close()
			if err != nil {
				t.Fatal(err)
			}
			if got := setString(res.Verdicts); got != want {
				t.Errorf("restored after ending %v: verdicts %s, uninterrupted run %s", ended, got, want)
			}
		})
	}
}

// TestHandshakeSnapshotOfExitedFleet: once every process has ended, every
// monitor exits, and a floor announcement the root's FINI overtook may be left
// unhandled in an exited monitor's inbox, counted as sent and never as
// handled. One such message is simulated by counting a send nobody made: the
// snapshot must still be taken, and restore and close must report the
// uninterrupted run's verdicts.
func TestHandshakeSnapshotOfExitedFleet(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{N: 4, InternalPerProc: 8, CommMu: 3, PlantGoal: true, Seed: 5, Topology: dist.TopoRing})
	cfg := sessionCfg(t, ts, propsAF(3)["D"])
	events := allEvents(t, ts)
	base, err := NewSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := setString(runToVerdicts(t, base, events, nil))

	s, err := NewSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := s.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < cfg.N; p++ {
		if err := s.End(p); err != nil {
			t.Fatal(err)
		}
	}
	s.monitors[1].outSent.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	snap, err := s.Snapshot(ctx)
	if err != nil {
		t.Fatalf("snapshot of an ended session: %v", err)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreSession(context.Background(), cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := setString(res.Verdicts); got != want {
		t.Errorf("restored ended session: verdicts %s, uninterrupted run %s", got, want)
	}
}
