package core

// Checkpoint/restore tests: determinism (re-snapshot is byte-identical),
// conformance (a run killed at an arbitrary point and restored from its
// snapshot reports exactly the verdict set of the uninterrupted run), and
// robustness (corrupt or truncated blobs are rejected with an error, never a
// panic). The conformance matrix deliberately crosses properties and
// communication topologies at n ≤ 8 so snapshots are taken with searches,
// parked tokens and residuals genuinely in flight.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/ltl"
	"decentmon/internal/transport"
	"decentmon/internal/transport/transporttest"
	"decentmon/internal/wire"
)

// feedPrefix feeds the first want events of the stream (in stream order),
// returning the remaining events.
func allEvents(t testing.TB, ts *dist.TraceSet) []*dist.Event {
	t.Helper()
	var evs []*dist.Event
	src := ts.Stream()
	for {
		e, err := src.Next()
		if err == io.EOF {
			return evs
		}
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, e)
	}
}

func sessionCfg(t *testing.T, ts *dist.TraceSet, formula string) SessionConfig {
	t.Helper()
	return SessionConfig{
		N:         ts.N(),
		Automaton: mustMonitor(t, formula, ts.Props.Names),
		Props:     ts.Props,
		Init:      ts.InitialState(),
	}
}

// runToVerdicts drives a session over events, skipping per process anything
// at or below the resume floor, ends every process, and returns the verdict
// set.
func runToVerdicts(t *testing.T, s *Session, events []*dist.Event, fed []int) map[automaton.Verdict]bool {
	t.Helper()
	for _, e := range events {
		if fed != nil && e.SN <= fed[e.Proc] {
			continue
		}
		if err := s.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	return res.Verdicts
}

// TestSnapshotRoundTripByteIdentical pins the determinism contract: restoring
// a snapshot and immediately snapshotting again yields the identical blob
// (sorted-key serialization, no hidden state lost in the round trip).
func TestSnapshotRoundTripByteIdentical(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{N: 4, InternalPerProc: 10, CommMu: 3, PlantGoal: true, Seed: 42})
	cfg := sessionCfg(t, ts, propsAF(4)["D"])
	events := allEvents(t, ts)
	for _, cut := range []int{0, 1, len(events) / 3, len(events) / 2, len(events) - 1} {
		s, err := NewSession(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events[:cut] {
			if err := s.Feed(e); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := s.Snapshot(context.Background())
		if err != nil {
			t.Fatalf("snapshot after %d events: %v", cut, err)
		}
		if _, err := s.Close(); err != nil {
			t.Fatal(err)
		}

		r, err := RestoreSession(context.Background(), cfg, snap)
		if err != nil {
			t.Fatalf("restore after %d events: %v", cut, err)
		}
		again, err := r.Snapshot(context.Background())
		if err != nil {
			t.Fatalf("re-snapshot after %d events: %v", cut, err)
		}
		if !bytes.Equal(snap, again) {
			t.Errorf("after %d events: re-snapshot differs (%d vs %d bytes)", cut, len(snap), len(again))
		}
		if _, err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotRestoreConformance is the kill-mid-run acceptance: across
// properties × topologies at n ≤ 8, snapshot at several points, abandon the
// original run, restore, feed the remainder — the final verdict set must
// equal the uninterrupted run's.
func TestSnapshotRestoreConformance(t *testing.T) {
	type cell struct {
		prop  string
		n     int
		arity int // formula support width: the first arity processes
		gen   dist.GenConfig
	}
	cells := []cell{
		{prop: "B", n: 3, arity: 3, gen: dist.GenConfig{N: 3, InternalPerProc: 8, CommMu: 3, PlantGoal: true, Seed: 3}},
		{prop: "D", n: 5, arity: 5, gen: dist.GenConfig{N: 5, InternalPerProc: 6, EvtMu: 3, CommMu: 3, PlantGoal: true, Seed: 2015,
			TrueProbs: map[string]float64{"p": 0.9, "q": 0.9}, InitTrue: []string{"p", "q"}, Topology: dist.TopoRing}},
		{prop: "A", n: 4, arity: 4, gen: dist.GenConfig{N: 4, InternalPerProc: 7, CommMu: 2, Seed: 7, Topology: dist.TopoStar}},
		// n=8 with the formula's support confined to three processes — a
		// full-width 16-proposition automaton is what reduced arity avoids
		// (same pairing as TestEightProcessesSlicedOracle).
		{prop: "D", n: 8, arity: 3, gen: dist.GenConfig{N: 8, InternalPerProc: 4, CommMu: 2, PlantGoal: true, Seed: 11, Topology: dist.TopoRing}},
	}
	for _, c := range cells {
		c := c
		t.Run(fmt.Sprintf("%s-n%d", c.prop, c.n), func(t *testing.T) {
			t.Parallel()
			ts := dist.Generate(c.gen)
			cfg := sessionCfg(t, ts, propsAF(c.arity)[c.prop])
			events := allEvents(t, ts)

			base, err := NewSession(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := runToVerdicts(t, base, events, nil)

			// Both message paths: handed over in memory (the default network)
			// and through the codec (the same network with the hand-over
			// hidden), each session on a network of its own.
			for _, path := range []string{"hand-over", "bytes"} {
				onPath := func() SessionConfig {
					on := cfg
					if path == "bytes" {
						on.Network = transporttest.BytesOnly(transport.NewChanNetwork(on.N))
					}
					return on
				}
				for _, cut := range []int{1, len(events) / 4, len(events) / 2, 3 * len(events) / 4} {
					s, err := NewSession(context.Background(), onPath())
					if err != nil {
						t.Fatal(err)
					}
					for _, e := range events[:cut] {
						if err := s.Feed(e); err != nil {
							t.Fatal(err)
						}
					}
					snap, err := s.Snapshot(context.Background())
					if err != nil {
						t.Fatalf("%s: snapshot at %d/%d: %v", path, cut, len(events), err)
					}
					if _, err := s.Close(); err != nil { // the "kill": this run is discarded
						t.Fatal(err)
					}
					r, err := RestoreSession(context.Background(), onPath(), snap)
					if err != nil {
						t.Fatalf("%s: restore at %d/%d: %v", path, cut, len(events), err)
					}
					got := runToVerdicts(t, r, events, r.Fed())
					if setString(got) != setString(want) {
						t.Errorf("%s: killed at %d/%d: verdicts %s != uninterrupted %s",
							path, cut, len(events), setString(got), setString(want))
					}
				}
			}
		})
	}
}

// TestSnapshotRestoreReplaysVerdictLog: verdict events delivered before the
// snapshot are re-delivered on the restored session's channel, so a
// subscriber attached after recovery misses nothing.
func TestSnapshotRestoreReplaysVerdictLog(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{N: 3, InternalPerProc: 8, CommMu: 3, PlantGoal: true, Seed: 3})
	cfg := sessionCfg(t, ts, propsAF(3)["B"])
	events := allEvents(t, ts)

	s, err := NewSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := runToVerdicts(t, s, events, nil)
	var before []VerdictEvent
	for ev := range s.Verdicts() {
		before = append(before, ev)
	}
	if len(before) == 0 || len(got) == 0 {
		t.Fatal("fixture produced no verdicts")
	}

	// Snapshot a *finished* run (everything ended and finalized): the whole
	// log must come back.
	s2, err := NewSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := s2.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < cfg.N; p++ {
		if err := s2.End(p); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s2.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreSession(context.Background(), cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	for p, ended := range r.Ended() {
		if !ended {
			t.Errorf("process %d lost its End mark", p)
		}
	}
	res, err := r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if setString(res.Verdicts) != setString(got) {
		t.Errorf("restored finished run reports %s, original %s", setString(res.Verdicts), setString(got))
	}
	var after []VerdictEvent
	for ev := range r.Verdicts() {
		after = append(after, ev)
	}
	if len(after) < len(before) {
		t.Errorf("restored session replayed %d verdict events, original delivered %d", len(after), len(before))
	}
}

// TestSnapshotErrors covers the refusal paths: snapshotting a closed
// session, restoring into a mismatched configuration, and feeding garbage.
func TestSnapshotErrors(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{N: 3, InternalPerProc: 4, CommMu: 2, Seed: 5})
	cfg := sessionCfg(t, ts, propsAF(3)["B"])
	s, err := NewSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(context.Background()); err == nil {
		t.Error("snapshot of a closed session must fail")
	}

	bad := cfg
	bad.Automaton = mustMonitor(t, propsAF(3)["A"], ts.Props.Names)
	if _, err := RestoreSession(context.Background(), bad, snap); err == nil {
		t.Error("restore under a different property must fail")
	}
	// The session record's byte after the fingerprint is reserved and must
	// read 0. Rebuild the blob with it set to 1, so that only the check, not
	// the checksum, can refuse it.
	r, err := dist.OpenSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	flipped := dist.NewSnapshotBuilder()
	for tag, payload, ok := r.Next(); ok; tag, payload, ok = r.Next() {
		if tag == snapTagSession {
			pre := wire.AppendUvarint(wire.AppendInts(nil, cfg.N, cfg.Automaton.NumStates()), automatonFingerprint(cfg.Automaton))
			if !bytes.HasPrefix(payload, pre) || payload[len(pre)] != 0 {
				t.Fatalf("session record %x does not start %x 00", payload, pre)
			}
			payload = bytes.Clone(payload)
			payload[len(pre)] = 1
		}
		flipped.Record(tag, payload)
	}
	if _, err := RestoreSession(context.Background(), cfg, flipped.Finish()); err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Errorf("restore of a session record with reserved byte 1 = %v, want a refusal", err)
	}
	bad = cfg
	bad.SkipFinalize = true
	if _, err := RestoreSession(context.Background(), bad, snap); err == nil {
		t.Error("restore with finalization toggled must fail")
	}
	if _, err := RestoreSession(context.Background(), cfg, nil); err == nil {
		t.Error("restore from an empty blob must fail")
	}
}

// TestSnapshotCorruptionRejected flips and truncates a real snapshot at
// sampled positions: every mutation must be rejected with an error (the
// container checksums the blob) and must never panic.
func TestSnapshotCorruptionRejected(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{N: 3, InternalPerProc: 8, CommMu: 3, PlantGoal: true, Seed: 3})
	cfg := sessionCfg(t, ts, propsAF(3)["B"])
	events := allEvents(t, ts)
	s, err := NewSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events[:len(events)/2] {
		if err := s.Feed(e); err != nil {
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

	for off := 0; off < len(snap); off += 7 {
		mut := append([]byte(nil), snap...)
		mut[off] ^= 0x41
		if _, err := RestoreSession(context.Background(), cfg, mut); err == nil {
			t.Fatalf("byte flip at offset %d accepted", off)
		}
	}
	for l := 0; l < len(snap); l += 13 {
		if _, err := RestoreSession(context.Background(), cfg, snap[:l]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", l)
		}
	}

	// Blobs no honest run writes but whose checksum holds: the search table
	// disagreeing with itself or with the knowledge window. Either would
	// restore a search that suppresses its signature, or pins the GC floor,
	// for good.
	for name, edit := range map[string]func(m *Monitor, id int64, s search){
		"duplicate signature": func(m *Monitor, id int64, s search) {
			m.searches.table[id+1<<20] = s
		},
		"origin past the frontier": func(m *Monitor, id int64, s search) {
			s.origin = s.origin.Clone()
			s.origin[0] = m.know.len(0) + 1
			m.searches.table[id] = s
		},
	} {
		bad := tamperedSnapshot(t, cfg, searchingSnapshot(t, cfg, events), edit)
		if r, err := RestoreSession(context.Background(), cfg, bad); err == nil {
			r.Close()
			t.Errorf("%s: inconsistent search record restored", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}

// outstandingSearch returns a monitor of the idle session s with a search
// outstanding, and that search. The caller must have crossed a Snapshot
// barrier since s last ran a round: that orders the monitors' writes before
// this goroutine's reads.
func outstandingSearch(s *Session) (*Monitor, int64, bool) {
	for _, m := range s.monitors {
		for id := range m.searches.table {
			return m, id, true
		}
	}
	return nil, 0, false
}

// searchingSnapshot feeds events to a fresh session until a snapshot catches
// a search outstanding, and returns that snapshot.
func searchingSnapshot(t testing.TB, cfg SessionConfig, events []*dist.Event) []byte {
	t.Helper()
	s, err := NewSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, e := range events {
		if err := s.Feed(e); err != nil {
			t.Fatal(err)
		}
		snap, err := s.Snapshot(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := outstandingSearch(s); ok {
			return snap
		}
	}
	t.Fatal("no prefix of the trace leaves a search outstanding at quiescence")
	return nil
}

// tamperedSnapshot restores snap, lets edit rewrite one outstanding search of
// the idle session, and returns the re-snapshot: a well-formed, checksummed
// blob of a state no run reaches.
func tamperedSnapshot(t *testing.T, cfg SessionConfig, snap []byte, edit func(*Monitor, int64, search)) []byte {
	t.Helper()
	// The tampered session is abandoned, not finished: with a search that can
	// never resolve it would not terminate, which is the hazard under test.
	ctx, abandon := context.WithCancel(context.Background())
	r, err := RestoreSession(ctx, cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer abandon()
	if _, err := r.Snapshot(context.Background()); err != nil { // the barrier
		t.Fatal(err)
	}
	m, id, ok := outstandingSearch(r)
	if !ok {
		t.Fatal("snapshot holds no outstanding search to tamper with")
	}
	edit(m, id, m.searches.table[id])
	bad, err := r.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return bad
}

// BenchmarkSnapshotCadence measures checkpoint overhead on a long stream:
// the same ~25K-event execution fed with no snapshots, a snapshot every
// 4096 events, and one every 256 (the dlmond default cadence). Snapshot
// quiesces the engine before serializing, so the cost per checkpoint is
// dominated by the drain, not the encode; the events/s metric feeds the
// cadence table in PERFORMANCE.md.
func BenchmarkSnapshotCadence(b *testing.B) {
	ts := dist.Generate(dist.GenConfig{N: 4, InternalPerProc: 2048, CommMu: 3, CommSigma: 1, PlantGoal: true, Seed: 9})
	mon, err := automaton.Build(ltl.MustParse(propsAF(4)["B"]), ts.Props.Names)
	if err != nil {
		b.Fatal(err)
	}
	cfg := SessionConfig{N: ts.N(), Automaton: mon, Props: ts.Props, Init: ts.InitialState()}
	var events []*dist.Event
	src := ts.Stream()
	for {
		e, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		events = append(events, e)
	}
	for _, cadence := range []int{0, 4096, 256} {
		name := "never"
		if cadence > 0 {
			name = fmt.Sprintf("every%d", cadence)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := NewSession(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				for j, e := range events {
					if err := s.Feed(e); err != nil {
						b.Fatal(err)
					}
					if cadence > 0 && (j+1)%cadence == 0 {
						if _, err := s.Snapshot(context.Background()); err != nil {
							b.Fatal(err)
						}
					}
				}
				if _, err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*len(events))/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// FuzzRestoreSession hammers the full restore path — container parsing plus
// per-field validation — with arbitrary bytes and checksum-valid mutants
// (the fuzzer learns to fix the trailing CRC): restore must either fail
// cleanly or produce a session that closes without panicking.
func FuzzRestoreSession(f *testing.F) {
	ts := dist.Generate(dist.GenConfig{N: 3, InternalPerProc: 6, CommMu: 2, PlantGoal: true, Seed: 3})
	mon, err := automaton.Build(ltl.MustParse(propsAF(3)["B"]), ts.Props.Names)
	if err != nil {
		f.Fatal(err)
	}
	cfg := SessionConfig{N: ts.N(), Automaton: mon, Props: ts.Props, Init: ts.InitialState()}

	// Seed corpus: a genuine mid-run snapshot and a fresh-session snapshot.
	seed := func(feed int) []byte {
		s, err := NewSession(context.Background(), cfg)
		if err != nil {
			f.Fatal(err)
		}
		src := ts.Stream()
		for i := 0; i < feed; i++ {
			e, err := src.Next()
			if err != nil {
				break
			}
			if err := s.Feed(e); err != nil {
				f.Fatal(err)
			}
		}
		snap, err := s.Snapshot(context.Background())
		if err != nil {
			f.Fatal(err)
		}
		s.Close()
		return snap
	}
	f.Add(seed(0))
	f.Add(seed(12))
	f.Add(searchingSnapshot(f, cfg, allEvents(f, ts)))
	f.Add([]byte("DMSN"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := RestoreSession(context.Background(), cfg, data)
		if err != nil {
			return
		}
		if _, err := s.Close(); err != nil {
			t.Fatalf("restored session failed to close: %v", err)
		}
	})
}
