package decentmon

import (
	"context"
	"io"
	"testing"

	"decentmon/internal/dist"
)

// driveHandles replays events[from:to] of a recorded trace set through live
// Process handles, sharing the cross-snapshot token ledger (a send before
// the snapshot may be received after the restore).
func driveHandles(t *testing.T, s *Session, events []*dist.Event, from, to int, tokens map[int]MsgToken) {
	t.Helper()
	for _, e := range events[from:to] {
		h := s.Process(e.Proc)
		var err error
		switch e.Type {
		case dist.Internal:
			err = h.Internal(e.State)
		case dist.Send:
			var tok MsgToken
			tok, err = h.Send(e.Peer, e.State)
			tokens[e.MsgID] = tok
		case dist.Recv:
			tok, ok := tokens[e.MsgID]
			if !ok {
				t.Fatalf("recv of message %d before its send", e.MsgID)
			}
			err = h.Recv(tok, e.State)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

func mustCaseSpec(t *testing.T, prop string, arity int) *Spec {
	t.Helper()
	s, err := CaseStudySpecAt(prop, arity)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func streamEvents(t *testing.T, ts *TraceSet) []*dist.Event {
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

// TestSessionSnapshotRestoreLiveHandles is the facade durability acceptance:
// a live-handle session is snapshotted mid-execution, the original is
// discarded, and a session restored from the blob — its handles continuing
// with the *same* stamper clocks — finishes to the uninterrupted run's
// verdict set.
func TestSessionSnapshotRestoreLiveHandles(t *testing.T) {
	ts := Generate(GenConfig{N: 4, InternalPerProc: 8, CommMu: 3, PlantGoal: true, Seed: 21})
	spec := mustCaseSpec(t, "B", 4)
	events := streamEvents(t, ts)

	full, err := NewSession(spec, 4, WithInitialState(ts.InitialState()))
	if err != nil {
		t.Fatal(err)
	}
	tokens := map[int]MsgToken{}
	driveHandles(t, full, events, 0, len(events), tokens)
	want, err := full.Close()
	if err != nil {
		t.Fatal(err)
	}

	for _, cut := range []int{1, len(events) / 3, 2 * len(events) / 3} {
		s, err := NewSession(spec, 4, WithInitialState(ts.InitialState()))
		if err != nil {
			t.Fatal(err)
		}
		tokens := map[int]MsgToken{}
		driveHandles(t, s, events, 0, cut, tokens)
		snap, err := s.Snapshot(context.Background())
		if err != nil {
			t.Fatalf("snapshot at %d/%d: %v", cut, len(events), err)
		}
		if _, err := s.Close(); err != nil { // the "kill": this session is discarded
			t.Fatal(err)
		}
		r, err := RestoreSession(spec, 4, snap, WithInitialState(ts.InitialState()))
		if err != nil {
			t.Fatalf("restore at %d/%d: %v", cut, len(events), err)
		}
		fed := r.Fed()
		for p, f := range fed {
			if got := countFed(events[:cut], p); f != got {
				t.Fatalf("restored Fed()[%d] = %d, drove %d", p, f, got)
			}
		}
		driveHandles(t, r, events, cut, len(events), tokens)
		got, err := r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if verdictKey(got.Verdicts) != verdictKey(want.Verdicts) {
			t.Errorf("killed at %d/%d: verdicts %v != uninterrupted %v",
				cut, len(events), got.VerdictList(), want.VerdictList())
		}
	}
}

func countFed(events []*dist.Event, p int) int {
	n := 0
	for _, e := range events {
		if e.Proc == p {
			n++
		}
	}
	return n
}

// TestSessionSnapshotRefusals pins the unsupported combinations:
// WithValidation cannot restore, and a snapshot never restores under a
// different property or initial state.
func TestSessionSnapshotRefusals(t *testing.T) {
	ts := Generate(GenConfig{N: 3, InternalPerProc: 4, CommMu: 2, Seed: 5})
	spec := mustCaseSpec(t, "B", 3)

	s, err := NewSession(spec, 3, WithInitialState(ts.InitialState()))
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

	if _, err := RestoreSession(spec, 3, snap, WithValidation()); err == nil {
		t.Error("restore with WithValidation must fail")
	}
	other := mustCaseSpec(t, "A", 3)
	if _, err := RestoreSession(other, 3, snap, WithInitialState(ts.InitialState())); err == nil {
		t.Error("restore under a different property must fail")
	}
	if _, err := RestoreSession(spec, 3, snap, WithInitialState(GlobalState{1, 0, 0})); err == nil {
		t.Error("restore under a different initial state must fail")
	}
	if _, err := RestoreSession(spec, 3, nil); err == nil {
		t.Error("restore from an empty blob must fail")
	}
	for off := 0; off < len(snap); off += 11 {
		mut := append([]byte(nil), snap...)
		mut[off] ^= 0x3C
		if _, err := RestoreSession(spec, 3, mut, WithInitialState(ts.InitialState())); err == nil {
			t.Fatalf("byte flip at offset %d accepted", off)
		}
	}
}
