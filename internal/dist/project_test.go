package dist

import (
	"io"
	"strings"
	"testing"

	"decentmon/internal/vclock"
)

func TestSourceWithProps(t *testing.T) {
	ts := Generate(GenConfig{N: 3, InternalPerProc: 3, CommMu: 2, Seed: 2})
	sub := PerProcess(2, "p")
	src, err := SourceWithProps(ts.Stream(), sub)
	if err != nil {
		t.Fatal(err)
	}
	if src.Props() != sub || src.N() != 3 {
		t.Errorf("props/N not re-bound: %v/%d", src.Props(), src.N())
	}
	count := 0
	for {
		if _, err := src.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		count++
	}
	if count != ts.TotalEvents() {
		t.Errorf("events changed: %d vs %d", count, ts.TotalEvents())
	}
	if _, err := SourceWithProps(ts.Stream(), PerProcess(4, "p")); err == nil {
		t.Error("overflowing owner accepted")
	}
	if _, err := SourceWithProps(ts.Stream(), nil); err == nil {
		t.Error("nil prop space accepted")
	}
}

// TestValidatorModes pins the one difference between the strict stream
// validator and the session validator: the timestamp ordering scope.
func TestValidatorModes(t *testing.T) {
	events := []*Event{
		{Proc: 0, SN: 1, Type: Internal, Peer: -1, State: 1, VC: vclock.VC{1, 0}, Time: 5},
		{Proc: 1, SN: 1, Type: Internal, Peer: -1, State: 1, VC: vclock.VC{0, 1}, Time: 2}, // earlier than the stream head
	}
	strict := NewValidator(2)
	if err := strict.Check(events[0]); err != nil {
		t.Fatal(err)
	}
	if err := strict.Check(events[1]); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Errorf("strict validator accepted a global timestamp regression: %v", err)
	}
	session := NewSessionValidator(2)
	for _, e := range events {
		if err := session.Check(e); err != nil {
			t.Errorf("session validator rejected a concurrent interleaving: %v", err)
		}
	}
	if session.Events() != 2 {
		t.Errorf("validated %d events, want 2", session.Events())
	}
	// Both reject causal violations identically.
	recv := &Event{Proc: 1, SN: 2, Type: Recv, Peer: 0, MsgID: 9, State: 1, VC: vclock.VC{1, 2}, Time: 6}
	if err := session.Check(recv); err == nil || !strings.Contains(err.Error(), "never sent") {
		t.Errorf("session validator accepted an unsent message: %v", err)
	}
}

// TestRebindLayoutMismatch: re-binding must refuse proposition spaces
// whose bit layout disagrees with the execution's own packing.
func TestRebindLayoutMismatch(t *testing.T) {
	// -suffixes q,p packs q at bit 0 and p at bit 1.
	ts := Generate(GenConfig{N: 3, InternalPerProc: 2, CommMu: -1, Seed: 1, Suffixes: []string{"q", "p"}})
	// PerProcess(2, "p") reads p from bit 0 — the execution's q.
	if _, err := SourceWithProps(ts.Stream(), PerProcess(2, "p")); err == nil {
		t.Error("p-at-bit-0 rebinding accepted over a q,p-packed execution")
	} else if !strings.Contains(err.Error(), "packed") {
		t.Errorf("wrong error: %v", err)
	}
	// Same layout is fine.
	if _, err := SourceWithProps(ts.Stream(), PerProcess(2, "q", "p")); err != nil {
		t.Errorf("matching layout rejected: %v", err)
	}
	// A differently named proposition claiming a packed slot is refused too.
	alien := NewPropMap()
	alien.MustAdd("P0.x", 0) // bit 0 of process 0 = the execution's P0.q
	if _, err := SourceWithProps(ts.Stream(), alien); err == nil {
		t.Error("alien name over a packed slot accepted")
	}
	// Unpacked slots may be claimed: q over a p-only execution reads false.
	pOnly := Generate(GenConfig{N: 2, InternalPerProc: 2, CommMu: -1, Seed: 1, Suffixes: []string{"p"}})
	if _, err := SourceWithProps(pOnly.Stream(), PerProcess(2, "p", "q")); err != nil {
		t.Errorf("unused-slot rebinding rejected: %v", err)
	}
}
