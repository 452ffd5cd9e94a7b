package transport_test

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"decentmon/internal/automaton"
	"decentmon/internal/core"
	"decentmon/internal/dist"
	"decentmon/internal/ltl"
	"decentmon/internal/transport"
	"decentmon/internal/wire"
)

// TestTCPOversizedFrameFailsTheSession plays a peer that announces a frame
// larger than MaxTCPFrame on one connection of a three-monitor session: the
// reader must refuse it without allocating it, and because a broken link
// breaks the channel model the monitors rely on, the network fails as a whole
// — every inbox closes, Send errors, and the session on top of it ends in an
// error for all three monitors instead of waiting for messages that cannot
// come.
func TestTCPOversizedFrameFailsTheSession(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{N: 3, InternalPerProc: 4, CommMu: 2, CommSigma: 1, Seed: 5})
	mon, err := automaton.Build(ltl.MustParse("G (P0.p -> F (P1.p && P2.p))"), ts.Props.Names)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := transport.NewTCPNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	s, err := core.NewSession(context.Background(), core.SessionConfig{
		N: 3, Automaton: mon, Props: ts.Props, Init: ts.InitialState(), Network: nw,
	})
	if err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := nw.RawConn(0, 1).Write(wire.AppendUvarint(nil, transport.MaxTCPFrame+1)); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() {
		_, err := s.Close()
		closed <- err
	}()
	select {
	case err := <-closed:
		if err == nil || !strings.Contains(err.Error(), "network closed") {
			t.Errorf("session over a failed network: want a network-closed error, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("session over a failed network hangs")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > transport.MaxTCPFrame/2 {
		t.Errorf("refusing an oversized frame allocated %d bytes", got)
	}

	for i := 0; i < 3; i++ {
		for open := true; open; {
			select {
			case _, open = <-nw.Endpoint(i).Inbox():
			case <-time.After(10 * time.Second):
				t.Fatalf("inbox %d still open after the network failed", i)
			}
		}
	}
	if err := nw.Endpoint(2).Send(0, []byte("late")); err == nil {
		t.Error("Send on a failed network succeeded")
	}
}

// TestTCPSendRefusesOversizedPayload: the bound holds on the writing side too,
// so an endpoint never sends what its peer would have to refuse.
func TestTCPSendRefusesOversizedPayload(t *testing.T) {
	nw, err := transport.NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	if err := nw.Endpoint(0).Send(1, make([]byte, transport.MaxTCPFrame+1)); err == nil || !strings.Contains(err.Error(), "frame bound") {
		t.Errorf("oversized payload: want a frame-bound error, got %v", err)
	}
	if err := nw.Endpoint(0).Send(1, []byte("fits")); err != nil {
		t.Fatal(err)
	}
	if m := <-nw.Endpoint(1).Inbox(); string(m.Payload) != "fits" {
		t.Errorf("after a refused send the link delivers %q", m.Payload)
	}
}
