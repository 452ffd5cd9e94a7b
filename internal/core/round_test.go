package core

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"

	"decentmon/internal/dist"
	"decentmon/internal/transport"
)

// gatedNetwork holds endpoint 0's first fetch reply until the gate opens — so a test
// can stop monitor 0 inside a round, queue inputs behind it, and let go — and
// records what endpoint 0 sends. Its endpoints are transport.Endpoint and
// nothing more, so every message crosses as bytes.
type gatedNetwork struct {
	transport.Network
	entered, gate chan struct{}
	once          sync.Once
	mu            sync.Mutex
	sent          [][]byte
}

func (g *gatedNetwork) Endpoint(i int) transport.Endpoint {
	ep := g.Network.Endpoint(i)
	if i != 0 {
		return struct{ transport.Endpoint }{ep}
	}
	return gatedEndpoint{ep, g}
}

type gatedEndpoint struct {
	transport.Endpoint
	g *gatedNetwork
}

func (e gatedEndpoint) Send(to int, payload []byte) error {
	if msgKind(payload[0]) == msgFetchReply {
		e.g.once.Do(func() {
			close(e.g.entered)
			<-e.g.gate
		})
	}
	e.g.mu.Lock()
	e.g.sent = append(e.g.sent, payload)
	e.g.mu.Unlock()
	return e.Endpoint.Send(to, payload)
}

// TestRoundServesMessagesFirst: with messages and feed items both queued
// behind a round in progress, the round drains the queued messages first, then
// the local events, each handled as it is dequeued. Fetches make the order
// visible: a reply carries the local events handled before it, so all three
// replies carry none.
func TestRoundServesMessagesFirst(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{N: 2, InternalPerProc: 4, CommMu: -1, Seed: 1})
	own := ts.Traces[0].Events
	fetch, err := encodeMsg(&wireMsg{Kind: msgFetch, Fetch: &fetchWire{Requester: 1, FromSN: 1}})
	if err != nil {
		t.Fatal(err)
	}
	nw := &gatedNetwork{Network: transport.NewChanNetwork(2), entered: make(chan struct{}), gate: make(chan struct{})}
	cfg := sessionCfg(t, ts, "G P0.p")
	cfg.Network, cfg.SkipFinalize = nw, true
	s, err := NewSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	peer := nw.Network.Endpoint(1)
	// Monitor 0 stops inside the reply to this fetch, mid-round.
	if err := peer.Send(0, fetch); err != nil {
		t.Fatal(err)
	}
	<-nw.entered
	for _, e := range own[:2] {
		if err := s.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 {
		if err := peer.Send(0, fetch); err != nil {
			t.Fatal(err)
		}
	}
	// Sends are asynchronous: wait until both fetches sit in the inbox, so
	// that the round finds them queued beside the local events.
	for inbox := nw.Network.Endpoint(0).Inbox(); len(inbox) < 2; {
		runtime.Gosched()
	}
	close(nw.gate)
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var carried []int
	for _, payload := range nw.sent {
		if msg, err := decodeMsg(payload, 2); err != nil {
			t.Fatal(err)
		} else if msg.Kind == msgFetchReply {
			carried = append(carried, len(msg.FetchReply.Events))
		}
	}
	if want := []int{0, 0, 0}; !slices.Equal(carried, want) {
		t.Errorf("events carried by the three fetch replies: %v, want %v (messages ahead of queued local events)", carried, want)
	}
}
