package core

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/props"
	"decentmon/internal/transport"
)

// TestShardedSchedulerRace is the shard-scheduler stress test: the calibrated
// 16-process workload runs over every generator topology through a *forced*
// multi-worker work-stealing pool (so the path is exercised even when
// GOMAXPROCS is 1), and its verdict set must equal the serial
// goroutine-per-monitor path's on the same traces. Run it under `go test
// -race` to check the single-writer handoff invariant of sched.go: the race
// detector sees every intake→worker and worker→intake transfer.
func TestShardedSchedulerRace(t *testing.T) {
	mon, pm, err := props.BuildAt("B", 3, false)
	if err != nil {
		t.Fatal(err)
	}
	topos := dist.Topologies
	if testing.Short() {
		// -short (the CI race job) still crosses the sharded/serial pair on
		// the two structurally extreme topologies.
		topos = []dist.Topology{dist.TopoRing, dist.TopoBroadcast}
	}
	for _, topo := range topos {
		t.Run(topo.String(), func(t *testing.T) {
			// Broadcast needs sparser communication to stay in the engine's
			// tractable regime: every send fans out to 15 receives, so at the
			// ring's density each event's vector clock entangles nearly the
			// whole computation and the least consistent cut enabling a guard
			// sits far above early search origins — the exact region between
			// them exceeds any workable MaxBoxNodes, in serial and sharded
			// runs alike (the box-explosion mode documented in
			// PERFORMANCE.md).
			commMu := 6.0
			if topo == dist.TopoBroadcast {
				commMu = 12
			}
			ts, err := dist.Generate(dist.GenConfig{
				N: 16, InternalPerProc: 4, CommMu: commMu, CommSigma: 1,
				Topology: topo, PlantGoal: true, Seed: 1,
				TrueProbs: map[string]float64{"p": 0.9, "q": 0.8},
			}).WithProps(pm)
			if err != nil {
				t.Fatal(err)
			}
			run := func(shards int) map[automaton.Verdict]bool {
				// MaxLag keeps the backpressure gate in the loop so the race
				// run also crosses admission credits with sharded pumping.
				res, err := Run(RunConfig{
					Traces: ts, Automaton: mon, SkipFinalize: true, Shards: shards, MaxLag: 64,
				})
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				return res.Verdicts
			}
			sharded := run(4)
			serial := run(1)
			if setString(sharded) != setString(serial) {
				t.Errorf("sharded verdicts %s != serial %s", setString(sharded), setString(serial))
			}
		})
	}
}

// TestSchedulerPoolDrains pins the pool mechanics directly: many submitters,
// all tasks run exactly once, close() returns with nothing in flight.
func TestSchedulerPoolDrains(t *testing.T) {
	sched := newScheduler(4)
	const tasks = 1000
	var ran [tasks]int32
	var wg sync.WaitGroup
	wg.Add(tasks)
	for i := 0; i < tasks; i++ {
		i := i
		sched.submit(func() {
			ran[i]++
			wg.Done()
		})
	}
	wg.Wait()
	sched.close()
	for i, c := range ran {
		if c != 1 {
			t.Fatalf("task %d ran %d times, want 1", i, c)
		}
	}
}

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

// TestRoundOrderSameUnderBothExecutors: with messages and feed items both
// queued behind a round in progress, the handlers run in one order whichever
// executor runs the round — queued messages first, then the local events, each
// handled as it is dequeued. Fetches make the order visible: a reply carries
// the local events handled before it. (PR 17's pool collected such a batch the
// same way and then handled every feed item before every message.)
func TestRoundOrderSameUnderBothExecutors(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{N: 2, InternalPerProc: 4, CommMu: -1, Seed: 1})
	own := ts.Traces[0].Events
	fetch, err := encodeMsg(&wireMsg{Kind: msgFetch, Fetch: &fetchWire{Requester: 1, FromSN: 1}})
	if err != nil {
		t.Fatal(err)
	}
	replies := func(shards int) []int {
		nw := &gatedNetwork{Network: transport.NewChanNetwork(2), entered: make(chan struct{}), gate: make(chan struct{})}
		cfg := sessionCfg(t, ts, "G P0.p")
		cfg.Network, cfg.Shards, cfg.SkipFinalize = nw, shards, true
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
		return carried
	}
	serial, pool := replies(1), replies(2)
	if want := []int{0, 0, 0}; !slices.Equal(serial, want) || !slices.Equal(pool, want) {
		t.Errorf("events carried by the three fetch replies: serial %v, pool %v, want %v (messages ahead of queued local events)", serial, pool, want)
	}
}
