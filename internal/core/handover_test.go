package core

// Tests of the in-memory hand-over (messages.go, Monitor.deliver): the bytes
// it accounts are the bytes the codec would have produced, the events every
// monitor of a session now shares are never written, and a handed-over fetch
// reply costs a constant number of allocations.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/ltl"
	"decentmon/internal/transport"
)

// tallyNetwork is a ChanNetwork whose endpoints still hand values over, but
// encode each one first and add up the lengths: the sum Stats was handed can
// then be held against the sum of encoded lengths of the very same messages.
type tallyNetwork struct {
	transport.Network
	encoded atomic.Int64
	errs    atomic.Int64
}

func (t *tallyNetwork) Endpoint(i int) transport.Endpoint {
	ep := t.Network.Endpoint(i)
	return &tallyEndpoint{Endpoint: ep, hand: ep.(transport.ValueSender), net: t}
}

type tallyEndpoint struct {
	transport.Endpoint
	hand transport.ValueSender
	net  *tallyNetwork
}

func (e *tallyEndpoint) SendValue(to int, v any, size int) error {
	payload, err := encodeMsg(v.(*wireMsg)) // before the send: a token is no longer ours after it
	if err != nil {
		e.net.errs.Add(1)
	}
	e.net.encoded.Add(int64(len(payload)))
	return e.hand.SendValue(to, v, size)
}

// TestHandOverAccountsEncodedBytes: on a ChanNetwork run no message is
// encoded, yet NetBytes is exactly what encoding every one of them would have
// put on the wire.
func TestHandOverAccountsEncodedBytes(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{N: 4, InternalPerProc: 60, CommMu: 3, CommSigma: 1, PlantGoal: true, Seed: 5, Topology: dist.TopoRing})
	mon := mustMonitor(t, propsAF(4)["D"], ts.Props.Names)
	nw := &tallyNetwork{Network: transport.NewChanNetwork(ts.N())}
	res, err := Run(RunConfig{Traces: ts, Automaton: mon, Network: nw})
	if err != nil {
		t.Fatal(err)
	}
	if nw.errs.Load() != 0 {
		t.Fatalf("%d handed-over messages do not encode", nw.errs.Load())
	}
	if res.NetMessages == 0 || res.NetBytes != nw.encoded.Load() {
		t.Errorf("Stats counted %d bytes over %d messages, their encodings add up to %d",
			res.NetBytes, res.NetMessages, nw.encoded.Load())
	}
}

// TestSharedEventsUntouched feeds an n=8 ring stream from one feeder per
// process while snapshots are taken every few events, restores the last blob
// and finishes the run from it. Every monitor that learns of an event now
// holds the feeder's own *dist.Event, so a write through one anywhere in the
// engine is a cross-goroutine race: under -race the detector sees it, and the
// fingerprints taken before the first Feed and after the last Close catch it
// without. The restored run must report the uninterrupted run's verdicts.
func TestSharedEventsUntouched(t *testing.T) {
	const every = 16
	ts := dist.Generate(dist.GenConfig{
		N: 8, InternalPerProc: 150, CommMu: 6, CommSigma: 1,
		Topology: dist.TopoRing, Suffixes: []string{"p"}, Seed: 2,
		TrueProbs: map[string]float64{"p": 0.5},
	})
	events := allEvents(t, ts)
	prefix := events[:len(events)*9/10]
	if len(prefix)/every < 50 {
		t.Fatalf("trace of %d events gives only %d snapshots", len(events), len(prefix)/every)
	}
	fingerprint := func() []string {
		out := make([]string, len(events))
		for i, e := range events {
			out[i] = fmt.Sprintf("%+v", *e)
		}
		return out
	}
	before := fingerprint()

	cfg := sessionCfg(t, ts, "G (P0.p -> F (P1.p && P2.p))")
	base, err := NewSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := setString(runToVerdicts(t, base, events, nil))

	s, err := NewSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var (
		fed   atomic.Int64
		mu    sync.Mutex
		last  []byte
		lastN int64
		snaps int
		wg    sync.WaitGroup
	)
	for p := 0; p < ts.N(); p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for _, e := range prefix {
				if e.Proc != p {
					continue
				}
				if err := s.Feed(e); err != nil {
					t.Errorf("feeder %d: %v", p, err)
					return
				}
				n := fed.Add(1)
				if n%every != 0 {
					continue
				}
				snap, err := s.Snapshot(ctx)
				if err != nil {
					t.Errorf("snapshot at %d events: %v", n, err)
					return
				}
				mu.Lock()
				snaps++
				if n > lastN {
					last, lastN = snap, n
				}
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	s.Close() // abandoned: the run continues from the blob
	if t.Failed() {
		return
	}
	if snaps < 50 {
		t.Fatalf("took %d snapshots, want at least 50", snaps)
	}
	r, err := RestoreSession(context.Background(), cfg, last)
	if err != nil {
		t.Fatal(err)
	}
	if got := setString(runToVerdicts(t, r, events, r.Fed())); got != want {
		t.Errorf("verdicts after %d snapshots and a restore = %s, uninterrupted = %s", snaps, got, want)
	}
	for i, was := range before {
		if now := fmt.Sprintf("%+v", *events[i]); now != was {
			t.Fatalf("event %d was written while three sessions shared it:\n before %s\n after  %s", i, was, now)
		}
	}
}

// TestAllocsHandOver gates the hand-over itself: a warmed fetch reply crosses
// a ChanNetwork — served, queued, drained, handled — for the envelope, the
// reply record and the copied pointer slice, however many events it carries.
// (On the byte path the same reply costs a payload and, at the receiver, an
// event and a clock slab per 32 events: TestAllocsSegmentDecode.)
func TestAllocsHandOver(t *testing.T) {
	const most = 4096
	ts := dist.Generate(dist.GenConfig{N: 2, InternalPerProc: most, CommMu: -1, Seed: 1})
	mon, err := automaton.Build(ltl.MustParse("G P0.p"), ts.Props.Names)
	if err != nil {
		t.Fatal(err)
	}
	own := ts.Traces[0].Events
	for _, k := range []int{4, most} {
		nw := transport.NewChanNetwork(2)
		var ms [2]*Monitor
		for i := range ms {
			if ms[i], err = New(Config{Index: i, N: 2, Automaton: mon, Props: ts.Props, Init: ts.InitialState()}, nw.Endpoint(i)); err != nil {
				t.Fatal(err)
			}
		}
		// The replier owns k events; the requester already knows them, so
		// handling the reply merges nothing and the knowledge window's own
		// growth stays out of the count.
		for _, e := range own[:k] {
			if err := ms[0].know.append(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := ms[1].know.merge(0, own[:k]); err != nil {
			t.Fatal(err)
		}
		fetch := &fetchWire{Requester: 1, FromSN: 1, ToSN: k}
		carried := 0
		roundTrip := func() {
			ms[0].serveFetch(1, fetch)
			msg := <-nw.Endpoint(1).Inbox()
			carried = len(msg.Value.(*wireMsg).FetchReply.Events)
			ms[1].handleMessage(msg)
		}
		roundTrip() // warm-up: the queue's backing array
		allocs := testing.AllocsPerRun(100, roundTrip)
		nw.Close()
		if ms[0].err != nil || ms[1].err != nil {
			t.Fatal(ms[0].err, ms[1].err)
		}
		if carried != k {
			t.Fatalf("reply carried %d events, want %d", carried, k)
		}
		if allocs > 3 {
			t.Errorf("a handed-over reply of %d events allocates %.1f objects, budget 3 (envelope, reply, pointer slice)", k, allocs)
		}
		t.Logf("hand-over of %d events: %.2f allocs", k, allocs)
	}
}
