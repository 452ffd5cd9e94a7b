package core

// Tests of the snapshot barrier's wake-up (snapshot.go): the coordinator
// sleeps until a monitor round signals, so every way of forgetting a signal
// shows as a Snapshot that never returns. Each test bounds the call.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decentmon/internal/dist"
)

// snapshotWithin runs Snapshot on its own goroutine and fails the test if it
// has not returned after limit.
func snapshotWithin(t *testing.T, s *Session, ctx context.Context, limit time.Duration) ([]byte, error) {
	t.Helper()
	type out struct {
		blob []byte
		err  error
	}
	done := make(chan out, 1)
	go func() {
		blob, err := s.Snapshot(ctx)
		done <- out{blob, err}
	}()
	select {
	case o := <-done:
		return o.blob, o.err
	case <-time.After(limit):
		t.Fatalf("Snapshot still waiting after %v", limit)
		return nil, nil
	}
}

// TestSnapshotWakesOnInit: a session that has been fed nothing has exactly
// one round per monitor to wait for, the INIT round. If the loop forgets to
// signal it, the coordinator that arrives first sleeps forever. Many rounds,
// because the race is between session launch and the coordinator's flag
// store. Shards is ignored now; both settings must still behave alike.
func TestSnapshotWakesOnInit(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{N: 4, InternalPerProc: 6, CommMu: 3, PlantGoal: true, Seed: 42})
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			cfg := sessionCfg(t, ts, propsAF(4)["D"])
			cfg.Shards = shards
			for round := 0; round < 200; round++ {
				s, err := NewSession(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				snap, err := snapshotWithin(t, s, context.Background(), 10*time.Second)
				if err != nil {
					t.Fatalf("snapshot of a fresh session: %v", err)
				}
				s.Close()
				r, err := RestoreSession(context.Background(), cfg, snap)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := snapshotWithin(t, r, context.Background(), 10*time.Second); err != nil {
					t.Fatalf("snapshot of a restored session: %v", err)
				}
				r.Close()
			}
		})
	}
}

// TestSnapshotWaitIsCancellable: a coordinator that cannot reach quiescence
// gives up as soon as its own context or the session's is cancelled. The
// wait is made endless by accounting one feed item that is never enqueued.
func TestSnapshotWaitIsCancellable(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{N: 3, InternalPerProc: 4, CommMu: 2, Seed: 5})
	cfg := sessionCfg(t, ts, propsAF(3)["B"])

	t.Run("already cancelled", func(t *testing.T) {
		s, err := NewSession(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := snapshotWithin(t, s, ctx, 10*time.Second); !errors.Is(err, context.Canceled) {
			t.Errorf("snapshot under a cancelled context: %v", err)
		}
	})

	for _, who := range []string{"caller", "session"} {
		t.Run(who+" cancels mid-wait", func(t *testing.T) {
			sessCtx, cancelSess := context.WithCancel(context.Background())
			defer cancelSess()
			s, err := NewSession(sessCtx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.feedItems.Add(1) // an input that never arrives
			callCtx, cancelCall := context.WithCancel(context.Background())
			defer cancelCall()
			cancel := cancelCall
			if who == "session" {
				cancel = cancelSess
			}
			go func() {
				// Cancel once the coordinator has raised its flag, i.e. is
				// inside the wait this test is about.
				for !s.quiesce.waiting.Load() {
					time.Sleep(50 * time.Microsecond)
				}
				cancel()
			}()
			if _, err := snapshotWithin(t, s, callCtx, 10*time.Second); !errors.Is(err, context.Canceled) {
				t.Errorf("snapshot cancelled mid-wait: %v", err)
			}
			if s.quiesce.waiting.Load() {
				t.Error("coordinator left its waiting flag raised")
			}
		})
	}
}

// TestSnapshotUnderConcurrentFeed is the barrier's conformance run, meant for
// -race: one feeder per process, a snapshot every few events taken by
// whichever feeder crosses the boundary (so snapshots contend with feeds and
// with each other), at least 200 snapshots, then the last blob restored and
// fed the rest — the verdict set must be the uninterrupted run's.
func TestSnapshotUnderConcurrentFeed(t *testing.T) {
	const every = 8
	ts := dist.Generate(dist.GenConfig{N: 4, InternalPerProc: 500, CommMu: 3, CommSigma: 1, PlantGoal: true, Seed: 9})
	events := allEvents(t, ts)
	prefix := events[:len(events)*9/10]
	if len(prefix)/every < 200 {
		t.Fatalf("trace of %d events gives only %d snapshots", len(events), len(prefix)/every)
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			cfg := sessionCfg(t, ts, propsAF(4)["B"])
			cfg.Shards = shards
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
			if snaps < 200 {
				t.Fatalf("took %d snapshots, want at least 200", snaps)
			}
			r, err := RestoreSession(context.Background(), cfg, last)
			if err != nil {
				t.Fatal(err)
			}
			if got := setString(runToVerdicts(t, r, events, r.Fed())); got != want {
				t.Errorf("verdicts after %d snapshots and a restore = %s, uninterrupted = %s", snaps, got, want)
			}
		})
	}
}
