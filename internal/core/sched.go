package core

// The pool executor: instead of each monitor goroutine running its own rounds
// (serialExec, the default), the goroutine only blocks for the first input of a
// round and hands the round itself (handle it, drain what else is queued,
// pump: Monitor.round) to a small work-stealing pool of SessionConfig.Shards
// workers. Nothing selects it any more unless asked to: a round submitted is a
// second hand-off and a second wake-up per input, and once messages stopped
// crossing a relay goroutine the pool measured at or below the serial loop on
// every workload (PERFORMANCE.md, "One hand-off per input"). It stays for the
// benchmark's pool cell and TestShardedSchedulerRace until ROADMAP item 4(b)
// deletes it. The loop is Monitor.run either way; only which goroutine
// executes a round differs.
//
// Single-writer invariant (safety argument): a monitor's state is only ever
// touched by one goroutine at a time. The intake goroutine owns it between
// rounds (it reads m.finished()/m.err and stores the input it blocked for);
// the pool worker owns it from the moment the round is submitted until it
// signals the intake's consumed channel. Both handoffs are channel operations,
// so each transfer is a happens-before edge: no lock is needed and the race
// detector agrees (TestShardedSchedulerRace). At most one round per monitor
// is ever outstanding, by construction of the loop. The drain inside a round
// reads the feed queue and the inbox from the worker; both are channels, and
// the intake is not reading them meanwhile.
//
// Shutdown (Close-never-wedges): rounds never block — the drain is
// select/default, handlers and pump only do non-blocking sends (a transport
// send overflows instead of waiting, verdict and relief channels are sent with
// select/default) — and the intake selects on ctx.Done() wherever it waits.
// Session.Close stops the scheduler only after every intake goroutine
// returned; scheduler close waits for in-flight rounds and discards queued
// ones. A discarded round belongs to an intake that already exited on
// ctx.Done(), so no consumed-signal is missed and no worker touches monitor
// state after close() returns (which makes Session.collect race-free).

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
)

// scheduler is a small work-stealing task pool. Submitters append to a
// per-worker deque round-robin; workers pop their own deque LIFO (cache-warm)
// and steal FIFO from others when empty, parking when the whole pool is dry.
type scheduler struct {
	workers []*schedWorker
	stop    chan struct{}
	wg      sync.WaitGroup
	rr      atomic.Uint32
}

type schedWorker struct {
	mu    sync.Mutex
	deque []func()
	// wake has capacity 1: a submit to a parked worker cannot be lost (the
	// buffered signal survives until the worker's next select), and a submit
	// to a busy worker collapses into the pending signal.
	wake chan struct{}
}

func newScheduler(p int) *scheduler {
	s := &scheduler{stop: make(chan struct{})}
	for i := 0; i < p; i++ {
		s.workers = append(s.workers, &schedWorker{wake: make(chan struct{}, 1)})
	}
	for i := range s.workers {
		s.wg.Add(1)
		go s.run(i)
	}
	return s
}

// submit queues one task. Tasks must not block (see the package comment) and
// may run on any worker. The target worker is chosen round-robin; one
// neighbour is also woken so a parked pool starts stealing immediately.
func (s *scheduler) submit(task func()) {
	i := int(s.rr.Add(1)) % len(s.workers)
	w := s.workers[i]
	w.mu.Lock()
	w.deque = append(w.deque, task)
	w.mu.Unlock()
	w.nudge()
	s.workers[(i+1)%len(s.workers)].nudge()
}

// nudge wakes the worker if it is parked (see schedWorker.wake).
func (w *schedWorker) nudge() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// close stops the pool: in-flight tasks finish, queued tasks are discarded
// (their intakes have already exited; see the package comment), and workers
// exit. After close returns no task code runs.
func (s *scheduler) close() {
	close(s.stop)
	s.wg.Wait()
}

func (s *scheduler) run(id int) {
	defer s.wg.Done()
	w := s.workers[id]
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		task := w.take(false)
		if task == nil {
			task = s.steal(id)
		}
		if task != nil {
			task()
			continue
		}
		select {
		case <-w.wake:
		case <-s.stop:
			return
		}
	}
}

// take removes one task from the worker's deque: the newest for its owner
// (LIFO: the round most likely to find its monitor's state still in cache),
// the oldest for a thief (FIFO: the one the owner would reach last).
func (w *schedWorker) take(oldest bool) func() {
	w.mu.Lock()
	defer w.mu.Unlock()
	i := len(w.deque) - 1
	if i < 0 {
		return nil
	}
	if oldest {
		i = 0
	}
	t := w.deque[i]
	w.deque = slices.Delete(w.deque, i, i+1) // Delete clears the vacated slot
	return t
}

// steal takes the oldest task of some other worker.
func (s *scheduler) steal(self int) func() {
	p := len(s.workers)
	off := rand.Intn(p)
	for k := 0; k < p; k++ {
		if i := (off + k) % p; i != self {
			if t := s.workers[i].take(true); t != nil {
				return t
			}
		}
	}
	return nil
}

// exec is the pool's executor (monitor.go): a step submits the round and waits
// for the worker to signal it done, or for ctx. On ctx the round may still be
// queued or running; close() discards or finishes it before anyone reads the
// monitor's state again.
func (s *scheduler) exec(ctx context.Context, round func()) func() error {
	consumed := make(chan struct{}, 1)
	task := func() {
		round()
		consumed <- struct{}{} // capacity 1, one round outstanding: never blocks
	}
	return func() error {
		s.submit(task)
		select {
		case <-consumed:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
