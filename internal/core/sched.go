package core

// Sharded monitor scheduling: instead of one OS-scheduled goroutine per
// monitor doing both input waiting and pump work, each monitor keeps a thin
// *intake* goroutine (blocked on its feed queue and network inbox — cheap,
// parked almost always) and hands batches of inputs to a small work-stealing
// pool of pump workers sized to the machine (min(GOMAXPROCS, n) by default).
// At n ≫ cores this keeps every core running pump work instead of paying
// scheduler churn across n runnable goroutines, and it caps the number of
// stacks doing heavy work.
//
// Single-writer invariant (safety argument): a monitor's state is only ever
// touched by exactly one goroutine at a time. The intake goroutine owns the
// state between tasks (it reads m.finished()/m.err and drains channels); the
// pump worker owns it from the moment the task is submitted until it signals
// the intake's consumed channel. Both handoffs are channel operations, so
// each transfer is a happens-before edge: no lock is needed and the race
// detector agrees (TestShardedSchedulerRace). At most one task per monitor
// is ever outstanding, by construction of the intake loop.
//
// Shutdown (Close-never-wedges): tasks never block — handlers and pump only
// do non-blocking sends (transport queues are unbounded, verdict and relief
// channels are sent with select/default). The intake loop selects on
// ctx.Done() everywhere it can wait. Session.Close stops the scheduler only
// after every intake goroutine returned, and scheduler close waits for
// in-flight tasks and discards queued ones — a discarded task belongs to an
// intake that already exited on ctx.Done(), so no consumed-signal is missed
// and, crucially, no worker touches monitor state after close() returns
// (which is what makes Session.collect race-free).

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"decentmon/internal/transport"
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
	if p < 1 {
		p = 1
	}
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
	select {
	case w.wake <- struct{}{}:
	default:
	}
	if len(s.workers) > 1 {
		nb := s.workers[(i+1)%len(s.workers)]
		select {
		case nb.wake <- struct{}{}:
		default:
		}
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
		task := w.popOwn()
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

// popOwn pops the worker's own deque LIFO: the most recently submitted batch
// is the most likely to have its monitor state still in cache.
func (w *schedWorker) popOwn() func() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n := len(w.deque); n > 0 {
		t := w.deque[n-1]
		w.deque[n-1] = nil
		w.deque = w.deque[:n-1]
		return t
	}
	return nil
}

// steal takes the oldest task from some other worker (FIFO end: the task its
// owner would reach last).
func (s *scheduler) steal(self int) func() {
	p := len(s.workers)
	off := rand.Intn(p)
	for k := 0; k < p; k++ {
		i := (off + k) % p
		if i == self {
			continue
		}
		w := s.workers[i]
		w.mu.Lock()
		if len(w.deque) > 0 {
			t := w.deque[0]
			copy(w.deque, w.deque[1:])
			w.deque[len(w.deque)-1] = nil
			w.deque = w.deque[:len(w.deque)-1]
			w.mu.Unlock()
			return t
		}
		w.mu.Unlock()
	}
	return nil
}

// RunSharded executes the monitor like Run, but with pump work delegated to
// the shared scheduler: the calling goroutine only waits for inputs and
// batches them, and each batch is processed (handlers + one pump) as a pool
// task. Behaviour, verdicts and metrics are identical to Run — the two paths
// share every handler and the pump; only *which goroutine* executes them
// differs (see the single-writer invariant above).
func (m *Monitor) RunSharded(ctx context.Context, sched *scheduler) error {
	if ctx == nil {
		ctx = context.Background()
	}
	m.start(ctx)   // INIT + first pump, inline: no task is outstanding yet
	m.roundDone(1) // the INIT round, as in Run
	inbox := m.ep.Inbox()
	consumed := make(chan struct{}, 1)
	var items []feedItem
	var msgs []transport.Message
	for !m.finished() && m.err == nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		items, msgs = items[:0], msgs[:0]
		select {
		case item := <-m.feed:
			items = append(items, item)
		case msg, ok := <-inbox:
			if !ok {
				return fmt.Errorf("core: monitor %d: network closed before termination", m.cfg.Index)
			}
			msgs = append(msgs, msg)
		case <-ctx.Done():
			return ctx.Err()
		}
		// Protocol messages drain ahead of new local events, for the same
		// token-aging reason as Run's batched round (monitor.go).
	drain:
		for k := 1; k < pumpBatch; k++ {
			select {
			case msg, ok := <-inbox:
				if !ok {
					return fmt.Errorf("core: monitor %d: network closed before termination", m.cfg.Index)
				}
				msgs = append(msgs, msg)
				continue
			default:
			}
			select {
			case item := <-m.feed:
				items = append(items, item)
			default:
				break drain
			}
		}
		batchItems, batchMsgs := items, msgs
		sched.submit(func() {
			for _, it := range batchItems {
				if m.err == nil {
					m.handleFeed(it)
				}
			}
			for _, msg := range batchMsgs {
				if m.err == nil {
					m.handleMessage(msg)
				}
			}
			m.pump()
			// Round complete (handlers + pump): account the whole batch for
			// the snapshot quiescence check, exactly like Run's serial round.
			m.roundDone(int64(len(batchItems) + len(batchMsgs)))
			consumed <- struct{}{} // capacity 1, one task outstanding: never blocks
		})
		select {
		case <-consumed:
		case <-ctx.Done():
			// The submitted task may still be queued; the scheduler discards
			// or finishes it before Session.collect reads monitor state.
			return ctx.Err()
		}
	}
	return m.err
}
