// Package a is the blockingsend fixture: channel ops in loops and under a
// held mutex, with and without a select escape case.
package a

import (
	"context"
	"sync"
)

func pumpBad(ch, out chan int) {
	for v := range ch {
		out <- v // want `blocking send in a loop outside a select`
	}
}

func recvBad(ch chan int) int {
	s := 0
	for i := 0; i < 10; i++ {
		s += <-ch // want `blocking receive in a loop outside a select`
	}
	return s
}

func selectNoEscape(a, b chan int) {
	for {
		select {
		case v := <-a: // want `blocking receive in a loop outside a select`
			_ = v
		case b <- 1: // want `blocking send in a loop outside a select`
		}
	}
}

func pumpCtx(ctx context.Context, ch, out chan int) {
	for v := range ch {
		select {
		case out <- v:
		case <-ctx.Done():
			return
		}
	}
}

func pumpStop(ch chan int, stop chan struct{}) {
	for {
		select {
		case v := <-ch:
			_ = v
		case <-stop:
			return
		}
	}
}

func drainDefault(ch chan int) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}

func oneShot(ch chan int) {
	ch <- 1 // not in a loop
}

func goroutinePerIter(out chan int) {
	for i := 0; i < 3; i++ {
		go func(v int) { out <- v }(i) // one-shot goroutine body, not a loop send
	}
}

func rangeOverChan(ch chan int) int {
	s := 0
	for v := range ch { // exempt: closing ch unblocks the range
		s += v
	}
	return s
}

func loopInsideFuncLit(ch chan int) func() {
	return func() {
		for {
			<-ch // want `blocking receive in a loop outside a select`
		}
	}
}

func suppressedDrain(ch chan int) {
	for {
		//declint:ignore blockingsend fixture: demonstrates a justified suppression
		<-ch
	}
}

// shardLoop is an owner goroutine serving requests over channels: an
// op-dispatch loop whose every channel operation — the op receive and the
// reply send — selects on the stop channel, so shutdown never wedges it
// mid-operation.
type shardOp struct {
	reply chan int
}

func shardLoop(ops chan shardOp, stop chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case op := <-ops:
			select {
			case op.reply <- 1:
			case <-stop:
				return
			}
		}
	}
}

// shardLoopWedged is the anti-pattern the shard loop avoids: a bare reply
// send that deadlocks shutdown when the requester already gave up.
func shardLoopWedged(ops chan shardOp, stop chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case op := <-ops:
			op.reply <- 1 // want `blocking send in a loop outside a select`
		}
	}
}

// roundLoop and awaitQuiet mirror the snapshot barrier (internal/core
// snapshot.go): monitor rounds post a wake-up on a capacity-1 channel with a
// default case — a monitor never blocks on the coordinator — and the
// coordinator's re-read loop sleeps on that channel beside both contexts, so
// a cancelled caller or a dead session ends the wait.
func roundLoop(ctx context.Context, in chan int, wake chan struct{}) {
	for {
		select {
		case <-in:
		case <-ctx.Done():
			return
		}
		select {
		case wake <- struct{}{}:
		default:
		}
	}
}

func awaitQuiet(ctx, session context.Context, wake chan struct{}, quiet func() bool) {
	for !quiet() {
		select {
		case <-wake:
		case <-ctx.Done():
			return
		case <-session.Done():
			return
		}
	}
}

// roundLoopWedged posts its wake-up bare: with no coordinator waiting the
// second round blocks forever. awaitQuietWedged cannot be cancelled.
func roundLoopWedged(ctx context.Context, in chan int, wake chan struct{}) {
	for {
		select {
		case <-in:
		case <-ctx.Done():
			return
		}
		wake <- struct{}{} // want `blocking send in a loop outside a select`
	}
}

func awaitQuietWedged(wake chan struct{}, quiet func() bool) {
	for !quiet() {
		<-wake // want `blocking receive in a loop outside a select`
	}
}

// intakeLoop is the shape of an intake that hands each round to a worker pool
// (internal/core had one until PR 25): the loop blocks for an input beside
// ctx, submits the round, and waits for the worker's consumed signal beside
// ctx too — a cancelled session ends the wait even if the round was discarded
// and will never signal. The worker's own send is outside any loop: capacity
// 1, one round outstanding.
func intakeLoop(ctx context.Context, in chan int, submit func(func())) {
	consumed := make(chan struct{}, 1)
	task := func() { consumed <- struct{}{} }
	for {
		select {
		case <-in:
		case <-ctx.Done():
			return
		}
		submit(task)
		select {
		case <-consumed:
		case <-ctx.Done():
			return
		}
	}
}

// intakeLoopWedged waits for the round bare: a round discarded at shutdown
// leaves the intake — and the Close waiting for it — blocked forever.
func intakeLoopWedged(ctx context.Context, in chan int, submit func(func())) {
	consumed := make(chan struct{}, 1)
	task := func() { consumed <- struct{}{} }
	for {
		select {
		case <-in:
		case <-ctx.Done():
			return
		}
		submit(task)
		<-consumed // want `blocking receive in a loop outside a select`
	}
}

// writerLoop and ingestRoom mirror dlmond's client (internal/server
// client.go). The writer goroutine sleeps on a capacity-1 kick beside the read
// loop's done channel, so a connection that died while it was idle ends it;
// callers post the kick with a default case and never block on a busy writer.
// An Ingest that finds the pending bytes at their bound waits on a sync.Cond
// whose predicate re-reads the connection's sticky failure: the writer
// broadcasts when it takes the pending bytes, and whoever records the failure
// broadcasts too, so Close releases the waiter. No channel operation, nothing to flag.
func writerLoop(kick, readDone chan struct{}, write func() error) {
	for {
		select {
		case <-kick:
		case <-readDone:
			return
		}
		if write() != nil {
			return
		}
	}
}

func postKick(kick chan struct{}, appends int) {
	for i := 0; i < appends; i++ {
		select {
		case kick <- struct{}{}:
		default:
		}
	}
}

func ingestRoom(mu *sync.Mutex, room *sync.Cond, pending func() int, dead func() error, bound int) error {
	mu.Lock()
	defer mu.Unlock()
	for dead() == nil && pending() >= bound {
		room.Wait()
	}
	return dead()
}

// writerLoopWedged waits for its kick bare: after the peer is gone nobody
// posts one, and the Close that waits for the writer waits forever.
// ingestRoomWedged takes its room from a channel of credits with nothing
// beside it: a writer that failed hands out no more, and the feeder is stuck.
func writerLoopWedged(kick chan struct{}, write func() error) {
	for {
		<-kick // want `blocking receive in a loop outside a select`
		if write() != nil {
			return
		}
	}
}

func ingestRoomWedged(room chan struct{}, pending func() int, bound int) {
	for pending() >= bound {
		<-room // want `blocking receive in a loop outside a select`
	}
}

// put and relay mirror the in-memory network's delivery (internal/transport
// chan.go). put sends into the destination's inbox under the endpoint's mutex
// — that is what orders direct sends behind overflowed ones — and may, because
// its select has a default: a full inbox sends the message to the overflow
// instead of parking every other sender on the lock. relay, started when that
// happens, takes the overflow under the lock and does its blocking sends
// outside it, beside stop, so Close ends a relay whose reader is gone.
type endpoint struct {
	mu       sync.Mutex
	inbox    chan int
	overflow []int
	relaying bool
	closed   bool
	stop     chan struct{}
}

func (e *endpoint) put(m int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	if !e.relaying {
		select {
		case e.inbox <- m:
			return true
		default:
		}
		e.relaying = true
		go e.relay()
	}
	e.overflow = append(e.overflow, m)
	return true
}

func (e *endpoint) relay() {
	var batch []int
	for {
		e.mu.Lock()
		if len(e.overflow) == 0 || e.closed {
			e.relaying = false
			e.mu.Unlock()
			return
		}
		batch, e.overflow = e.overflow, batch[:0]
		e.mu.Unlock()
		for _, m := range batch {
			select {
			case e.inbox <- m:
			case <-e.stop:
				return
			}
		}
	}
}

// putWedged sends bare under the mutex: one full inbox and every sender to
// this endpoint — and the Close that wants the same lock — waits for a reader
// that may be gone. putUnlocked is the same send with the lock released first,
// outside any loop: not this analyzer's business. relayWedged has no stop
// beside its send: Close waits for it forever.
func (e *endpoint) putWedged(m int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.inbox <- m // want `blocking send while a mutex is held`
	return true
}

func (e *endpoint) putUnlocked(m int) bool {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return false
	}
	e.inbox <- m
	return true
}

func (e *endpoint) relayWedged() {
	for {
		e.mu.Lock()
		if len(e.overflow) == 0 {
			e.relaying = false
			e.mu.Unlock()
			return
		}
		batch := e.overflow
		e.overflow = nil
		e.mu.Unlock()
		for _, m := range batch {
			e.inbox <- m // want `blocking send in a loop outside a select`
		}
	}
}

// takeUnderLock receives under a read lock taken and released in a branch:
// the hold is lexical, and ends with the branch's Unlock.
func takeUnderLock(mu *sync.RWMutex, ch chan int, locked bool) int {
	if locked {
		mu.RLock()
		v := <-ch // want `blocking receive while a mutex is held`
		mu.RUnlock()
		return v
	}
	return <-ch
}

// journal models internal/server's durable session: inMu is the input lock a
// feeder holds while it feeds and logs, sem the semaphore of one that whoever
// is writing the session's files holds.
type journal struct {
	inMu    sync.Mutex
	sem     chan struct{}
	stop    chan struct{}
	pending []byte
}

// handoff is the cadence: under the input lock it waits for the previous sync
// by taking the semaphore — backpressure on this session's feeder, which is
// the point — and may only because the server's stop sits beside the send: a
// disk that never answers then holds nobody past shutdown.
func (j *journal) handoff() {
	j.inMu.Lock()
	defer j.inMu.Unlock()
	select {
	case j.sem <- struct{}{}:
	case <-j.stop:
		return
	}
	buf := j.pending
	j.pending = nil
	go j.syncLog(buf)
}

// syncLog is the syncer: no lock, no loop, and the receive that releases the
// semaphore cannot block — its holder is the one receiving.
func (j *journal) syncLog(buf []byte) {
	_ = buf // write, fsync
	<-j.sem
}

// install releases from a deferred literal, as the installer does: a function
// of its own, without lock or loop.
func (j *journal) install(blob []byte) {
	defer func() { <-j.sem }()
	_ = blob // temp file, fsync, rename
}

// handoffWedged takes the semaphore bare under the input lock: a sync that
// never returns wedges the feeder, every other connection feeding the session,
// and the Shutdown that wants the lock for its final sync.
func (j *journal) handoffWedged() {
	j.inMu.Lock()
	defer j.inMu.Unlock()
	j.sem <- struct{}{} // want `blocking send while a mutex is held`
	go j.syncLog(j.pending)
	j.pending = nil
}

// settleWedged waits the in-flight sync out under the lock, bare on both
// sides.
func (j *journal) settleWedged() {
	j.inMu.Lock()
	j.sem <- struct{}{} // want `blocking send while a mutex is held`
	<-j.sem             // want `blocking receive while a mutex is held`
	j.inMu.Unlock()
}

// feedLoop mirrors the monitor's run loop (internal/core monitor.go): it
// blocks on its own feed queue and inbox only, and cancellation closes the
// feed queue. The comma-ok receive whose !ok branch returns is the explicit
// form of a range over the queue, so the select has its escape case.
// feedDrain leaves by a break to the loop's label, which counts the same.
func feedLoop(feed chan int, inbox chan string) error {
	for {
		select {
		case v, ok := <-feed:
			if !ok {
				return context.Canceled
			}
			_ = v
		case msg := <-inbox:
			_ = msg
		}
	}
}

func feedDrain(feed chan int, inbox chan string) {
loop:
	for {
		select {
		case v, ok := <-feed:
			if !ok {
				break loop
			}
			_ = v
		case msg := <-inbox:
			_ = msg
		}
	}
}

// feedLoopContinues reads the close and carries on: a closed queue is then
// ready forever and never ends the loop. feedLoopBreaksSelect's bare break
// leaves only the select. feedLoopPlain cannot tell a close from a value.
func feedLoopContinues(feed chan int, inbox chan string) {
	for {
		select {
		case v, ok := <-feed: // want `blocking receive in a loop outside a select`
			if !ok {
				continue
			}
			_ = v
		case msg := <-inbox: // want `blocking receive in a loop outside a select`
			_ = msg
		}
	}
}

func feedLoopBreaksSelect(feed chan int, inbox chan string) {
	for {
		select {
		case v, ok := <-feed: // want `blocking receive in a loop outside a select`
			if !ok {
				break
			}
			_ = v
		case msg := <-inbox: // want `blocking receive in a loop outside a select`
			_ = msg
		}
	}
}

func feedLoopPlain(feed chan int, inbox chan string) {
	for {
		select {
		case v := <-feed: // want `blocking receive in a loop outside a select`
			_ = v
		case msg := <-inbox: // want `blocking receive in a loop outside a select`
			_ = msg
		}
	}
}
