// Package transport provides the communication substrate between monitor
// processes: reliable, FIFO, unbounded-delay message channels — exactly the
// channel model the paper assumes (§2.1), and the stand-in for the WiFi
// network connecting the paper's iOS devices.
//
// Two implementations are provided: an in-memory network with optional
// normally-distributed latency (deterministic per-pair FIFO; what every
// Session, dlmond and the benchmarks run on), and a TCP loopback network
// built on the net package (used by the tcp example to run monitors over real
// sockets). Every endpoint carries byte payloads; the in-memory endpoints,
// whose two ends share an address space, can also deliver a value as it is
// (ValueSender), which spares the monitors an encode and a decode per message
// without changing what Stats reports.
package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Message is one monitor-to-monitor message as its receiver sees it: the
// payload bytes an Endpoint.Send was given or, on a network that hands values
// over in memory (ValueSender), the value itself. Exactly one of the two is
// set.
type Message struct {
	From, To int
	Payload  []byte
	Value    any
}

// Endpoint is one monitor's attachment to the network.
type Endpoint interface {
	// ID returns the endpoint's process index.
	ID() int
	// Send enqueues a payload for delivery to the peer endpoint. It never
	// blocks on slow receivers (channels are unbounded) and returns an
	// error only if the network is closed or the peer does not exist.
	Send(to int, payload []byte) error
	// Inbox delivers incoming messages in per-sender FIFO order. The
	// channel is closed when the network shuts down.
	Inbox() <-chan Message
}

// ValueSender is implemented by the endpoints of a network whose two ends
// share an address space, and by no other: whether a message can skip its
// byte encoding is a fact about where the peer lives, which the endpoint
// knows and no caller configures. SendValue delivers v itself, as
// Message.Value, under Send's ordering and error contract; size is what v
// would have weighed encoded, and is what Stats.Bytes accounts for it, so the
// communication-overhead counters read the same on either path. The receiver
// gets the very value the sender holds: what either side may still do with it
// is for the two of them to agree (internal/core/messages.go states it for
// monitor messages).
type ValueSender interface {
	SendValue(to int, v any, size int) error
}

// Network is a closed group of n endpoints.
type Network interface {
	Endpoint(i int) Endpoint
	N() int
	// Close shuts the network down and closes all inboxes. Messages still
	// in flight when Close begins are delivered on a best-effort basis:
	// endpoints nobody drains any more (their monitor exited, normally or
	// on cancellation) may drop them — Close never blocks on a dead reader.
	Close() error
	Stats() *Stats
}

// Stats accumulates message counters; all methods are safe for concurrent
// use.
type Stats struct {
	messages atomic.Int64
	bytes    atomic.Int64
}

// record counts one message of size bytes.
func (s *Stats) record(size int) {
	s.messages.Add(1)
	s.bytes.Add(int64(size))
}

// Messages returns the total number of messages sent.
func (s *Stats) Messages() int64 { return s.messages.Load() }

// Bytes returns the total payload bytes sent; a message handed over as a
// value counts the size its sender declared (ValueSender).
func (s *Stats) Bytes() int64 { return s.bytes.Load() }

// errClosed is returned by Send after Close.
var errClosed = fmt.Errorf("transport: network closed")

// unboundedQueue is a FIFO of messages with non-blocking enqueue and a
// blocking pop: what a ChanNetwork's latency drainers read from, one per
// ordered pair. Popped slots are cleared and the
// backing array is reused — from the start whenever the queue runs empty,
// which with a reader that keeps up is after nearly every message, and by
// sliding the backlog down when it does not — so steady state allocates
// nothing.
type unboundedQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []Message
	head   int // items[:head] have been popped
	closed bool
}

func newUnboundedQueue() *unboundedQueue {
	q := &unboundedQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *unboundedQueue) push(m Message) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	if len(q.items) == cap(q.items) && q.head >= len(q.items)/2 && q.head > 0 {
		// A reader that lags without ever draining the queue: slide the live
		// half down instead of growing around a dead prefix (at most one copy
		// per head pops, so enqueue stays amortized O(1)).
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, m)
	q.cond.Signal()
	return true
}

// pop blocks until an item is available or the queue is closed and drained.
func (q *unboundedQueue) pop() (Message, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.items) && !q.closed {
		q.cond.Wait()
	}
	if q.head == len(q.items) {
		return Message{}, false
	}
	m := q.items[q.head]
	q.items[q.head] = Message{} // the queue no longer keeps the payload alive
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return m, true
}

func (q *unboundedQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
