package transport

import (
	"fmt"
	"sync"
)

// ChanNetwork is the in-memory Network: the default of every Session, and so
// of dlmond, the benchmarks and the experiment harness. Its endpoints are
// ValueSenders.
//
// Delivery is direct, and the network owns no goroutine: a Send puts its
// message into the destination's inbox itself (chanEndpoint.put), one
// enqueue and at most one wake-up — the reader's. Only when the inbox is full
// does the message go to the destination's overflow, and a relay goroutine,
// started for the occasion, moves the overflow across and exits; Send never
// blocks either way (the paper's channels are unbounded).
//
// Order: every message for a destination passes through put, under that
// endpoint's mutex. While a relay is running every put appends to the
// overflow, and the relay sends what it took, in order, before it takes more;
// the relaying flag is cleared only under the mutex, with the overflow empty
// and the relay's last send returned. A direct send therefore never overtakes
// an overflowed message: the inbox is FIFO per destination, hence per pair,
// while cross-pair interleaving stays arbitrary — the weakest ordering the
// paper's algorithm must tolerate.
//
// Close: every endpoint is marked closed under its mutex (from then on put
// refuses, which is how Send learns the network is gone), stop releases a
// relay blocked on an inbox nobody reads, and the inboxes are closed once
// relays have returned — nothing sends on a closed channel.
type ChanNetwork struct {
	n         int
	eps       []chanEndpoint
	stats     Stats
	wg        sync.WaitGroup // relays
	closeOnce sync.Once
	// stop is closed by Close so a relay blocked on the full inbox of an
	// already-departed monitor (e.g. after a session's context was cancelled)
	// unblocks instead of wedging Close forever.
	stop chan struct{}
}

type chanEndpoint struct {
	id    int
	net   *ChanNetwork
	inbox chan Message

	// mu orders every delivery to this endpoint (see ChanNetwork). overflow
	// holds what found the inbox full, oldest first; relaying says a relay
	// goroutine is moving it across.
	mu       sync.Mutex
	overflow []Message
	relaying bool
	closed   bool
}

// inboxSlots sizes an endpoint's inbox to let senders run a pump round
// (core.pumpBatch messages) ahead of the reader without starting a relay, not
// for capacity: the overflow behind it is what makes Send non-blocking. A deep
// channel buys nothing and is zeroed memory every session pays for per
// endpoint.
const inboxSlots = 32

// NewChanNetwork creates an in-memory network of n endpoints. It starts no
// goroutine.
func NewChanNetwork(n int) *ChanNetwork {
	nw := &ChanNetwork{n: n, eps: make([]chanEndpoint, n), stop: make(chan struct{})}
	for i := range nw.eps {
		ep := &nw.eps[i]
		ep.id, ep.net, ep.inbox = i, nw, make(chan Message, inboxSlots)
	}
	return nw
}

// put is the one way into an inbox: it delivers m to e, or reports that the
// network has closed. It never blocks on the reader.
func (e *chanEndpoint) put(m Message) bool {
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
		e.net.wg.Add(1) // under mu and before closed: never concurrent with Close's Wait
		go e.relay()
	}
	e.overflow = append(e.overflow, m)
	return true
}

// relay moves the overflow into the inbox, a batch at a time, and exits when
// it finds none: a reader that lagged once does not keep a goroutine.
func (e *chanEndpoint) relay() {
	defer e.net.wg.Done()
	var batch []Message
	for {
		e.mu.Lock()
		if len(e.overflow) == 0 || e.closed {
			e.relaying = false
			e.mu.Unlock()
			return
		}
		// Swap: what accumulates during this batch goes into the array the last
		// one left behind, so a long backlog settles on two arrays.
		batch, e.overflow = e.overflow, batch[:0]
		e.mu.Unlock()
		for i, m := range batch {
			select {
			case e.inbox <- m:
			case <-e.net.stop:
				return
			}
			batch[i] = Message{} // the relay no longer keeps the payload alive
		}
	}
}

// Endpoint returns endpoint i.
func (nw *ChanNetwork) Endpoint(i int) Endpoint { return &nw.eps[i] }

// N returns the number of endpoints.
func (nw *ChanNetwork) N() int { return nw.n }

// Stats returns the network counters.
func (nw *ChanNetwork) Stats() *Stats { return &nw.stats }

// Close shuts the network down and closes every inbox. Messages still in
// flight when Close begins may be dropped: endpoints whose monitors have
// already exited (normal termination, or a cancelled session) no longer
// drain their inboxes, and Close must not block on them.
func (nw *ChanNetwork) Close() error {
	nw.closeOnce.Do(func() {
		for i := range nw.eps {
			ep := &nw.eps[i]
			ep.mu.Lock()
			ep.closed = true
			ep.mu.Unlock()
		}
		close(nw.stop)
		nw.wg.Wait()
		for i := range nw.eps {
			close(nw.eps[i].inbox)
		}
	})
	return nil
}

func (e *chanEndpoint) ID() int { return e.id }

func (e *chanEndpoint) Inbox() <-chan Message { return e.inbox }

func (e *chanEndpoint) Send(to int, payload []byte) error {
	return e.enqueue(Message{From: e.id, To: to, Payload: payload}, len(payload))
}

// SendValue implements ValueSender: both ends of a ChanNetwork are goroutines
// of one process, so v reaches the peer's inbox as it is.
func (e *chanEndpoint) SendValue(to int, v any, size int) error {
	return e.enqueue(Message{From: e.id, To: to, Value: v}, size)
}

// enqueue is the one send path: validate the destination, hand the message to
// it, account size bytes.
func (e *chanEndpoint) enqueue(msg Message, size int) error {
	to := msg.To
	if to < 0 || to >= e.net.n {
		return fmt.Errorf("transport: endpoint %d does not exist", to)
	}
	if to == e.id {
		return fmt.Errorf("transport: endpoint %d sending to itself", to)
	}
	if !e.net.eps[to].put(msg) {
		return errClosed
	}
	e.net.stats.record(size)
	return nil
}
