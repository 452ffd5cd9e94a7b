package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ChanOption configures a ChanNetwork.
type ChanOption func(*chanConfig)

type chanConfig struct {
	latencyMu, latencySigma time.Duration
	seed                    int64
}

// WithLatency injects a normally distributed delivery delay on every
// ordered pair, preserving per-pair FIFO order. A zero mu disables delays.
func WithLatency(mu, sigma time.Duration, seed int64) ChanOption {
	return func(c *chanConfig) {
		c.latencyMu, c.latencySigma, c.seed = mu, sigma, seed
	}
}

// ChanNetwork is the in-memory Network: the default of every Session, and so
// of dlmond, the benchmarks and the experiment harness. Its endpoints are
// ValueSenders.
//
// Delivery is direct. Without latency the network owns no goroutine: a Send
// puts its message into the destination's inbox itself (chanEndpoint.put), one
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
// With latency, every ordered *pair* keeps its own queue and drainer (n·(n−1)
// of them): delays are drawn per pair from a deterministic seed, and sleeping
// in a shared drainer would head-of-line-block the other senders. A drainer
// delivers through the same put once it has slept, so there is one way into an
// inbox.
//
// Close: every endpoint is marked closed under its mutex (from then on put
// refuses, which is how Send learns the network is gone), stop releases a
// relay blocked on an inbox nobody reads, and the inboxes are closed once
// relays and drainers have returned — nothing sends on a closed channel.
type ChanNetwork struct {
	n   int
	eps []chanEndpoint
	// queues holds the per-pair topology; nil without latency.
	queues    map[[2]int]*unboundedQueue
	stats     Stats
	wg        sync.WaitGroup // relays and latency drainers
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

// NewChanNetwork creates an in-memory network of n endpoints. Without latency
// it starts no goroutine.
func NewChanNetwork(n int, opts ...ChanOption) *ChanNetwork {
	cfg := chanConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	nw := &ChanNetwork{n: n, eps: make([]chanEndpoint, n), stop: make(chan struct{})}
	for i := range nw.eps {
		ep := &nw.eps[i]
		ep.id, ep.net, ep.inbox = i, nw, make(chan Message, inboxSlots)
	}
	if cfg.latencyMu <= 0 {
		return nw
	}
	nw.queues = map[[2]int]*unboundedQueue{}
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from == to {
				continue
			}
			q := newUnboundedQueue()
			nw.queues[[2]int{from, to}] = q
			nw.wg.Add(1)
			go nw.drain(q, &nw.eps[to], cfg, int64(from*n+to))
		}
	}
	return nw
}

// drain forwards one pair's queue to the destination, each message after the
// configured latency.
func (nw *ChanNetwork) drain(q *unboundedQueue, to *chanEndpoint, cfg chanConfig, salt int64) {
	defer nw.wg.Done()
	rng := rand.New(rand.NewSource(cfg.seed ^ salt))
	for {
		m, ok := q.pop()
		if !ok {
			return
		}
		d := time.Duration(rng.NormFloat64()*float64(cfg.latencySigma)) + cfg.latencyMu
		if d > 0 {
			time.Sleep(d)
		}
		if !to.put(m) {
			return
		}
	}
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
		for _, q := range nw.queues {
			q.close()
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
// it (or, with latency, to the pair's drainer), account size bytes.
func (e *chanEndpoint) enqueue(msg Message, size int) error {
	to := msg.To
	if to < 0 || to >= e.net.n {
		return fmt.Errorf("transport: endpoint %d does not exist", to)
	}
	if to == e.id {
		return fmt.Errorf("transport: endpoint %d sending to itself", to)
	}
	var accepted bool
	if e.net.queues == nil {
		accepted = e.net.eps[to].put(msg)
	} else {
		accepted = e.net.queues[[2]int{e.id, to}].push(msg)
	}
	if !accepted {
		return errClosed
	}
	e.net.stats.record(size)
	return nil
}
