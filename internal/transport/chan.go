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
// Queue topology is sharded by configuration. Without latency, each
// *destination* has one FIFO queue drained by one goroutine (n drainers
// total): every sender enqueues from its monitor's single run-loop goroutine
// in program order, and a FIFO queue preserves each sender's subsequence, so
// per-pair FIFO holds while cross-pair interleaving stays arbitrary — the
// weakest ordering the paper's algorithm must tolerate. With latency, every
// ordered *pair* keeps its own queue and drainer (n·(n−1) of them): delays
// are drawn per pair from a deterministic seed, and sleeping in a shared
// destination drainer would head-of-line-block the other senders.
type ChanNetwork struct {
	n   int
	eps []*chanEndpoint
	// destQueues[to] shards by destination (no-latency fast path); queues
	// holds the per-pair topology (latency mode). Exactly one is non-nil.
	destQueues []*unboundedQueue
	queues     map[[2]int]*unboundedQueue
	stats      Stats
	wg         sync.WaitGroup
	closeOnce  sync.Once
	// stop is closed by Close so drain goroutines blocked on a full inbox of
	// an already-departed monitor (e.g. after a session's context was
	// cancelled) unblock instead of wedging Close forever.
	stop chan struct{}
}

type chanEndpoint struct {
	id    int
	net   *ChanNetwork
	inbox chan Message
}

// inboxSlots sizes an endpoint's inbox for the hand-off from its drain
// goroutine to its monitor, not for capacity: the unbounded queue behind it is
// what makes Send non-blocking, so the channel only has to let the drainer run
// a pump round (core.pumpBatch messages) ahead of the reader. A deep channel
// buys nothing and is zeroed memory every session pays for per endpoint.
const inboxSlots = 32

// NewChanNetwork creates an in-memory network of n endpoints.
func NewChanNetwork(n int, opts ...ChanOption) *ChanNetwork {
	cfg := chanConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	nw := &ChanNetwork{n: n, stop: make(chan struct{})}
	for i := 0; i < n; i++ {
		nw.eps = append(nw.eps, &chanEndpoint{id: i, net: nw, inbox: make(chan Message, inboxSlots)})
	}
	if cfg.latencyMu <= 0 {
		nw.destQueues = make([]*unboundedQueue, n)
		for to := 0; to < n; to++ {
			q := newUnboundedQueue()
			nw.destQueues[to] = q
			nw.wg.Add(1)
			go nw.drain(q, nw.eps[to].inbox, cfg, int64(to))
		}
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
			go nw.drain(q, nw.eps[to].inbox, cfg, int64(from*n+to))
		}
	}
	return nw
}

// drain forwards one pair's queue into the destination inbox, applying the
// configured latency.
func (nw *ChanNetwork) drain(q *unboundedQueue, inbox chan<- Message, cfg chanConfig, salt int64) {
	defer nw.wg.Done()
	var rng *rand.Rand
	if cfg.latencyMu > 0 {
		rng = rand.New(rand.NewSource(cfg.seed ^ salt))
	}
	for {
		m, ok := q.pop()
		if !ok {
			return
		}
		if rng != nil {
			d := time.Duration(rng.NormFloat64()*float64(cfg.latencySigma)) + cfg.latencyMu
			if d > 0 {
				time.Sleep(d)
			}
		}
		select {
		case inbox <- m:
			continue
		default:
		}
		select {
		case inbox <- m:
		case <-nw.stop:
			return
		}
	}
}

// Endpoint returns endpoint i.
func (nw *ChanNetwork) Endpoint(i int) Endpoint { return nw.eps[i] }

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
		// A closed queue refuses every further push, which is how Send learns
		// the network is gone.
		for _, q := range nw.queues {
			q.close()
		}
		for _, q := range nw.destQueues {
			q.close()
		}
		close(nw.stop)
		nw.wg.Wait()
		for _, ep := range nw.eps {
			close(ep.inbox)
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

// enqueue is the one send path: validate the destination, push onto its
// queue, account size bytes.
func (e *chanEndpoint) enqueue(msg Message, size int) error {
	to := msg.To
	if to < 0 || to >= e.net.n {
		return fmt.Errorf("transport: endpoint %d does not exist", to)
	}
	if to == e.id {
		return fmt.Errorf("transport: endpoint %d sending to itself", to)
	}
	var q *unboundedQueue
	if e.net.destQueues != nil {
		q = e.net.destQueues[to]
	} else {
		q = e.net.queues[[2]int{e.id, to}]
	}
	if !q.push(msg) {
		return errClosed
	}
	e.net.stats.record(size)
	return nil
}
