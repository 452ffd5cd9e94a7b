package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"decentmon/internal/wire"
)

// MaxTCPFrame bounds one monitor message on the TCP network, in both
// directions: Send refuses a larger payload and a reader that is announced one
// fails the network before allocating it. The largest messages are fetch
// replies and returning tokens, which carry event segments — tens of bytes per
// event, so 64 MiB is millions of events in one message, far beyond what the
// feed gate lets accumulate — while a bound at all is what keeps a four-byte
// header from costing 4 GiB.
const MaxTCPFrame = 1 << 26

// TCPNetwork is a Network whose endpoints exchange wire frames (uvarint length
// + payload) over loopback TCP connections — monitors talk over real sockets, the
// closest stdlib analogue of the paper's peer-to-peer WiFi links between iOS
// devices.
//
// The algorithm needs every channel reliable and FIFO, so a connection that
// breaks — closed under us, or carrying a frame no peer of ours would send —
// fails the whole network: every connection is closed and every inbox with
// it, which each monitor reports as an error instead of waiting for a message
// that is never coming.
//
// Topology: every ordered pair (i → j), i < j shares one TCP connection,
// established by i dialing j's listener; frames carry the sender id, so a
// single duplex connection serves both directions. TCP guarantees the FIFO
// per-pair delivery the algorithm requires.
type TCPNetwork struct {
	n     int
	eps   []*tcpEndpoint
	stats Stats
	wg    sync.WaitGroup
	// closeOnce runs the teardown once, for Close and for a read loop that
	// finds its connection broken.
	closeOnce sync.Once
	// stop is closed at the start of Close so read loops blocked on a full
	// inbox of an already-departed monitor unblock instead of wedging Close;
	// it doubles as the "closed" flag (closing).
	stop chan struct{}
}

type tcpEndpoint struct {
	id    int
	net   *TCPNetwork
	inbox chan Message
	conns []net.Conn // conns[j] = connection shared with endpoint j
	sendM []sync.Mutex
}

// NewTCPNetwork builds a fully connected loopback network of n endpoints on
// ephemeral ports.
func NewTCPNetwork(n int) (*TCPNetwork, error) {
	nw := &TCPNetwork{n: n, stop: make(chan struct{})}
	for i := 0; i < n; i++ {
		nw.eps = append(nw.eps, &tcpEndpoint{
			id:    i,
			net:   nw,
			inbox: make(chan Message, 4096),
			conns: make([]net.Conn, n),
			sendM: make([]sync.Mutex, n),
		})
	}
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("transport: listen for endpoint %d: %w", i, err)
		}
		listeners[i] = l
	}
	// Accept loops: j accepts connections from all i < j; the dialer's first
	// frame is a 4-byte hello carrying its id.
	var acceptWG sync.WaitGroup
	acceptErrs := make([]error, n) // one owned slot per accept goroutine
	for j := 0; j < n; j++ {
		expect := j // connections from endpoints 0..j-1
		acceptWG.Add(1)
		go func(j int) {
			defer acceptWG.Done()
			for k := 0; k < expect; k++ {
				conn, err := listeners[j].Accept()
				if err != nil {
					acceptErrs[j] = err
					return
				}
				var hello [4]byte
				if _, err := io.ReadFull(conn, hello[:]); err != nil {
					acceptErrs[j] = err
					return
				}
				from := int(binary.BigEndian.Uint32(hello[:]))
				nw.eps[j].conns[from] = conn
			}
		}(j)
	}
	// Dial: i connects to all j > i.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			conn, err := net.Dial("tcp", listeners[j].Addr().String())
			if err != nil {
				return nil, fmt.Errorf("transport: dial %d->%d: %w", i, j, err)
			}
			var hello [4]byte
			binary.BigEndian.PutUint32(hello[:], uint32(i))
			if _, err := conn.Write(hello[:]); err != nil {
				return nil, fmt.Errorf("transport: hello %d->%d: %w", i, j, err)
			}
			nw.eps[i].conns[j] = conn
		}
	}
	acceptWG.Wait()
	for _, err := range acceptErrs {
		if err != nil {
			return nil, fmt.Errorf("transport: accept: %w", err)
		}
	}
	for _, l := range listeners {
		l.Close()
	}
	// Reader goroutines: one per connection side.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if conn := nw.eps[i].conns[j]; conn != nil {
				nw.wg.Add(1)
				go nw.readLoop(nw.eps[i], j, conn)
			}
		}
	}
	return nw, nil
}

// readLoop parses frames from one peer. Each payload gets its own buffer: the
// receiving monitor keeps it.
func (nw *TCPNetwork) readLoop(ep *tcpEndpoint, from int, conn net.Conn) {
	defer nw.wg.Done()
	br := bufio.NewReader(conn)
	for {
		payload, _, err := wire.ReadFrame(br, nil, MaxTCPFrame)
		if nw.closing() {
			return
		}
		if err != nil {
			// Not our Close: the link is gone, or its peer is not one of ours.
			// Close waits for this goroutine, so it runs on its own.
			go nw.Close()
			return
		}
		select {
		case ep.inbox <- Message{From: from, To: ep.id, Payload: payload}:
		case <-nw.stop:
			return
		}
	}
}

// Endpoint returns endpoint i.
func (nw *TCPNetwork) Endpoint(i int) Endpoint { return nw.eps[i] }

// N returns the number of endpoints.
func (nw *TCPNetwork) N() int { return nw.n }

// Stats returns the network counters.
func (nw *TCPNetwork) Stats() *Stats { return &nw.stats }

// closing reports whether Close has begun.
func (nw *TCPNetwork) closing() bool {
	select {
	case <-nw.stop:
		return true
	default:
		return false
	}
}

// Close tears all connections down and closes the inboxes. Every call
// returns only once that is done, whichever call did it.
func (nw *TCPNetwork) Close() error {
	nw.closeOnce.Do(func() {
		close(nw.stop)
		for _, ep := range nw.eps {
			for _, c := range ep.conns {
				if c != nil {
					c.Close()
				}
			}
		}
		nw.wg.Wait()
		for _, ep := range nw.eps {
			close(ep.inbox)
		}
	})
	return nil
}

func (e *tcpEndpoint) ID() int { return e.id }

func (e *tcpEndpoint) Inbox() <-chan Message { return e.inbox }

func (e *tcpEndpoint) Send(to int, payload []byte) error {
	if to < 0 || to >= e.net.n || to == e.id {
		return fmt.Errorf("transport: bad destination %d", to)
	}
	if e.net.closing() {
		return errClosed
	}
	if len(payload) > MaxTCPFrame {
		return fmt.Errorf("transport: message of %d bytes exceeds the %d-byte frame bound", len(payload), MaxTCPFrame)
	}
	conn := e.conns[to]
	frame := wire.AppendUvarint(make([]byte, 0, len(payload)+wire.MaxUvarintLen), uint64(len(payload)))
	frame = append(frame, payload...)
	e.sendM[to].Lock()
	_, err := conn.Write(frame)
	e.sendM[to].Unlock()
	if err != nil {
		return fmt.Errorf("transport: send %d->%d: %w", e.id, to, err)
	}
	e.net.stats.record(len(payload))
	return nil
}
