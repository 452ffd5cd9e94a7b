package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"

	"decentmon/internal/dist"
)

// Client is a dlmond connection: the programmatic face of the RPC protocol,
// used by dlmonc, the smoke tests and the load generator. One Client may be
// shared by several goroutines multiplexing sessions over the connection;
// synchronous verbs correlate replies by arrival order (the server answers
// in request order), so each in-flight verb parks on a FIFO of reply
// channels.
//
// Writes are combined, never delayed. No caller touches the socket: a call
// appends its bytes to the pending buffer under wmu — Ingest its event record
// to the open batch, a run of records of one session that becomes one Ingest
// frame when sealed; a synchronous verb seals the open batch and puts its own
// frame behind it — and one writer goroutine, woken when the buffer goes from
// empty to non-empty, seals the open batch, takes the whole buffer and writes
// it outside the lock. Whatever accumulated during one write(2) leaves in the
// next: a lone Ingest is on the wire as soon as the writer runs (there is no
// timer to wait out), and a feeder that outruns the server — whose socket
// buffer fills, whose writes block — sends ever larger frames.
//
// Two invariants callers (dlmonc, the benchmark's checkpoint probe) rely on:
//
//   - Frames leave in call order. Every call appends under wmu, sealing moves
//     the open batch behind what was sealed before it, and the writer is alone
//     in writing what it took, in the order it took it.
//   - A verb's reply implies the server has handled every Ingest called
//     before the verb: their frames precede the verb's, and the server
//     handles a connection's frames one after another.
//
// Ingest blocks while maxPending bytes or more await the writer: that is TCP
// backpressure reaching the feeder, as it did when every Ingest wrote for
// itself. A write error is sticky: it closes the connection and every later
// call returns it. Close does not wait for pending bytes (a peer that stopped
// reading would hold it forever) but it does not drop them in silence either:
// it reports how many never reached the socket. A caller that needs its last
// Ingests handled ends with a synchronous verb, and Close then has nothing to
// report.
//
// Verdict frames for subscribed sessions are delivered on the OnVerdict
// callback from the read loop; it must not call back into the Client.
type Client struct {
	c  net.Conn
	br *bufio.Reader

	// OnVerdict, when set before Subscribe, receives streamed verdicts.
	OnVerdict func(m *dist.RPCMsg)
	// OnAsyncError receives Error frames that answer no pending verb
	// (ingestion failures). Nil drops them.
	OnAsyncError func(m *dist.RPCMsg)

	// wmu guards everything down to kick.
	wmu sync.Mutex
	// batch holds the event records of the open batch, all of session
	// batchSID; out the sealed frames behind which it will go; spare is the
	// buffer the writer is not writing from.
	batch    []byte
	batchSID uint64
	out      []byte
	spare    []byte
	// room is signalled when the writer has taken the pending bytes or the
	// connection has failed; dead is that failure, set once; unwritten is what
	// the write it interrupted had not yet written.
	room      *sync.Cond
	dead      error
	unwritten int
	// replies is the FIFO of verbs awaiting their answer.
	replies []chan *dist.RPCMsg
	// kick wakes the writer; capacity 1, so a wake-up posted while it is
	// busy is kept and a second one is not needed.
	kick chan struct{}

	readDone  chan struct{} // closed when the read loop has exited
	writeDone chan struct{} // closed when the writer has exited
}

const (
	// maxPending bounds the bytes awaiting the writer (a record may straddle
	// it): as much again may be inside the write in flight.
	maxPending = 64 << 10
	// batchSeal is the payload size at which the open batch is sealed even
	// though the writer has not come for it: the server reads a frame whole
	// before feeding any of it, so a frame stays a few feed windows long.
	batchSeal = 4 << 10
)

// Dial connects and performs the hello exchange.
func Dial(addr string) (*Client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cl := newClient(c)
	hello, err := dist.AppendRPC(nil, &dist.RPCMsg{Kind: dist.RPCHello, Version: dist.RPCVersion})
	if err == nil {
		_, err = c.Write(hello)
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	payload, _, err := dist.ReadRPCFrame(cl.br, nil)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("server: hello exchange: %w", err)
	}
	m, err := dist.DecodeRPC(payload)
	if err != nil {
		c.Close()
		return nil, err
	}
	if m.Kind == dist.RPCError {
		c.Close()
		return nil, fmt.Errorf("server: %s", m.Err)
	}
	if m.Kind != dist.RPCHello || m.Version != dist.RPCVersion {
		c.Close()
		return nil, fmt.Errorf("server: unexpected hello reply %s v%d", m.Kind, m.Version)
	}
	go cl.readLoop()
	go cl.writeLoop()
	return cl, nil
}

// newClient wraps a connection; its read loop and its writer are the
// caller's to start.
func newClient(c net.Conn) *Client {
	cl := &Client{
		c: c, br: bufio.NewReader(c),
		kick:     make(chan struct{}, 1),
		readDone: make(chan struct{}), writeDone: make(chan struct{}),
	}
	cl.room = sync.NewCond(&cl.wmu)
	return cl
}

// pending is the number of bytes awaiting the writer. Caller holds wmu.
func (cl *Client) pending() int { return len(cl.out) + len(cl.batch) }

// seal closes the open batch into one Ingest frame behind the sealed ones.
// Caller holds wmu.
func (cl *Client) seal() {
	if len(cl.batch) == 0 {
		return
	}
	out, err := dist.AppendRPC(cl.out, &dist.RPCMsg{Kind: dist.RPCIngest, SID: cl.batchSID, Raw: cl.batch})
	if err != nil {
		cl.fail(err)
	}
	cl.out, cl.batch = out, cl.batch[:0]
}

// fail records the connection's first failure, releases every Ingest waiting
// for room and closes the socket, which ends the read loop and with it every
// parked verb. Caller holds wmu.
func (cl *Client) fail(err error) {
	if cl.dead == nil {
		cl.dead = err
		cl.room.Broadcast()
		cl.c.Close()
	}
}

// wake posts the writer's wake-up. It is called by whoever appended to an
// empty pending buffer: nobody who appends behind them needs to, the writer
// takes everything there is when it comes. Caller holds wmu.
func (cl *Client) wake() {
	select {
	case cl.kick <- struct{}{}:
	default:
	}
}

// writeLoop is the writer goroutine: the only code that writes to the socket
// after the hello exchange.
func (cl *Client) writeLoop() {
	defer close(cl.writeDone)
	for {
		select {
		case <-cl.kick:
		case <-cl.readDone:
			return
		}
		cl.wmu.Lock()
		cl.seal()
		buf := cl.out
		cl.out, cl.spare = cl.spare, nil
		// There is room from this moment, not from when the write returns:
		// against a peer that stopped reading it never does, and an Ingest
		// that waited at the bound would stay parked beside an empty buffer.
		cl.room.Broadcast()
		cl.wmu.Unlock()
		n, err := cl.c.Write(buf)
		cl.wmu.Lock()
		cl.spare = buf[:0]
		if err != nil {
			cl.unwritten = len(buf) - n
			cl.fail(err)
		}
		cl.wmu.Unlock()
		if err != nil {
			return
		}
	}
}

// call sends a synchronous verb and waits for its reply.
func (cl *Client) call(m *dist.RPCMsg) (*dist.RPCMsg, error) {
	reply := make(chan *dist.RPCMsg, 1)
	cl.wmu.Lock()
	if cl.dead != nil {
		cl.wmu.Unlock()
		return nil, cl.dead
	}
	empty := cl.pending() == 0
	cl.seal()
	out, err := dist.AppendRPC(cl.out, m)
	if err != nil {
		cl.wmu.Unlock()
		return nil, err
	}
	// The reply channel is queued with the frame, under the same lock, so
	// the FIFO's order is the wire's.
	cl.out, cl.replies = out, append(cl.replies, reply)
	if empty {
		cl.wake()
	}
	cl.wmu.Unlock()
	r, ok := <-reply
	if !ok {
		<-cl.readDone
		return nil, cl.dead
	}
	if r.Kind == dist.RPCError {
		return nil, fmt.Errorf("server: %s", r.Err)
	}
	return r, nil
}

// readLoop demultiplexes incoming frames: verdicts to OnVerdict, everything
// else to the oldest pending verb.
func (cl *Client) readLoop() {
	var scratch []byte
	var payload []byte
	var err error
	for {
		payload, scratch, err = dist.ReadRPCFrame(cl.br, scratch)
		if err != nil {
			break
		}
		var m *dist.RPCMsg
		if m, err = dist.DecodeRPC(payload); err != nil {
			break
		}
		if m.Kind == dist.RPCVerdict {
			if cl.OnVerdict != nil {
				cl.OnVerdict(m)
			}
			continue
		}
		cl.wmu.Lock()
		var reply chan *dist.RPCMsg
		if len(cl.replies) > 0 {
			reply = cl.replies[0]
			cl.replies = cl.replies[1:]
		}
		cl.wmu.Unlock()
		if reply == nil {
			if m.Kind == dist.RPCError && cl.OnAsyncError != nil {
				cl.OnAsyncError(m)
			}
			continue
		}
		// Slice fields alias the scratch buffer; copy what outlives this
		// iteration.
		if m.Verdicts != nil {
			m.Verdicts = append([]byte(nil), m.Verdicts...)
		}
		if m.Raw != nil {
			m.Raw = append([]byte(nil), m.Raw...)
		}
		// Reply channels have capacity 1 and receive exactly one message,
		// so this send always succeeds immediately.
		select {
		case reply <- m:
		default:
		}
	}
	if err == io.EOF {
		err = fmt.Errorf("server: connection closed")
	}
	cl.wmu.Lock()
	cl.fail(err)
	for _, ch := range cl.replies {
		close(ch)
	}
	cl.replies = nil
	cl.wmu.Unlock()
	close(cl.readDone)
}

// Register opens a session for a property and returns its id and whether
// the compiled automaton came from the cache.
func (cl *Client) Register(tenant, formula string, init dist.GlobalState, props *dist.PropMap) (sid uint64, cacheHit bool, err error) {
	r, err := cl.call(&dist.RPCMsg{Kind: dist.RPCRegister, Tenant: tenant, Formula: formula, Init: init, Props: props})
	if err != nil {
		return 0, false, err
	}
	if r.Kind != dist.RPCRegistered {
		return 0, false, fmt.Errorf("server: unexpected %s reply to register", r.Kind)
	}
	return r.SID, r.CacheHit, nil
}

// Attach re-adopts a session that survived a daemon restart (durable-state
// mode). It returns the resume epoch (how many restarts the session has
// survived) and the per-process fed counts: the feeder resumes process p at
// its event fed[p]+1, re-sending anything ingested after the daemon's last
// checkpoint.
func (cl *Client) Attach(sid uint64) (epoch uint64, fed []int, err error) {
	r, err := cl.call(&dist.RPCMsg{Kind: dist.RPCAttach, SID: sid})
	if err != nil {
		return 0, nil, err
	}
	if r.Kind != dist.RPCRegistered {
		return 0, nil, fmt.Errorf("server: unexpected %s reply to attach", r.Kind)
	}
	return r.Epoch, r.Fed, nil
}

// Subscribe streams the session's verdicts to OnVerdict on this connection.
func (cl *Client) Subscribe(sid uint64) error {
	r, err := cl.call(&dist.RPCMsg{Kind: dist.RPCSubscribe, SID: sid})
	if err != nil {
		return err
	}
	if r.Kind != dist.RPCAcked {
		return fmt.Errorf("server: unexpected %s reply to subscribe", r.Kind)
	}
	return nil
}

// Ingest feeds one pre-stamped event, fire-and-forget: ingestion failures
// arrive later on OnAsyncError and doom the session. The event's record joins
// the open batch (see Client); Ingest returns without waiting for the socket
// unless maxPending bytes already are.
func (cl *Client) Ingest(sid uint64, e *dist.Event) error {
	cl.wmu.Lock()
	defer cl.wmu.Unlock()
	for cl.dead == nil && cl.pending() >= maxPending {
		cl.room.Wait()
	}
	if cl.dead != nil {
		return cl.dead
	}
	empty := cl.pending() == 0
	if sid != cl.batchSID {
		cl.seal()
		cl.batchSID = sid
	}
	batch, err := dist.AppendEventRecord(cl.batch, e)
	if err != nil {
		return err
	}
	if cl.batch = batch; len(batch) >= batchSeal {
		cl.seal()
	}
	if empty {
		cl.wake()
	}
	return cl.dead
}

// Emit live-stamps one event on the server. For sends, the returned id is
// the message id the matching Recv Emit must present.
func (cl *Client) Emit(sid uint64, kind dist.EventType, proc, peer, msgID int, state dist.LocalState) (int, error) {
	r, err := cl.call(&dist.RPCMsg{Kind: dist.RPCEmit, SID: sid, EmitKind: kind, Proc: proc, Peer: peer, MsgID: msgID, State: state})
	if err != nil {
		return 0, err
	}
	if r.Kind != dist.RPCEmitted {
		return 0, fmt.Errorf("server: unexpected %s reply to emit", r.Kind)
	}
	return r.MsgID, nil
}

// End marks one process of the session terminated.
func (cl *Client) End(sid uint64, proc int) error {
	r, err := cl.call(&dist.RPCMsg{Kind: dist.RPCEnd, SID: sid, Proc: proc})
	if err != nil {
		return err
	}
	if r.Kind != dist.RPCAcked {
		return fmt.Errorf("server: unexpected %s reply to end", r.Kind)
	}
	return nil
}

// CloseSession drains and finalizes the session, returning its terminal
// verdict codes (dist.RPCVerdict* values).
func (cl *Client) CloseSession(sid uint64) ([]byte, error) {
	r, err := cl.call(&dist.RPCMsg{Kind: dist.RPCClose, SID: sid})
	if err != nil {
		return nil, err
	}
	if r.Kind != dist.RPCClosed {
		return nil, fmt.Errorf("server: unexpected %s reply to close", r.Kind)
	}
	return r.Verdicts, nil
}

// Close tears down the connection and returns once the read loop and the
// writer have exited: every blocked Ingest and parked verb is released with
// an error. Bytes still awaiting the writer, or inside the write the close
// interrupted, are dropped, and Close says how many — unless the connection
// had already failed, which every call since has reported.
func (cl *Client) Close() error {
	cl.wmu.Lock()
	failed := cl.dead != nil
	cl.fail(fmt.Errorf("server: client closed"))
	cl.wmu.Unlock()
	<-cl.readDone
	<-cl.writeDone
	cl.wmu.Lock()
	dropped := cl.pending() + cl.unwritten
	cl.wmu.Unlock()
	if !failed && dropped > 0 {
		return fmt.Errorf("server: client closed with %d bytes never written to the connection", dropped)
	}
	return nil
}
