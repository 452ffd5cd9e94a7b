package server

// Tests of the batched ingest path, both ends: the client's write-combining
// writer (client.go's two invariants, its pending bound, its failure modes)
// and the server's run-of-records Ingest (a k-record frame is k one-record
// frames; a frame is fed whole or not at all).

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"decentmon/internal/dist"
	"decentmon/internal/wire"
)

// rawConn speaks the protocol frame by frame, so a test decides what shares
// an Ingest frame (the Client decides by what its writer finds pending).
type rawConn struct {
	t  *testing.T
	c  net.Conn
	br *bufio.Reader
}

// dialRaw connects and completes the hello exchange at the given version,
// returning the server's answer to the hello.
func dialRaw(t *testing.T, addr string, version uint8) (*rawConn, *dist.RPCMsg) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	rc := &rawConn{t: t, c: c, br: bufio.NewReader(c)}
	rc.send(&dist.RPCMsg{Kind: dist.RPCHello, Version: version})
	return rc, rc.recv()
}

func (rc *rawConn) send(m *dist.RPCMsg) {
	rc.t.Helper()
	frame, err := dist.AppendRPC(nil, m)
	if err != nil {
		rc.t.Fatal(err)
	}
	if _, err := rc.c.Write(frame); err != nil {
		rc.t.Fatal(err)
	}
}

// sendPayload frames bytes no encoder would produce.
func (rc *rawConn) sendPayload(payload []byte) {
	rc.t.Helper()
	frame := append(wire.AppendUvarint(nil, uint64(len(payload))), payload...)
	if _, err := rc.c.Write(frame); err != nil {
		rc.t.Fatal(err)
	}
}

// recv reads the next frame; the message owns its bytes.
func (rc *rawConn) recv() *dist.RPCMsg {
	rc.t.Helper()
	rc.c.SetReadDeadline(time.Now().Add(30 * time.Second))
	payload, _, err := dist.ReadRPCFrame(rc.br, nil)
	if err != nil {
		rc.t.Fatalf("reading a frame: %v", err)
	}
	m, err := dist.DecodeRPC(payload)
	if err != nil {
		rc.t.Fatal(err)
	}
	return m
}

// call sends a verb and returns its reply, which must be of the given kind.
func (rc *rawConn) call(m *dist.RPCMsg, want dist.RPCKind) *dist.RPCMsg {
	rc.t.Helper()
	rc.send(m)
	r := rc.recv()
	if r.Kind != want {
		rc.t.Fatalf("%s answered with %s (%s), want %s", m.Kind, r.Kind, r.Err, want)
	}
	return r
}

// ingest sends evs as Ingest frames of k records each (the last may be
// shorter).
func (rc *rawConn) ingest(sid uint64, evs []*dist.Event, k int) {
	rc.t.Helper()
	for lo := 0; lo < len(evs); lo += k {
		rc.send(&dist.RPCMsg{Kind: dist.RPCIngest, SID: sid, Raw: records(rc.t, evs[lo:min(lo+k, len(evs))])})
	}
}

// records encodes events back to back.
func records(t *testing.T, evs []*dist.Event) []byte {
	t.Helper()
	var raw []byte
	for _, e := range evs {
		var err error
		if raw, err = dist.AppendEventRecord(raw, e); err != nil {
			t.Fatal(err)
		}
	}
	return raw
}

// TestIngestRunEqualsSingles: however a session's events are cut into frames
// — one to a frame, a few, more than a feed window, all of them — the daemon
// absorbs the same per-process counts and reaches the same verdict set.
func TestIngestRunEqualsSingles(t *testing.T) {
	s := newTestServer(t, Config{})
	rc, _ := dialRaw(t, s.Addr(), dist.RPCVersion)
	for _, tc := range []struct {
		name    string
		formula string
		ts      *dist.TraceSet
		want    string // the in-process verdict set, where a helper computes it
	}{
		{"running example", dist.RunningExampleProperty, dist.RunningExample(), expectedCodes(t, dist.RunningExampleProperty)},
		{"long response", pipelineFormula, dist.Generate(dist.GenConfig{N: 3, InternalPerProc: 60, CommMu: 4, CommSigma: 1, Seed: 15}), ""},
	} {
		evs := linearize(t, tc.ts)
		var ref string
		var refFed []int
		for _, k := range []int{1, 3, feedWindow + 5, len(evs)} {
			sid := rc.call(&dist.RPCMsg{Kind: dist.RPCRegister, Tenant: "acme", Formula: tc.formula,
				Init: tc.ts.InitialState(), Props: tc.ts.Props}, dist.RPCRegistered).SID
			before := s.mx.eventsTotal.Load()
			rc.ingest(sid, evs, k)
			fed := rc.call(&dist.RPCMsg{Kind: dist.RPCAttach, SID: sid}, dist.RPCRegistered).Fed
			if got := s.mx.eventsTotal.Load() - before; got != int64(len(evs)) {
				t.Errorf("%s, %d to a frame: events_total moved by %d, want %d", tc.name, k, got, len(evs))
			}
			codes := codeString(rc.call(&dist.RPCMsg{Kind: dist.RPCClose, SID: sid}, dist.RPCClosed).Verdicts)
			if k == 1 {
				ref, refFed = codes, fed
				continue
			}
			if codes != ref {
				t.Errorf("%s, %d to a frame: verdicts {%s}, one to a frame {%s}", tc.name, k, codes, ref)
			}
			if len(fed) != len(refFed) {
				t.Fatalf("%s: fed %v vs %v", tc.name, fed, refFed)
			}
			for p := range fed {
				if fed[p] != refFed[p] {
					t.Errorf("%s, %d to a frame: fed %v, one to a frame %v", tc.name, k, fed, refFed)
					break
				}
			}
		}
		if tc.want != "" && ref != tc.want {
			t.Errorf("%s: verdicts over RPC {%s}, in-process {%s}", tc.name, ref, tc.want)
		}
	}
}

// TestIngestFrameRefusedWhole: a frame with one bad record — cut short, or of
// a process the session does not have — feeds none of its events and is
// answered by exactly one Error frame; the session then takes the same events
// well-formed. A frame with no record at all does not even decode.
func TestIngestFrameRefusedWhole(t *testing.T) {
	s := newTestServer(t, Config{})
	ts, evs := pipelineTrace(t, 40)
	evs = evs[:40]
	rc, _ := dialRaw(t, s.Addr(), dist.RPCVersion)
	sid := rc.call(&dist.RPCMsg{Kind: dist.RPCRegister, Tenant: "acme", Formula: pipelineFormula,
		Init: ts.InitialState(), Props: ts.Props}, dist.RPCRegistered).SID

	good := records(t, evs)
	cut := records(t, evs[:17])
	cut = append(cut[:len(cut)-1], records(t, evs[17:])...) // record 17 loses its last byte
	alien := records(t, evs[:17])
	at := len(alien)
	alien = append(alien, good[at:]...)
	alien[at] = 2 // record 18 names process 2 of 2
	for name, raw := range map[string][]byte{
		"record cut short":      cut,
		"last record cut short": good[:len(good)-1],
		"process out of range":  alien,
	} {
		rc.send(&dist.RPCMsg{Kind: dist.RPCIngest, SID: sid, Raw: raw})
		// The Attach reply is the frame after the Error: one error per frame.
		if r := rc.recv(); r.Kind != dist.RPCError || r.SID != sid {
			t.Fatalf("%s: answered with %s, want an error naming the session", name, r.Kind)
		}
		fed := rc.call(&dist.RPCMsg{Kind: dist.RPCAttach, SID: sid}, dist.RPCRegistered).Fed
		if fed[0]+fed[1] != 0 || s.mx.eventsTotal.Load() != 0 {
			t.Errorf("%s: the refused frame fed %v (events_total %d)", name, fed, s.mx.eventsTotal.Load())
		}
	}
	rc.send(&dist.RPCMsg{Kind: dist.RPCIngest, SID: sid, Raw: good})
	fed := rc.call(&dist.RPCMsg{Kind: dist.RPCAttach, SID: sid}, dist.RPCRegistered).Fed
	if fed[0]+fed[1] != len(evs) {
		t.Errorf("after the refusals the session took %v of %d events", fed, len(evs))
	}
	rc.call(&dist.RPCMsg{Kind: dist.RPCClose, SID: sid}, dist.RPCClosed)

	rc.sendPayload([]byte{byte(dist.RPCIngest), byte(sid)})
	if r := rc.recv(); r.Kind != dist.RPCError || !strings.Contains(r.Err, "without an event record") {
		t.Errorf("an Ingest of no record answered with %s %q", r.Kind, r.Err)
	}
}

// TestHelloVersionMismatch: version 2 and 3 peers are turned away by number,
// on both sides of the connection.
func TestHelloVersionMismatch(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, v := range []uint8{2, 3} {
		want := fmt.Sprintf("protocol version %d not supported (want %d)", v, dist.RPCVersion)
		if _, r := dialRaw(t, s.Addr(), v); r.Kind != dist.RPCError || !strings.Contains(r.Err, want) {
			t.Errorf("a version %d hello answered with %s %q", v, r.Kind, r.Err)
		}
		addr, _ := mutePeer(t, v)
		if cl, err := Dial(addr); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("hello v%d", v)) {
			if cl != nil {
				cl.Close()
			}
			t.Errorf("dialing a version %d server: %v", v, err)
		}
	}
}

// TestRetiredEmitVerbRefused: a frame of verb 4, version 3's Emit, is answered
// with an Error naming the verb and ends the connection; the session it names
// is not touched.
func TestRetiredEmitVerbRefused(t *testing.T) {
	s := newTestServer(t, Config{MetricsAddr: "off"})
	ts := dist.RunningExample()
	rc, _ := dialRaw(t, s.Addr(), dist.RPCVersion)
	sid := rc.call(&dist.RPCMsg{Kind: dist.RPCRegister, Tenant: "acme", Formula: dist.RunningExampleProperty, Init: ts.InitialState(), Props: ts.Props}, dist.RPCRegistered).SID
	// Emit(session, send, process 0, peer 1, no message id, state 0), as
	// version 3 encoded it.
	rc.sendPayload(append(wire.AppendUvarint([]byte{4}, sid), 1, 0, 2, 0, 0, 0, 0, 0))
	if r := rc.recv(); r.Kind != dist.RPCError || !strings.Contains(r.Err, "unknown rpc verb 4") {
		t.Errorf("a frame of verb 4 answered with %s %q", r.Kind, r.Err)
	}
	rc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := rc.br.ReadByte(); err != io.EOF {
		t.Errorf("the connection is still open after a frame of verb 4: %v", err)
	}
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, fed, err := cl.Attach(sid); err != nil || fed[0]+fed[1] != 0 {
		t.Errorf("the session after the refused frame: fed %v (%v)", fed, err)
	}
}

// mutePeer listens, answers each connection's hello at the given version and
// then never reads from it again: a server that has stopped. The accepted
// connections arrive on the channel.
func mutePeer(t *testing.T, version uint8) (addr string, conns <-chan net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan net.Conn, 1)
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { c.Close() })
			if _, _, err := dist.ReadRPCFrame(bufio.NewReader(c), nil); err != nil {
				continue
			}
			hello, _ := dist.AppendRPC(nil, &dist.RPCMsg{Kind: dist.RPCHello, Version: version})
			c.Write(hello)
			select {
			case ch <- c:
			default:
			}
		}
	}()
	return ln.Addr().String(), ch
}

// TestClientLoneIngestIsSent: nothing holds a single Ingest back. The event
// that decides the property is ingested alone, and its verdict arrives on
// OnVerdict with no further call into the client: no verb to push the event
// out, no timer to wait for.
func TestClientLoneIngestIsSent(t *testing.T) {
	s := newTestServer(t, Config{})
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	conclusive := make(chan byte, 1)
	cl.OnVerdict = func(m *dist.RPCMsg) {
		if m.Conclusive {
			select {
			case conclusive <- m.Verdict:
			default:
			}
		}
	}
	ts := dist.RunningExample()
	sid, _, err := cl.Register("acme", "F (x1=10)", ts.InitialState(), ts.Props)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Subscribe(sid); err != nil {
		t.Fatal(err)
	}
	evs := exampleEvents(t)
	decides := slices.IndexFunc(evs, func(e *dist.Event) bool { return e.Proc == 0 && e.State&0b10 != 0 })
	for _, e := range evs[:decides] {
		if err := cl.Ingest(sid, e); err != nil {
			t.Fatal(err)
		}
	}
	// The daemon has handled those, and x1=10 holds in none of them.
	if _, _, err := cl.Attach(sid); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-conclusive:
		t.Fatalf("verdict %s before the deciding event", dist.RPCVerdictString(v))
	default:
	}
	if err := cl.Ingest(sid, evs[decides]); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-conclusive:
		if v != dist.RPCVerdictTop {
			t.Errorf("verdict %s, want T", dist.RPCVerdictString(v))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a lone Ingest was not delivered: no verdict within 30s")
	}
}

// TestClientReplyImpliesIngestsHandled: when a verb's reply is back, every
// Ingest called before the verb has been fed — here, counted.
func TestClientReplyImpliesIngestsHandled(t *testing.T) {
	s := newTestServer(t, Config{})
	ts, evs := pipelineTrace(t, 240)
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sid, _, err := cl.Register("acme", pipelineFormula, ts.InitialState(), ts.Props)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evs {
		if err := cl.Ingest(sid, e); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Subscribe(sid); err != nil {
		t.Fatal(err)
	}
	if got := s.mx.eventsTotal.Load(); got != int64(len(evs)) {
		t.Errorf("events_total = %d when the Subscribe reply returned, want %d", got, len(evs))
	}
	if _, err := cl.CloseSession(sid); err != nil {
		t.Fatal(err)
	}
}

// TestClientInterleavedSessions: two goroutines share one Client, each
// driving its own session event by event. The open batch is sealed wherever
// the session changes, so each session still sees its own events in order.
func TestClientInterleavedSessions(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 8
	}
	s := newTestServer(t, Config{})
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	evs := exampleEvents(t)
	formulas := []string{dist.RunningExampleProperty, "F (x1=10)"}
	want := []string{expectedCodes(t, formulas[0]), expectedCodes(t, formulas[1])}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		got := make([]string, len(formulas))
		for i := range formulas {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ts := dist.RunningExample()
				sid, _, err := cl.Register("acme", formulas[i], ts.InitialState(), ts.Props)
				if err != nil {
					t.Error(err)
					return
				}
				for _, e := range evs {
					if err := cl.Ingest(sid, e); err != nil {
						t.Error(err)
						return
					}
				}
				codes, err := cl.CloseSession(sid)
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = codeString(codes)
			}()
		}
		wg.Wait()
		for i := range formulas {
			if got[i] != want[i] {
				t.Fatalf("round %d: %s over a shared client = {%s}, in-process = {%s}", round, formulas[i], got[i], want[i])
			}
		}
	}
}

// flood ingests one event over and over until Ingest fails, and reports that
// failure.
func flood(cl *Client, e *dist.Event) <-chan error {
	done := make(chan error, 1)
	go func() {
		for {
			if err := cl.Ingest(1, e); err != nil {
				done <- err
				return
			}
		}
	}()
	return done
}

// awaitBackpressure polls until maxPending bytes await cl's writer — the
// state in which Ingest blocks — checking the bound on every look.
func awaitBackpressure(t *testing.T, cl *Client, record int) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		cl.wmu.Lock()
		pending := cl.pending()
		cl.wmu.Unlock()
		if pending >= maxPending+record {
			t.Fatalf("%d bytes pending, bound %d plus one %d-byte record", pending, maxPending, record)
		}
		if pending >= maxPending {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("a peer that reads nothing never filled the pending buffer (%d bytes)", pending)
		}
	}
}

// TestClientBackpressureAndClose: against a peer that has stopped reading,
// Ingest blocks with the pending bytes at their bound, and Close releases it
// with an error.
func TestClientBackpressureAndClose(t *testing.T) {
	addr, _ := mutePeer(t, dist.RPCVersion)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	e := exampleEvents(t)[0]
	done := flood(cl, e)
	awaitBackpressure(t, cl, dist.EventRecordSize(e))
	select {
	case err := <-done:
		t.Fatalf("Ingest gave up before Close: %v", err)
	default:
	}
	cl.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Close released a blocked Ingest without an error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not release the blocked Ingest")
	}
	if err := cl.Ingest(1, e); err == nil {
		t.Error("Ingest on a closed client succeeded")
	}
}

// TestClientCloseReportsDroppedBytes: Close does not wait for a peer that has
// stopped reading, but it no longer drops the bytes that peer never took in
// silence: it returns an error that counts them. With nothing pending — the
// state every caller that ends on a synchronous verb closes in — and after a
// failure every call has already reported, it returns nil.
func TestClientCloseReportsDroppedBytes(t *testing.T) {
	addr, _ := mutePeer(t, dist.RPCVersion)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	e := exampleEvents(t)[0]
	done := flood(cl, e)
	awaitBackpressure(t, cl, dist.EventRecordSize(e))
	err = cl.Close()
	<-done
	var dropped int
	if err == nil {
		t.Fatal("Close dropped a full pending buffer and returned nil")
	} else if _, serr := fmt.Sscanf(err.Error(), "server: client closed with %d bytes never written", &dropped); serr != nil {
		t.Fatalf("Close: %v", err)
	}
	// What awaited the writer at the least; what its interrupted write had
	// not written comes on top.
	if dropped < maxPending {
		t.Errorf("Close counts %d bytes, at least the %d pending were dropped", dropped, maxPending)
	}

	cl, err = Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Errorf("Close with nothing pending: %v", err)
	}

	addr, conns := mutePeer(t, dist.RPCVersion) // a peer whose connection the test can take down
	cl, err = Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	peer := <-conns
	done = flood(cl, e)
	awaitBackpressure(t, cl, dist.EventRecordSize(e))
	peer.Close()
	if err := <-done; err == nil {
		t.Error("the flood ended without an error")
	}
	if err := cl.Close(); err != nil {
		t.Errorf("Close after a failure every call has reported: %v", err)
	}
}

// stuckConn is a connection to a peer that is mute from the first byte: every
// Write announces its length on wrote and then blocks, as Read does, until
// Close.
type stuckConn struct {
	net.Conn // nil: the client calls nothing else
	wrote    chan int
	closed   chan struct{}
	once     sync.Once
}

func (c *stuckConn) Write(p []byte) (int, error) {
	c.wrote <- len(p)
	<-c.closed
	return 0, net.ErrClosed
}

func (c *stuckConn) Read([]byte) (int, error) {
	<-c.closed
	return 0, net.ErrClosed
}

func (c *stuckConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// TestClientRoomWhenWriterTakes: there is room the moment the writer takes the
// pending buffer, not when its write returns. An Ingest parks at the bound
// before the writer has run; the writer then takes everything and blocks
// inside its first Write for good. The parked Ingest must come back and the
// buffer refill to the bound while that Write is still the only one.
func TestClientRoomWhenWriterTakes(t *testing.T) {
	conn := &stuckConn{wrote: make(chan int, 4), closed: make(chan struct{})}
	cl := newClient(conn)
	go cl.readLoop()
	e := exampleEvents(t)[0]
	done := flood(cl, e)
	awaitBackpressure(t, cl, dist.EventRecordSize(e)) // no writer yet: the flood parks
	go cl.writeLoop()
	if n := <-conn.wrote; n < maxPending {
		t.Fatalf("the writer's first write took %d bytes, want the %d pending", n, maxPending)
	}
	awaitBackpressure(t, cl, dist.EventRecordSize(e))
	select {
	case n := <-conn.wrote:
		t.Fatalf("a second write (%d bytes) began under a blocked first one", n)
	case err := <-done:
		t.Fatalf("Ingest gave up before Close: %v", err)
	default:
	}
	cl.Close()
	if err := <-done; err == nil {
		t.Error("Close released a blocked Ingest without an error")
	}
}

// TestClientWriteErrorIsSticky: the peer dies under a writer blocked
// mid-write. The failure reaches the blocked Ingest, and every later call —
// fire-and-forget or synchronous — returns it instead of queueing behind a
// dead socket.
func TestClientWriteErrorIsSticky(t *testing.T) {
	addr, conns := mutePeer(t, dist.RPCVersion)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	peer := <-conns
	e := exampleEvents(t)[0]
	done := flood(cl, e)
	awaitBackpressure(t, cl, dist.EventRecordSize(e))
	peer.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("the flood ended without an error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a dead peer left Ingest blocked")
	}
	if err := cl.Ingest(1, e); err == nil {
		t.Error("Ingest after the failure succeeded")
	}
	verb := make(chan error, 1)
	go func() { verb <- cl.Subscribe(1) }()
	select {
	case err := <-verb:
		if err == nil {
			t.Error("Subscribe after the failure succeeded")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Subscribe after the failure hangs")
	}
}

// TestClientFramesLeaveInCallOrder reads what a Client writes: whatever the
// writer made of the calls — how many frames, how many records in each — the
// records and verbs on the wire are the calls, in order, and a batch never
// mixes sessions.
func TestClientFramesLeaveInCallOrder(t *testing.T) {
	addr, conns := mutePeer(t, dist.RPCVersion)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	peer := <-conns
	evs := exampleEvents(t)
	// Calls: events of session 1 and 2 alternating in pairs, then a verb.
	var want [][]byte // per call: sid byte + record
	for i, e := range evs {
		sid := uint64(1 + i/2%2)
		if err := cl.Ingest(sid, e); err != nil {
			t.Fatal(err)
		}
		want = append(want, append([]byte{byte(sid)}, records(t, []*dist.Event{e})...))
	}
	go cl.Subscribe(9) // parks: the peer never answers
	br := bufio.NewReader(peer)
	peer.SetReadDeadline(time.Now().Add(30 * time.Second))
	var got [][]byte
	for {
		payload, _, err := dist.ReadRPCFrame(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		m, err := dist.DecodeRPC(payload)
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind == dist.RPCSubscribe {
			break
		}
		if m.Kind != dist.RPCIngest {
			t.Fatalf("unexpected %s frame", m.Kind)
		}
		run, _, err := dist.DecodeEventRun(nil, nil, m.Raw, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range run {
			got = append(got, append([]byte{byte(m.SID)}, records(t, []*dist.Event{e})...))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d records on the wire before the verb, %d ingested", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d on the wire is not the %d-th call's", i, i)
		}
	}
}
