package server

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decentmon/internal/automaton"
	"decentmon/internal/core"
	"decentmon/internal/dist"
	"decentmon/internal/ltl"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown() })
	return s
}

// exampleEvents linearizes the running example once; events are read-only
// and shared across sessions (ingestion serializes them per frame).
func exampleEvents(t *testing.T) []*dist.Event {
	t.Helper()
	return linearize(t, dist.RunningExample())
}

// linearize returns a trace set's events in stream order.
func linearize(t *testing.T, ts *dist.TraceSet) []*dist.Event {
	t.Helper()
	var evs []*dist.Event
	src := ts.Stream()
	for {
		e, err := src.Next()
		if err == io.EOF {
			return evs
		}
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, e)
	}
}

// expectedCodes computes the in-process verdict set for a formula over the
// running example — the reference every RPC round trip must reproduce.
func expectedCodes(t *testing.T, formula string) string {
	t.Helper()
	ts := dist.RunningExample()
	f, err := ltl.Parse(formula)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := automaton.Build(f, ts.Props.Names)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(core.RunConfig{Traces: ts, Automaton: mon})
	if err != nil {
		t.Fatal(err)
	}
	var codes []byte
	for _, v := range res.VerdictList() {
		codes = append(codes, byte(v))
	}
	return codeString(codes)
}

func codeString(codes []byte) string {
	var sb strings.Builder
	for i, c := range codes {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(dist.RPCVerdictString(c))
	}
	return sb.String()
}

// runExampleSession drives one full session lifecycle over an established
// client connection and returns the terminal verdict codes.
func runExampleSession(t *testing.T, cl *Client, tenant, formula string, evs []*dist.Event) []byte {
	t.Helper()
	ts := dist.RunningExample()
	sid, _, err := cl.Register(tenant, formula, ts.InitialState(), ts.Props)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	for _, e := range evs {
		if err := cl.Ingest(sid, e); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	codes, err := cl.CloseSession(sid)
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	return codes
}

// TestServerEndToEnd pins the core contract: registering the running
// example's property over TCP and replaying its trace produces exactly the
// in-process verdict set, with incremental verdicts streamed to the
// subscriber along the way.
func TestServerEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{})
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var streamed atomic.Int64
	cl.OnVerdict = func(m *dist.RPCMsg) { streamed.Add(1) }

	ts := dist.RunningExample()
	sid, hit, err := cl.Register("acme", dist.RunningExampleProperty, ts.InitialState(), ts.Props)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first registration reported a cache hit")
	}
	if err := cl.Subscribe(sid); err != nil {
		t.Fatal(err)
	}
	for _, e := range exampleEvents(t) {
		if err := cl.Ingest(sid, e); err != nil {
			t.Fatal(err)
		}
	}
	codes, err := cl.CloseSession(sid)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := codeString(codes), expectedCodes(t, dist.RunningExampleProperty); got != want {
		t.Errorf("verdicts over RPC = {%s}, in-process = {%s}", got, want)
	}
	if streamed.Load() == 0 {
		t.Error("no incremental verdicts were streamed to the subscriber")
	}

	// Re-registering the same property (different spelling) hits the cache.
	sid2, hit, err := cl.Register("acme", "G ((x1>=5) -> ((x2>=15) U (x1=10)))", ts.InitialState(), ts.Props)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("alpha-equivalent re-registration missed the cache")
	}
	if _, err := cl.CloseSession(sid2); err != nil {
		t.Fatal(err)
	}
}

// TestServerEmitLive drives the running example through server-side
// stamping: the client never sees a vector clock, only event kinds and
// message ids, yet the verdict set matches the pre-stamped replay.
func TestServerEmitLive(t *testing.T) {
	s := newTestServer(t, Config{})
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ts := dist.RunningExample()
	sid, _, err := cl.Register("acme", dist.RunningExampleProperty, ts.InitialState(), ts.Props)
	if err != nil {
		t.Fatal(err)
	}
	// P0: send(m1); x1=5; x1=10; recv(m2)   P1: recv(m1); x2=15; x2=20; send(m2)
	m1, err := cl.Emit(sid, dist.Send, 0, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Emit(sid, dist.Recv, 1, 0, m1, 0); err != nil {
		t.Fatal(err)
	}
	for _, st := range []dist.LocalState{0b01, 0b11} {
		if _, err := cl.Emit(sid, dist.Internal, 0, -1, 0, st); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 {
		if _, err := cl.Emit(sid, dist.Internal, 1, -1, 0, 0b1); err != nil {
			t.Fatal(err)
		}
	}
	m2, err := cl.Emit(sid, dist.Send, 1, 0, 0, 0b1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Emit(sid, dist.Recv, 0, 1, m2, 0b11); err != nil {
		t.Fatal(err)
	}
	codes, err := cl.CloseSession(sid)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := codeString(codes), expectedCodes(t, dist.RunningExampleProperty); got != want {
		t.Errorf("live-stamped verdicts = {%s}, replay = {%s}", got, want)
	}
}

// TestServerManySessions is the scale acceptance test: one dlmond process
// holds 512 sessions open concurrently (64 under -short), every one of
// them completing the full register → ingest → verdict → close lifecycle
// with the correct verdict set, over a bounded number of connections
// (sessions multiplex; the daemon does not need a socket per session).
func TestServerManySessions(t *testing.T) {
	conns, perConn := 32, 16
	if testing.Short() {
		conns, perConn = 8, 8
	}
	total := conns * perConn

	s := newTestServer(t, Config{})
	evs := exampleEvents(t)
	ts := dist.RunningExample()
	formulas := []string{
		dist.RunningExampleProperty,
		"G((x1>=5) ->((x2>=15)U(x1=10)))", // same canonical key as above
		"F (x1=10)",
		"G (x1>=5 -> F x1=10)",
	}
	want := make(map[string]string, len(formulas))
	for _, f := range formulas {
		want[f] = expectedCodes(t, f)
	}

	var (
		wg         sync.WaitGroup
		registered sync.WaitGroup
		proceed    = make(chan struct{})
		peak       atomic.Int64
		failures   atomic.Int64
	)
	registered.Add(conns)
	for c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(s.Addr())
			if err != nil {
				t.Error(err)
				registered.Done()
				failures.Add(1)
				return
			}
			defer cl.Close()
			tenant := fmt.Sprintf("tenant-%d", c)
			sids := make([]uint64, perConn)
			forms := make([]string, perConn)
			for i := range perConn {
				forms[i] = formulas[(c*perConn+i)%len(formulas)]
				sid, _, err := cl.Register(tenant, forms[i], ts.InitialState(), ts.Props)
				if err != nil {
					t.Errorf("conn %d register %d: %v", c, i, err)
					registered.Done()
					failures.Add(1)
					return
				}
				sids[i] = sid
			}
			registered.Done()
			<-proceed // barrier: every session is open before any closes
			for _, e := range evs {
				for _, sid := range sids {
					if err := cl.Ingest(sid, e); err != nil {
						t.Errorf("conn %d ingest: %v", c, err)
						failures.Add(1)
						return
					}
				}
			}
			for i, sid := range sids {
				codes, err := cl.CloseSession(sid)
				if err != nil {
					t.Errorf("conn %d close %d: %v", c, i, err)
					failures.Add(1)
					return
				}
				if got := codeString(codes); got != want[forms[i]] {
					t.Errorf("conn %d session %d (%s): verdicts {%s}, want {%s}", c, i, forms[i], got, want[forms[i]])
					failures.Add(1)
					return
				}
			}
		}()
	}
	registered.Wait()
	peak.Store(s.mx.sessionsLive.Load())
	close(proceed)
	wg.Wait()

	if failures.Load() > 0 {
		t.Fatalf("%d connections failed", failures.Load())
	}
	if got := peak.Load(); got != int64(total) {
		t.Errorf("sessions live at the barrier = %d, want %d", got, total)
	}
	if got := s.mx.sessionsLive.Load(); got != 0 {
		t.Errorf("sessions live after close = %d, want 0", got)
	}
	hits, misses := s.cache.Stats()
	// Four spellings over one proposition space collapse to three compiled
	// automata; everything else must be a hit.
	if misses != 3 {
		t.Errorf("automaton cache misses = %d, want 3 (one per distinct property)", misses)
	}
	if hits != int64(total)-3 {
		t.Errorf("automaton cache hits = %d, want %d", hits, int64(total)-3)
	}
}

// TestServerHotTenantIsolation pins the admission-control contract: a
// tenant flooding events gets throttled (its connection pays the pause)
// while a well-behaved tenant's full session lifecycle stays fast.
func TestServerHotTenantIsolation(t *testing.T) {
	// 200 events/s with burst 50: the quiet tenant's ~17 charged units fit
	// in the burst; the hot tenant's thousands do not.
	s := newTestServer(t, Config{Rate: 200, Burst: 50})
	evs := exampleEvents(t)
	ts := dist.RunningExample()

	// Hot tenant: a flood of ingests on its own connection, until shutdown.
	hotStarted := make(chan struct{})
	hotDone := make(chan struct{})
	go func() {
		defer close(hotDone)
		cl, err := Dial(s.Addr())
		if err != nil {
			t.Error(err)
			close(hotStarted)
			return
		}
		defer cl.Close()
		sid, _, err := cl.Register("hot", dist.RunningExampleProperty, ts.InitialState(), ts.Props)
		if err != nil {
			t.Error(err)
			close(hotStarted)
			return
		}
		close(hotStarted)
		for i := 0; i < 100000; i++ {
			// Replaying the first event over and over is invalid input, but
			// throttling happens before decoding: the flood exercises
			// admission control regardless (the session is doomed, the
			// tenant keeps paying).
			if err := cl.Ingest(sid, evs[0]); err != nil {
				return // server shut down under us: expected
			}
		}
	}()
	<-hotStarted

	// Quiet tenant: full lifecycle, measured.
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	codes := runExampleSession(t, cl, "quiet", dist.RunningExampleProperty, evs)
	quietWall := time.Since(start)

	if got, want := codeString(codes), expectedCodes(t, dist.RunningExampleProperty); got != want {
		t.Errorf("quiet tenant verdicts {%s}, want {%s}", got, want)
	}
	// Generous CI-safe bound: the quiet tenant must complete its whole
	// lifecycle orders of magnitude faster than the hot tenant's backlog
	// (which owes hundreds of seconds of pause at this rate).
	if quietWall > 5*time.Second {
		t.Errorf("quiet tenant lifecycle took %v alongside a flooding tenant", quietWall)
	}
	// The flood is throttled once the server has absorbed more than a burst
	// of it, and the quiet tenant's whole lifecycle can finish before that:
	// wait for the counter (bounded) instead of sampling it at whatever
	// instant the scheduler got us here.
	for deadline := time.Now().Add(10 * time.Second); s.mx.throttleNanos.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if s.mx.throttleNanos.Load() == 0 {
		t.Error("flooding tenant was never throttled")
	}
	s.Shutdown() // unblocks the hot tenant's pause
	<-hotDone
}

// TestServerMetricsEndpoints checks the observability surface end to end.
func TestServerMetricsEndpoints(t *testing.T) {
	s := newTestServer(t, Config{})
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	runExampleSession(t, cl, "acme", dist.RunningExampleProperty, exampleEvents(t))

	resp, err := http.Get("http://" + s.MetricsAddr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("/healthz = %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get("http://" + s.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"dlmond_sessions_total 1",
		"dlmond_events_total 8",
		"dlmond_sessions_live 0",
		"dlmond_automaton_cache_misses_total 1",
		"dlmond_verdict_latency_seconds_count",
		"dlmond_knowledge_bytes",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(text, "# TYPE dlmond_verdict_latency_seconds histogram") {
		t.Error("/metrics missing histogram type line")
	}
}

// TestServerRejectsProtocolMisuse covers the error paths a misbehaving
// client hits: no hello, bad version, unknown session, cross-tenant reuse.
func TestServerRejectsProtocolMisuse(t *testing.T) {
	s := newTestServer(t, Config{})

	// Unknown session id.
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Subscribe(999); err == nil || !strings.Contains(err.Error(), "no session") {
		t.Errorf("subscribe to unknown session: %v", err)
	}
	// A connection is pinned to its first tenant.
	ts := dist.RunningExample()
	if _, _, err := cl.Register("a", "F (x1=10)", ts.InitialState(), ts.Props); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Register("b", "F (x1=10)", ts.InitialState(), ts.Props); err == nil {
		t.Error("cross-tenant register on one connection succeeded")
	}
	// Unparseable property.
	if _, _, err := cl.Register("a", "G (", ts.InitialState(), ts.Props); err == nil {
		t.Error("registering a malformed property succeeded")
	}
}

// TestSilentPeerDropped: a peer that connects and never completes its hello —
// it sends nothing, or half of the frame — is closed by the server once the
// hello deadline passes, instead of holding a goroutine and a socket for good.
// The deadline ends with the hello: a connection idle after it is a
// subscriber, and stays.
func TestSilentPeerDropped(t *testing.T) {
	s := newTestServer(t, Config{})
	// Under connMu, which the accept loop takes before it starts a
	// connection's goroutine: a peer that sends nothing gives no other order
	// between this write and that goroutine's read.
	s.connMu.Lock()
	s.helloTimeout = 200 * time.Millisecond
	s.connMu.Unlock()
	hello, err := dist.AppendRPC(nil, &dist.RPCMsg{Kind: dist.RPCHello, Version: dist.RPCVersion})
	if err != nil {
		t.Fatal(err)
	}
	for name, sent := range map[string][]byte{"nothing": nil, "half a hello": hello[:len(hello)/2]} {
		c, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(sent); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		start := time.Now()
		_, err = c.Read(make([]byte, 1))
		if ne, ok := err.(net.Error); err == nil || ok && ne.Timeout() {
			t.Errorf("a peer that sent %s is still connected after %v (read: %v)", name, time.Since(start).Round(time.Millisecond), err)
		}
	}

	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	time.Sleep(3 * s.helloTimeout)
	ts := dist.RunningExample()
	if _, _, err := cl.Register("a", "F (x1=10)", ts.InitialState(), ts.Props); err != nil {
		t.Errorf("a connection idle for 3 hello deadlines after its hello was dropped: %v", err)
	}
}

// crash simulates a SIGKILL for durability tests: listeners, connections
// and the registry are torn down and every session is abandoned — no
// finalization, no farewell checkpoint. Whatever the cadence checkpoints
// left on disk is exactly what a recovering daemon gets.
func (s *Server) crash() {
	s.shutOnce.Do(func() {
		close(s.stop)
		s.ln.Close()
		if s.httpSrv != nil {
			s.httpSrv.Close()
		}
		s.connMu.Lock()
		for sc := range s.conns {
			sc.c.Close()
		}
		s.connMu.Unlock()
		s.reg.Close()
		s.cancel()
		s.wg.Wait()
	})
}

// feedRemaining ingests the events the daemon has not absorbed, using the
// per-process fed counts an Attach reply carries (SN is 1-based per
// process, so the skipped prefix is exactly e.SN <= fed[e.Proc]).
func feedRemaining(t *testing.T, cl *Client, sid uint64, evs []*dist.Event, fed []int) {
	t.Helper()
	for _, e := range evs {
		if e.SN <= fed[e.Proc] {
			continue
		}
		if err := cl.Ingest(sid, e); err != nil {
			t.Fatalf("resumed ingest: %v", err)
		}
	}
}

// TestServerDurableRecovery is the tentpole acceptance: a durable daemon is
// killed mid-session (no shutdown path runs), a new daemon over the same
// state directory recovers the session, the tenant re-attaches, re-feeds
// what was lost after the last checkpoint, and the terminal verdict set
// equals an uninterrupted run's.
func TestServerDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	evs := exampleEvents(t)
	ts := dist.RunningExample()
	want := expectedCodes(t, dist.RunningExampleProperty)
	cfg := Config{StateDir: dir, CheckpointEvery: 2}

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s1.Shutdown() }) // no-op after crash
	cl, err := Dial(s1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sid, _, err := cl.Register("acme", dist.RunningExampleProperty, ts.InitialState(), ts.Props)
	if err != nil {
		t.Fatal(err)
	}
	cut := 5
	for _, e := range evs[:cut] {
		if err := cl.Ingest(sid, e); err != nil {
			t.Fatal(err)
		}
	}
	// Attach is synchronous on the same connection, so its reply proves the
	// fire-and-forget ingests above were all absorbed before the crash.
	if _, fed, err := cl.Attach(sid); err != nil {
		t.Fatal(err)
	} else if got := fed[0] + fed[1]; got != cut {
		t.Fatalf("daemon absorbed %d events (fed %v), sent %d", got, fed, cut)
	}
	cl.Close()
	s1.crash()

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart over %s: %v", dir, err)
	}
	defer s2.Shutdown()
	if got := s2.Recovered(); got != 1 {
		t.Fatalf("recovered %d sessions, want 1", got)
	}
	cl2, err := Dial(s2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	epoch, fed, err := cl2.Attach(sid)
	if err != nil {
		t.Fatalf("attach after restart: %v", err)
	}
	if epoch != 1 {
		t.Errorf("resume epoch = %d, want 1", epoch)
	}
	// The cadence checkpoints may trail the feed: everything up to the last
	// checkpoint must be there, nothing beyond what was sent.
	if total := fed[0] + fed[1]; total > cut || total < cut-cfg.CheckpointEvery {
		t.Errorf("recovered fed counts %v (%d events) for %d sent at cadence %d",
			fed, total, cut, cfg.CheckpointEvery)
	}
	feedRemaining(t, cl2, sid, evs, fed)
	codes, err := cl2.CloseSession(sid)
	if err != nil {
		t.Fatal(err)
	}
	if got := codeString(codes); got != want {
		t.Errorf("verdicts after crash/recover = {%s}, uninterrupted = {%s}", got, want)
	}
	// Closing removed the checkpoint: nothing to recover on the next start.
	files, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Errorf("closed session left checkpoints behind: %v", files)
	}

	resp, err := http.Get("http://" + s2.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, wantLine := range []string{"dlmond_sessions_recovered_total 1", "dlmond_checkpoint_errors_total 0"} {
		if !strings.Contains(string(body), wantLine) {
			t.Errorf("/metrics missing %q", wantLine)
		}
	}
}

// TestServerDurableEmitRecovery crashes a live-stamping session with a
// message in flight: the send happened before the crash, the receive after
// recovery. The checkpoint must carry the stamper clocks and the token
// ledger for the resumed receive to stamp correctly.
func TestServerDurableEmitRecovery(t *testing.T) {
	dir := t.TempDir()
	ts := dist.RunningExample()
	want := expectedCodes(t, dist.RunningExampleProperty)
	cfg := Config{StateDir: dir, CheckpointEvery: 1, MetricsAddr: "off"}

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s1.Shutdown() })
	cl, err := Dial(s1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sid, _, err := cl.Register("acme", dist.RunningExampleProperty, ts.InitialState(), ts.Props)
	if err != nil {
		t.Fatal(err)
	}
	// P0: send(m1); x1=5; x1=10; recv(m2)   P1: recv(m1); x2=15; x2=20; send(m2)
	m1, err := cl.Emit(sid, dist.Send, 0, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Emit(sid, dist.Recv, 1, 0, m1, 0); err != nil {
		t.Fatal(err)
	}
	for _, st := range []dist.LocalState{0b01, 0b11} {
		if _, err := cl.Emit(sid, dist.Internal, 0, -1, 0, st); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 {
		if _, err := cl.Emit(sid, dist.Internal, 1, -1, 0, 0b1); err != nil {
			t.Fatal(err)
		}
	}
	m2, err := cl.Emit(sid, dist.Send, 1, 0, 0, 0b1)
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	s1.crash() // m2 is now in flight across the crash

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown()
	cl2, err := Dial(s2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	epoch, fed, err := cl2.Attach(sid)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || fed[0] != 3 || fed[1] != 4 {
		t.Fatalf("resume state epoch %d fed %v, want epoch 1 fed [3 4] at cadence 1", epoch, fed)
	}
	if _, err := cl2.Emit(sid, dist.Recv, 0, 1, m2, 0b11); err != nil {
		t.Fatalf("receive of pre-crash send after recovery: %v", err)
	}
	codes, err := cl2.CloseSession(sid)
	if err != nil {
		t.Fatal(err)
	}
	if got := codeString(codes); got != want {
		t.Errorf("live-stamped verdicts across a crash = {%s}, want {%s}", got, want)
	}

	// Cross-tenant adoption is refused.
	cl3, err := Dial(s2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl3.Close()
	sid2, _, err := cl3.Register("acme", dist.RunningExampleProperty, ts.InitialState(), ts.Props)
	if err != nil {
		t.Fatal(err)
	}
	cl4, err := Dial(s2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl4.Close()
	if _, _, err := cl4.Register("rival", "F (x1=10)", ts.InitialState(), ts.Props); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl4.Attach(sid2); err == nil || !strings.Contains(err.Error(), "tenant") {
		t.Errorf("cross-tenant attach: %v", err)
	}
}

// TestServerRecoverySkipsCorrupt pins the failure isolation: one corrupt
// checkpoint must not stop the daemon from starting or from recovering the
// other sessions.
func TestServerRecoverySkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	ts := dist.RunningExample()
	cfg := Config{StateDir: dir, CheckpointEvery: 1, MetricsAddr: "off"}

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s1.Shutdown() })
	cl, err := Dial(s1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sidA, _, err := cl.Register("acme", dist.RunningExampleProperty, ts.InitialState(), ts.Props)
	if err != nil {
		t.Fatal(err)
	}
	sidB, _, err := cl.Register("acme", "F (x1=10)", ts.InitialState(), ts.Props)
	if err != nil {
		t.Fatal(err)
	}
	// Synchronize (Attach replies after the registration checkpoints).
	if _, _, err := cl.Attach(sidB); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	s1.crash()

	// Corrupt session A's checkpoint mid-blob.
	path := checkpointPath(dir, sidA)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x5A
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart with a corrupt checkpoint: %v", err)
	}
	defer s2.Shutdown()
	if got := s2.Recovered(); got != 1 {
		t.Errorf("recovered %d sessions, want 1 (the intact one)", got)
	}
	if got := s2.mx.checkpointErrors.Load(); got != 1 {
		t.Errorf("checkpoint errors = %d, want 1", got)
	}
	cl2, err := Dial(s2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if _, _, err := cl2.Attach(sidB); err != nil {
		t.Errorf("intact session did not survive its neighbor's corruption: %v", err)
	}
	if _, _, err := cl2.Attach(sidA); err == nil {
		t.Error("corrupt session attached")
	}
}

// TestRegistryAddWithID pins the recovered-id discipline: restored sessions
// keep their ids and fresh registrations never collide with them.
func TestRegistryAddWithID(t *testing.T) {
	r := newRegistry()
	if err := r.AddWithID(7, &session{}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddWithID(3, &session{}); err != nil {
		t.Fatal(err)
	}
	sid, err := r.Add(&session{})
	if err != nil {
		t.Fatal(err)
	}
	if sid <= 7 {
		t.Errorf("fresh id %d collides with recovered id space (max 7)", sid)
	}
	for _, want := range []uint64{3, 7, sid} {
		if s := r.Get(want); s == nil || s.id != want {
			t.Errorf("Get(%d) = %+v", want, s)
		}
	}
	if err := r.AddWithID(0, &session{}); err == nil {
		t.Error("AddWithID(0) accepted the reserved id")
	}
	r.Close()
}

// TestRegistryShards (named when the table was sharded; there is one map now)
// drives the session table from many goroutines at once, for -race: every Add
// gets its own id and resolves, a Del sticks, Fold sees a consistent table
// throughout, and Close hands back exactly the sessions still live and
// refuses what comes after.
func TestRegistryShards(t *testing.T) {
	r := newRegistry()
	const workers, each = 8, 64
	kept := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range each {
				sess := &session{}
				sid, err := r.Add(sess)
				if err != nil {
					t.Error(err)
					return
				}
				if got := r.Get(sid); got != sess || got.id != sid {
					t.Errorf("Get(%d) = %v", sid, got)
				}
				if k%2 == 0 {
					r.Del(sid)
					if r.Get(sid) != nil {
						t.Errorf("deleted session %d still resolves", sid)
					}
				} else {
					kept[w] = append(kept[w], sid)
				}
				n := 0
				r.Fold(func(*session) { n++ })
				if n > workers*each {
					t.Errorf("fold visited %d sessions", n)
				}
			}
		}()
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, sids := range kept {
		for _, sid := range sids {
			if seen[sid] {
				t.Errorf("id %d handed out twice", sid)
			}
			seen[sid] = true
		}
	}
	// Close races with registrations: each Add either lands before it and is
	// handed back, or is refused.
	var late atomic.Int64
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sess := &session{}
				if _, err := r.Add(sess); err != nil {
					return
				}
				late.Add(1)
			}
		}()
	}
	live := r.Close()
	wg.Wait()
	if want := len(seen) + int(late.Load()); len(live) != want {
		t.Errorf("close returned %d live sessions, want %d", len(live), want)
	}
	live = slices.DeleteFunc(live, func(s *session) bool { return !seen[s.id] })
	if len(live) != len(seen) {
		t.Errorf("close returned %d of the %d sessions kept", len(live), len(seen))
	}
	if r.Get(live[0].id) != nil {
		t.Error("Get resolved a session after Close")
	}
	if _, err := r.Add(&session{}); err == nil {
		t.Error("Add succeeded after Close")
	}
	r.Fold(func(*session) { t.Error("fold visited a session after Close") })
}

// TestTokenBucket unit-tests reservation math.
func TestTokenBucket(t *testing.T) {
	now := time.Unix(0, 0)
	b := newTokenBucket(100, 10, now)
	if w := b.Reserve(10, now); w != 0 {
		t.Errorf("burst reservation owes %v", w)
	}
	// Bucket empty: 50 more events at 100/s owe 500ms.
	if w := b.Reserve(50, now); w < 400*time.Millisecond || w > 600*time.Millisecond {
		t.Errorf("debt reservation owes %v, want ~500ms", w)
	}
	// A second later the refill has cleared the debt and topped out at the
	// burst (10 tokens): 20 more events owe 10 tokens = 100ms.
	if w := b.Reserve(20, now.Add(time.Second)); w != 100*time.Millisecond {
		t.Errorf("post-refill reservation owes %v, want 100ms", w)
	}
	l := newTenantLimiter(0, 0)
	if w := l.Reserve("x", 1000, now); w != 0 {
		t.Errorf("disabled limiter owes %v", w)
	}
}

// TestStalledReaderCannotWedgeClose: connection B subscribes to A's session,
// then sends synchronous verbs and never reads a reply. Once B's socket
// buffers are full, B's read loop blocks writing a reply while it holds B's
// write lock, which A's session pump needs to deliver each verdict to B — and
// A's CloseSession waits for that pump. The write deadline ends the wait: B's
// stalled write times out, B is marked gone (unsubscribed), and A's
// CloseSession returns the verdicts.
func TestStalledReaderCannotWedgeClose(t *testing.T) {
	s := newTestServer(t, Config{})
	s.writeTimeout = time.Second
	ts, evs := dist.RunningExample(), exampleEvents(t)
	register := &dist.RPCMsg{Kind: dist.RPCRegister, Tenant: "acme", Formula: dist.RunningExampleProperty,
		Init: ts.InitialState(), Props: ts.Props}
	a, _ := dialRaw(t, s.Addr(), dist.RPCVersion)
	sid := a.call(register, dist.RPCRegistered).SID

	b, _ := dialRaw(t, s.Addr(), dist.RPCVersion)
	b.call(&dist.RPCMsg{Kind: dist.RPCAttach, SID: sid}, dist.RPCRegistered) // pins B to tenant acme
	b.call(&dist.RPCMsg{Kind: dist.RPCSubscribe, SID: sid}, dist.RPCAcked)
	b.c.(*net.TCPConn).SetReadBuffer(4 << 10)
	// A Register under another tenant is refused with an Error quoting the
	// tenant: 64 KiB a reply fills the buffers in a few dozen frames.
	flood := *register
	flood.Tenant = strings.Repeat("b", 64<<10)
	frame, err := dist.AppendRPC(nil, &flood)
	if err != nil {
		t.Fatal(err)
	}
	var sent atomic.Int64
	go func() {
		for {
			if _, err := b.c.Write(frame); err != nil {
				return // the server gave up on B, or the test's cleanup closed it
			}
			sent.Add(1)
		}
	}()
	// B is stalled once its frames stop leaving: the server no longer reads
	// them because its read loop is stuck in a write.
	for last, still := int64(-1), 0; still < 4; time.Sleep(50 * time.Millisecond) {
		if n := sent.Load(); n == last {
			still++
		} else {
			last, still = n, 0
		}
	}

	a.ingest(sid, evs, len(evs))
	a.send(&dist.RPCMsg{Kind: dist.RPCClose, SID: sid})
	closed := a.recv()
	if closed.Kind != dist.RPCClosed {
		t.Fatalf("close answered with %s (%s)", closed.Kind, closed.Err)
	}
	if got, want := codeString(closed.Verdicts), expectedCodes(t, dist.RunningExampleProperty); got != want {
		t.Errorf("verdicts {%s}, want {%s}", got, want)
	}
}
