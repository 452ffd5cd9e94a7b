// Package server implements dlmond, the multi-tenant monitoring-as-a-service
// session daemon: a TCP front end that hosts many concurrent decentralized
// monitoring sessions inside one process.
//
// The wire protocol is the length-prefixed binary RPC defined in
// internal/dist (rpc.go), framed exactly like ".dmtb" trace records. A
// tenant registers an LTL property (compiled through a shared automaton
// cache), ingests pre-stamped event records or live-stamps events through
// the server's vector clocks, subscribes to incremental verdicts, and
// closes the session to collect the terminal verdict set.
//
// Internally the session table is a map behind a lock, off the per-event
// path (connections cache the sessions they resolve), and a per-tenant token
// bucket paces ingestion so one hot tenant cannot starve the rest (the pause
// is served on the hot tenant's own connection; TCP flow control propagates
// it to that feeder only).
// Observability is a plain net/http endpoint: /healthz and Prometheus-text
// /metrics.
//
// With Config.StateDir set, sessions are durable: each one is a base blob plus
// an append-only log of the inputs it has absorbed since, synced on a
// configurable event cadence (see checkpoint.go for the formats, the one lock
// and one semaphore that order the writes, and what a crash may cost),
// recovered on the next start by replaying the log, and re-adopted by its
// tenant with the Attach verb — the reply's fed counts tell the feeder exactly
// where to resume the trace.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"decentmon/internal/core"
	"decentmon/internal/dist"
)

// Config parameterizes a Server.
type Config struct {
	// Addr is the RPC listen address (host:port). Empty selects
	// 127.0.0.1:0 (ephemeral; read the bound address with Addr).
	Addr string
	// MetricsAddr is the HTTP observability listen address. Empty selects
	// 127.0.0.1:0; "off" disables the endpoint.
	MetricsAddr string
	// Rate is the per-tenant admission rate in events/second; <= 0
	// disables admission control.
	Rate float64
	// Burst is the token-bucket burst size (events); 0 selects Rate.
	Burst float64
	// MaxLag is forwarded to each session's core.SessionConfig (per-session
	// backpressure); 0 selects the core default.
	MaxLag int
	// StateDir enables durable sessions: each session is kept in
	// <StateDir> as a base blob (session-<id>.dmsn) plus an input log
	// (session-<id>.<gen>.dmlg) and recovered on the next start. Empty
	// disables durability.
	StateDir string
	// CheckpointEvery is how far, in ingested events, the disk may trail a
	// session's engine: the events between two syncs of its input log. 0
	// selects 256. Only meaningful with StateDir set.
	CheckpointEvery int
}

// Server is a running dlmond instance.
type Server struct {
	cfg     Config
	ln      net.Listener
	httpLn  net.Listener
	httpSrv *http.Server

	reg     *registry
	cache   *AutomatonCache
	limiter *tenantLimiter
	mx      *metrics
	// compactFloor is the constant of that name; tests of the compaction
	// path lower it instead of feeding 64 KiB.
	compactFloor int
	// writeTimeout and helloTimeout are the constants of those names; the
	// tests of a connection that stops reading and of one that never says
	// hello lower them.
	writeTimeout time.Duration
	helloTimeout time.Duration

	ctx    context.Context
	cancel context.CancelFunc
	stop   chan struct{}
	wg     sync.WaitGroup

	connMu sync.Mutex
	conns  map[*srvConn]struct{}

	shutOnce sync.Once
	shutErr  error
}

// New binds the listeners and starts serving.
func New(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.MetricsAddr == "" {
		cfg.MetricsAddr = "127.0.0.1:0"
	}
	if cfg.Burst <= 0 {
		cfg.Burst = cfg.Rate
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 256
	}
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: state directory: %w", err)
		}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: rpc listener: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		ln:      ln,
		reg:     newRegistry(),
		cache:   NewAutomatonCache(),
		limiter: newTenantLimiter(cfg.Rate, cfg.Burst),
		mx:      &metrics{},
		ctx:     ctx,
		cancel:  cancel,
		stop:    make(chan struct{}),
		conns:   map[*srvConn]struct{}{},

		compactFloor: compactFloor,
		writeTimeout: writeTimeout,
		helloTimeout: helloTimeout,
	}
	if cfg.StateDir != "" {
		if err := s.recoverSessions(); err != nil {
			ln.Close()
			cancel()
			return nil, err
		}
	}
	if cfg.MetricsAddr != "off" {
		httpLn, err := net.Listen("tcp", cfg.MetricsAddr)
		if err != nil {
			ln.Close()
			cancel()
			return nil, fmt.Errorf("server: metrics listener: %w", err)
		}
		s.httpLn = httpLn
		s.httpSrv = &http.Server{Handler: s.mx.httpHandler(s.scrapeExtra)}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.httpSrv.Serve(httpLn)
		}()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr is the bound RPC address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// MetricsAddr is the bound observability address ("" when disabled).
func (s *Server) MetricsAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// Recovered is the number of sessions restored from durable checkpoints at
// startup.
func (s *Server) Recovered() int64 { return s.mx.sessionsRecovered.Load() }

// recoverSessions scans the state directory and re-registers every session
// it holds under its original id with its epoch bumped: the base blob
// restored, then its input log replayed (checkpoint.go). A session whose base
// is corrupt or unrestorable, or whose log holds a record the engine refuses,
// is skipped (counted in dlmond_checkpoint_errors_total) and its files left
// as they are, never a failed startup: one bad file must not take every other
// tenant's durable session down with it.
func (s *Server) recoverSessions() error {
	dir := s.cfg.StateDir
	sweepCheckpointTemps(dir)
	files, err := listCheckpoints(dir)
	if err != nil {
		s.reg.Close()
		return err
	}
	for _, file := range files {
		if err := s.recoverSession(file); err != nil {
			s.mx.checkpointErrors.Add(1)
			fmt.Fprintf(os.Stderr, "dlmond: skipping checkpoint %s: %v\n", file, err)
			continue
		}
		s.mx.sessionsLive.Add(1)
		s.mx.sessionsTotal.Add(1)
		s.mx.sessionsRecovered.Add(1)
	}
	sweepOrphanLogs(dir)
	return nil
}

// recoverSession restores one session from its base blob and input log and
// puts it in the registry.
func (s *Server) recoverSession(file string) error {
	blob, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	ck, err := decodeCheckpoint(blob)
	if err != nil {
		return err
	}
	sess, err := restoreSession(s.ctx, ck, s.cache, s.cfg.MaxLag, s.mx)
	if err != nil {
		return err
	}
	j, err := s.recoverLog(sess, ck.logGen, len(blob))
	if err != nil {
		sess.close()
		return err
	}
	sess.log = j
	sess.lastIngest.Store(time.Now().UnixNano())
	if err := s.reg.AddWithID(ck.sid, sess); err != nil {
		j.closeFile()
		sess.close()
		return err
	}
	return nil
}

// feedWindow is the most events of a decoded run that reach a session in one
// pass (one core FeedRun: a hand-off per process among them). A frame may carry many
// more: a larger window does buy throughput, by loosening the admission
// gate's view of the monitors' backlog, and pays for it in resident memory —
// PERFORMANCE.md ("Batched ingest") has the table that picked one slab.
const feedWindow = dist.EventSlab

// untilCheckpoint is how many more events the session takes before its
// cadence is due. A feed window ends there at the latest, so each sync of the
// input log holds exactly the fed counts it would with one event to a frame.
func (s *Server) untilCheckpoint(sess *session) int {
	if sess.log == nil {
		return feedWindow
	}
	return max(1, s.cfg.CheckpointEvery-int(sess.sinceSync.Load()))
}

// scrapeExtra walks the registry at scrape time for the gauges that cannot
// be plain counters.
func (s *Server) scrapeExtra() snapshotExtra {
	var x snapshotExtra
	s.reg.Fold(func(sess *session) {
		// ~56 bytes of Event struct + 8 bytes per vector clock entry, per
		// retained event — an estimate, not an accounting.
		x.knowledgeBytes += sess.cs.RetainedEvents() * int64(56+8*sess.n)
	})
	x.cacheHits, x.cacheMisses = s.cache.Stats()
	x.cacheEntries = s.cache.Len()
	return x
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.stop:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		sc := &srvConn{srv: s, c: c, bw: bufio.NewWriter(c)}
		s.connMu.Lock()
		s.conns[sc] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sc.serve()
			s.connMu.Lock()
			delete(s.conns, sc)
			s.connMu.Unlock()
		}()
	}
}

// Shutdown stops accepting, closes every connection, finalizes every live
// session, and releases the listeners. In durable mode every live session's
// pending log records are synced first, so a clean shutdown loses nothing: the
// next start recovers each session exactly where its feed stopped. The stop
// channel closes only after those syncs — until then a wait on a session's
// disk is a real wait, the one place the daemon chooses the disk over a
// prompt exit. Idempotent.
func (s *Server) Shutdown() error {
	s.shutOnce.Do(func() {
		s.ln.Close()
		if s.httpSrv != nil {
			s.httpSrv.Close()
		}
		s.connMu.Lock()
		for sc := range s.conns {
			sc.c.Close()
		}
		s.connMu.Unlock()
		live := s.reg.Close()
		var firstErr error
		for _, sess := range live {
			if sess.log != nil {
				sess.inMu.Lock()
				s.handoff(sess)
				sess.inMu.Unlock()
				s.retire(sess)
			}
			if _, err := sess.close(); err != nil && firstErr == nil {
				firstErr = err
			}
			s.mx.sessionsLive.Add(-1)
		}
		close(s.stop)
		s.cancel()
		s.wg.Wait()
		s.shutErr = firstErr
	})
	return s.shutErr
}

// srvConn is one client connection: a read loop dispatching frames, and a
// mutex-guarded writer shared between replies and asynchronous verdict
// deliveries.
type srvConn struct {
	srv  *Server
	c    net.Conn
	wmu  sync.Mutex
	bw   *bufio.Writer
	gone atomic.Bool

	// tenant is set by the first Register on the connection and pins the
	// admission-control identity.
	tenant string
	// local caches session pointers so the registry round trip happens
	// once per session, not once per frame.
	local map[uint64]*session
	// fs is the read loop's feed scratch.
	fs feedScratch
}

// writeTimeout bounds how long one write may wait for the peer to read. A
// write holds wmu, which every session pump delivering a verdict to this
// connection also needs: without a bound, a client that stops reading would
// stall those pumps, and with them other tenants' CloseSession.
const writeTimeout = 10 * time.Second

// helloTimeout bounds how long a new connection may take to say hello. Until
// it does, it holds a goroutine and a socket for nothing; after the hello is
// answered no read deadline applies, since an idle connection may be a
// subscriber waiting for verdicts.
const helloTimeout = 10 * time.Second

// write frames and flushes one message. Errors, a timed-out write among them,
// mark the connection gone, which unsubscribes it from every session; the read
// loop notices on its next read.
func (sc *srvConn) write(m *dist.RPCMsg) {
	frame, err := dist.AppendRPC(nil, m)
	if err != nil {
		return
	}
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	if sc.gone.Load() {
		return
	}
	sc.c.SetWriteDeadline(time.Now().Add(sc.srv.writeTimeout))
	if _, err := sc.bw.Write(frame); err == nil {
		err = sc.bw.Flush()
		if err == nil {
			return
		}
	}
	sc.gone.Store(true)
	sc.c.Close()
}

func (sc *srvConn) writeErr(sid uint64, err error) {
	sc.srv.mx.errorsTotal.Add(1)
	sc.write(&dist.RPCMsg{Kind: dist.RPCError, SID: sid, Err: err.Error()})
}

func (sc *srvConn) serve() {
	defer sc.c.Close()
	defer sc.gone.Store(true)
	sc.local = map[uint64]*session{}
	br := bufio.NewReader(sc.c)

	// Hello exchange: the client speaks first, in time; reject unknown
	// versions.
	sc.c.SetReadDeadline(time.Now().Add(sc.srv.helloTimeout))
	payload, scratch, err := dist.ReadRPCFrame(br, nil)
	if err != nil {
		return
	}
	hello, err := dist.DecodeRPC(payload)
	if err != nil || hello.Kind != dist.RPCHello {
		sc.writeErr(0, fmt.Errorf("server: connection must open with hello"))
		return
	}
	if hello.Version != dist.RPCVersion {
		sc.writeErr(0, fmt.Errorf("server: protocol version %d not supported (want %d)", hello.Version, dist.RPCVersion))
		return
	}
	sc.write(&dist.RPCMsg{Kind: dist.RPCHello, Version: dist.RPCVersion})
	sc.c.SetReadDeadline(time.Time{})

	for {
		payload, scratch, err = dist.ReadRPCFrame(br, scratch)
		if err != nil {
			return
		}
		m, err := dist.DecodeRPC(payload)
		if err != nil {
			sc.writeErr(0, err)
			return
		}
		if !sc.dispatch(m) {
			return
		}
	}
}

// dispatch handles one frame; false ends the connection.
func (sc *srvConn) dispatch(m *dist.RPCMsg) bool {
	switch m.Kind {
	case dist.RPCRegister:
		sc.handleRegister(m)
	case dist.RPCIngest:
		sess := sc.resolve(m.SID)
		if sess == nil {
			return true
		}
		// The whole frame decodes before any of it is fed or charged: one
		// malformed record and the session sees none of its neighbours.
		run, ends, err := dist.DecodeEventRun(sc.fs.run[:0], sc.fs.ends[:0], m.Raw, sess.n)
		if err == nil {
			sc.throttle(sess.tenant, len(run))
			err = sc.ingest(sess, run, ends, m.Raw)
		}
		clear(run)
		sc.fs.run, sc.fs.ends = run, ends
		if err != nil {
			// Ingest is fire-and-forget; failures arrive asynchronously
			// and doom the session rather than the connection.
			sc.writeErr(m.SID, err)
			return true
		}
	case dist.RPCEmit:
		sess := sc.resolve(m.SID)
		if sess == nil {
			return true
		}
		sc.throttle(sess.tenant, 1)
		id, err := sess.emit(&sc.fs, m.EmitKind, m.Proc, m.Peer, m.MsgID, m.State)
		if err != nil {
			sc.writeErr(m.SID, err)
			return true
		}
		sc.srv.mx.eventsTotal.Add(1)
		if !sc.srv.settle(sess) {
			return false
		}
		sc.write(&dist.RPCMsg{Kind: dist.RPCEmitted, SID: m.SID, MsgID: id})
	case dist.RPCSubscribe:
		sess := sc.resolve(m.SID)
		if sess == nil {
			return true
		}
		sess.subscribe(&subscriber{
			gone: sc.gone.Load,
			deliver: func(ev core.VerdictEvent, sid uint64) {
				sc.write(&dist.RPCMsg{
					Kind: dist.RPCVerdict, SID: sid, Monitor: ev.Monitor,
					Verdict: byte(ev.Verdict), AutState: ev.State,
					Conclusive: ev.Conclusive, Cut: ev.Cut,
				})
			},
		})
		if !sc.srv.settle(sess) {
			return false
		}
		sc.write(&dist.RPCMsg{Kind: dist.RPCAcked, SID: m.SID})
	case dist.RPCEnd:
		sess := sc.resolve(m.SID)
		if sess == nil {
			return true
		}
		if err := sess.end(m.Proc); err != nil {
			sc.writeErr(m.SID, err)
			return true
		}
		if !sc.srv.settle(sess) {
			return false
		}
		sc.write(&dist.RPCMsg{Kind: dist.RPCAcked, SID: m.SID})
	case dist.RPCAttach:
		sess := sc.resolve(m.SID)
		if sess == nil {
			return true
		}
		// Attach pins (or checks) the connection's tenant just as Register
		// does: a session is never adopted across tenants.
		if sc.tenant == "" {
			sc.tenant = sess.tenant
		} else if sc.tenant != sess.tenant {
			sc.writeErr(m.SID, fmt.Errorf("server: connection belongs to tenant %q, not %q", sc.tenant, sess.tenant))
			return true
		}
		if !sc.srv.settle(sess) {
			return false
		}
		sc.write(&dist.RPCMsg{Kind: dist.RPCRegistered, SID: m.SID, CacheHit: true,
			Epoch: sess.epoch, Fed: sess.cs.Fed()})
	case dist.RPCClose:
		sess := sc.resolve(m.SID)
		if sess == nil {
			return true
		}
		// Retire the pipeline before finalizing — a hand-off racing in from
		// another connection is then skipped, not failed — and remove the
		// files only after: nothing writes them once retire has returned.
		if !sc.srv.retire(sess) {
			return false
		}
		res, err := sess.close()
		sc.srv.reg.Del(m.SID)
		delete(sc.local, m.SID)
		if sess.log != nil {
			removeSessionFiles(sc.srv.cfg.StateDir, sess)
		}
		sc.srv.mx.sessionsLive.Add(-1)
		if err != nil {
			sc.writeErr(m.SID, err)
			return true
		}
		var codes []byte
		for _, v := range res.VerdictList() {
			codes = append(codes, byte(v))
		}
		sc.write(&dist.RPCMsg{Kind: dist.RPCClosed, SID: m.SID, Verdicts: codes})
	default:
		sc.writeErr(m.SID, fmt.Errorf("server: unexpected verb %s", m.Kind))
		return false
	}
	return true
}

// ingest hands a decoded run to its session in windows of at most feedWindow
// events, each cut short where the session's cadence falls due, together with
// the window's own bytes of the frame: raw is the run as it arrived and
// ends[i] the offset at which its record i ends.
func (sc *srvConn) ingest(sess *session, run []*dist.Event, ends []int, raw []byte) error {
	lo := 0 // where the next window's bytes begin
	for len(run) > 0 {
		w := min(len(run), feedWindow, sc.srv.untilCheckpoint(sess))
		hi := ends[w-1]
		sess.lastIngest.Store(time.Now().UnixNano())
		if err := sess.ingest(&sc.fs, run[:w], raw[lo:hi]); err != nil {
			return err
		}
		sc.srv.mx.eventsTotal.Add(int64(w))
		run, ends, lo = run[w:], ends[w:], hi
	}
	return nil
}

// resolve maps a session id to its session, answering with an Error frame
// when it is unknown.
func (sc *srvConn) resolve(sid uint64) *session {
	if sess, ok := sc.local[sid]; ok {
		return sess
	}
	sess := sc.srv.reg.Get(sid)
	if sess == nil {
		sc.writeErr(sid, fmt.Errorf("server: no session %d", sid))
		return nil
	}
	sc.local[sid] = sess
	return sess
}

// throttle charges the tenant's token bucket — an Ingest frame's events all
// at once, against one reading of the clock — and serves any owed pause on
// this connection: only the hot tenant's feeder slows down.
func (sc *srvConn) throttle(tenant string, n int) {
	wait := sc.srv.limiter.Reserve(tenant, n, time.Now())
	if wait <= 0 {
		return
	}
	sc.srv.mx.throttleNanos.Add(int64(wait))
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
	case <-sc.srv.stop:
	}
}

func (sc *srvConn) handleRegister(m *dist.RPCMsg) {
	if sc.tenant == "" {
		sc.tenant = m.Tenant
	} else if sc.tenant != m.Tenant {
		sc.writeErr(0, fmt.Errorf("server: connection belongs to tenant %q, not %q", sc.tenant, m.Tenant))
		return
	}
	if len(m.Init) == 0 {
		sc.writeErr(0, fmt.Errorf("server: register names no processes"))
		return
	}
	// Registration costs a burst-sized chunk of the tenant's budget:
	// compiling automata is the most expensive verb we expose.
	sc.throttle(m.Tenant, 8)
	key, f, err := CanonicalKey(m.Formula, m.Props)
	if err != nil {
		sc.writeErr(0, err)
		return
	}
	mon, hit, err := sc.srv.cache.Get(key, f, m.Props)
	if err != nil {
		sc.writeErr(0, err)
		return
	}
	sess, err := newSession(sc.srv.ctx, m.Tenant, key, m.Formula, core.SessionConfig{
		N:         len(m.Init),
		Automaton: mon,
		Props:     m.Props,
		Init:      m.Init,
		MaxLag:    sc.srv.cfg.MaxLag,
	}, sc.srv.mx)
	if err != nil {
		sc.writeErr(0, err)
		return
	}
	if sc.srv.cfg.StateDir != "" {
		sess.log = &journal{srv: sc.srv}
	}
	sid, err := sc.srv.reg.Add(sess)
	if err != nil {
		sess.close()
		sc.writeErr(0, err)
		return
	}
	sc.local[sid] = sess
	sc.srv.mx.sessionsLive.Add(1)
	sc.srv.mx.sessionsTotal.Add(1)
	if sess.log != nil {
		// The generation-0 base goes to disk before the reply, so an idle
		// session survives a restart and no log is ever without its base.
		sess.inMu.Lock()
		sc.srv.checkpoint(sess, 0)
		sess.inMu.Unlock()
		if !sc.srv.settle(sess) {
			return
		}
	}
	sc.write(&dist.RPCMsg{Kind: dist.RPCRegistered, SID: sid, CacheHit: hit})
}
