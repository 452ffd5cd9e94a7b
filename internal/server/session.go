package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"decentmon/internal/core"
	"decentmon/internal/dist"
	"decentmon/internal/vclock"
	"decentmon/internal/wire"
)

// session is one tenant's monitoring session: a core.Session plus the
// server-side state around it — live-stamping clock assignment, verdict
// fan-out to subscribers, and the bookkeeping the metrics endpoint reads.
type session struct {
	id     uint64
	tenant string
	key    string // canonical property key (cache key)
	n      int
	cs     *core.Session

	// formula, init and props are the registration inputs, kept verbatim so
	// a durable checkpoint can re-register the session after a restart.
	formula string
	init    dist.GlobalState
	props   *dist.PropMap
	// epoch counts daemon restarts this session has survived (0 for a
	// session registered by this daemon instance).
	epoch uint64

	// lastIngest is the wall clock (unix nanos) of the most recent event
	// accepted from a connection, the reference point for verdict latency;
	// zero while a recovered session is still replaying its log.
	lastIngest atomic.Int64
	// events ingested into this session.
	events atomic.Int64

	// inMu is the session's input lock: everything that changes what the
	// engine has absorbed — a window of an Ingest, an Emit from stamping
	// through feeding, an End — happens under it, together with the record of
	// it in the input log, so the log is the engine's inputs in the engine's
	// order and a checkpoint taken under it agrees with both. One feeder never
	// contends; two connections feeding one session take turns by the window.
	// stamper and tokens (in-flight message tokens by id) belong to it too.
	inMu    sync.Mutex
	stamper *dist.Stamper
	tokens  map[int]dist.MsgToken
	// log is the session's durable side, nil without a state directory
	// (checkpoint.go); sinceSync counts the events logged since the last
	// hand-off to the disk, and ckpt is the semaphore of one that whoever is
	// writing the session's files holds.
	log       *journal
	sinceSync atomic.Int64
	ckpt      chan struct{}

	// subMu guards subscribers and the fields the verdict pump writes.
	subMu   sync.Mutex
	subs    []*subscriber
	lastCut vclock.VC
	doomed  error

	// pumpDone closes when the verdict pump drains (after core Close).
	pumpDone chan struct{}

	closeOnce sync.Once
	result    *core.RunResult
	closeErr  error
}

// feedScratch is what one feeder — a connection's read loop — reuses from
// frame to frame: the decoded run of the frame in hand, where each of its
// records ends in the frame's bytes and, while a window of it is being fed,
// the engine's grouping of that window.
type feedScratch struct {
	run  []*dist.Event
	ends []int
	core core.FeedScratch
}

// subscriber is one connection's verdict feed. deliver must not block the
// pump: writes go through the connection's write lock with the connection
// already gone treated as an unsubscribe.
type subscriber struct {
	deliver func(ev core.VerdictEvent, sid uint64)
	gone    func() bool
}

func newSession(ctx context.Context, tenant, key, formula string, cfg core.SessionConfig, mx *metrics) (*session, error) {
	cs, err := core.NewSession(ctx, cfg)
	if err != nil {
		return nil, err
	}
	s := &session{
		tenant:   tenant,
		key:      key,
		formula:  formula,
		init:     append(dist.GlobalState(nil), cfg.Init...),
		props:    cfg.Props,
		n:        cfg.N,
		cs:       cs,
		stamper:  dist.NewStamper(cfg.N),
		tokens:   map[int]dist.MsgToken{},
		ckpt:     make(chan struct{}, 1),
		pumpDone: make(chan struct{}),
	}
	s.lastIngest.Store(time.Now().UnixNano())
	go s.pump(mx)
	return s, nil
}

// restoreSession rebuilds a session from a decoded checkpoint: recompile
// the property through the shared cache, restore the engine from the
// embedded snapshot, and resume the stamper and token ledger. The epoch is
// bumped — the Registered reply to an Attach tells the tenant how many
// restarts the session has survived. lastIngest stays zero: the caller replays
// the session's log next, and sets it when the session goes live.
func restoreSession(ctx context.Context, ck *checkpointState, cache *AutomatonCache, maxLag int, mx *metrics) (*session, error) {
	key, f, err := CanonicalKey(ck.formula, ck.props)
	if err != nil {
		return nil, err
	}
	mon, _, err := cache.Get(key, f, ck.props)
	if err != nil {
		return nil, err
	}
	cs, err := core.RestoreSession(ctx, core.SessionConfig{
		N:         len(ck.init),
		Automaton: mon,
		Props:     ck.props,
		Init:      ck.init,
		MaxLag:    maxLag,
	}, ck.engine)
	if err != nil {
		return nil, err
	}
	stamper, err := dist.RestoreStamper(len(ck.init), ck.stamper)
	if err != nil {
		cs.Close()
		return nil, err
	}
	s := &session{
		id:       ck.sid,
		tenant:   ck.tenant,
		key:      key,
		formula:  ck.formula,
		init:     ck.init,
		props:    ck.props,
		epoch:    ck.epoch + 1,
		n:        len(ck.init),
		cs:       cs,
		stamper:  stamper,
		tokens:   ck.tokens,
		ckpt:     make(chan struct{}, 1),
		pumpDone: make(chan struct{}),
	}
	s.events.Store(ck.events)
	go s.pump(mx)
	return s, nil
}

// snapshot captures the session as one base blob naming log generation gen.
// The caller holds inMu, which keeps the stamper, the token ledger, the engine
// and the log mutually consistent: every input is absorbed and logged under
// the same lock, so the blob is the engine after exactly the inputs logged so
// far. The timing is the engine's, with the outer container's encoding added
// to Encode.
func (s *session) snapshot(ctx context.Context, gen uint64) ([]byte, core.SnapshotTiming, error) {
	engine, tm, err := s.cs.SnapshotTimed(ctx)
	if err != nil {
		return nil, tm, err
	}
	start := time.Now()
	meta := appendCheckpointMeta(nil, s, s.epoch)
	stamper := dist.AppendStamperState(nil, s.stamper.State())
	tokens := appendCheckpointTokens(nil, s.tokens)
	// Sized to fit: the engine blob dwarfs the rest, and growing the
	// container would copy it a second time. 64 covers the header, the five
	// record frames and the end record.
	b := dist.NewSnapshotBuilderSize(len(meta) + len(stamper) + len(tokens) + len(engine) + 64)
	b.Record(ckTagMeta, meta)
	b.Record(ckTagStamper, stamper)
	b.Record(ckTagTokens, tokens)
	b.Record(ckTagEngine, engine)
	b.Record(ckTagLog, wire.AppendUvarint(nil, gen))
	blob := b.Finish()
	tm.Encode += time.Since(start)
	return blob, tm, nil
}

// pump forwards verdict detections to subscribers and feeds the latency
// histogram. Range-over-channel: core.Session closes Verdicts on Close, so
// the pump drains and exits with no extra stop plumbing.
func (s *session) pump(mx *metrics) {
	defer close(s.pumpDone)
	for ev := range s.cs.Verdicts() {
		// A verdict the replay of a recovered session's log detects again is
		// neither streamed to anyone nor late by any feeder's clock.
		if last := s.lastIngest.Load(); last != 0 {
			mx.verdictsTotal.Add(1)
			mx.observeLatency(time.Duration(time.Now().UnixNano() - last))
		}
		s.subMu.Lock()
		if len(ev.Cut) > 0 {
			s.lastCut = vclock.VC(ev.Cut).Clone()
		}
		subs := s.subs
		s.subMu.Unlock()
		for _, sub := range subs {
			if !sub.gone() {
				sub.deliver(ev, s.id)
			}
		}
	}
}

// subscribe attaches a verdict feed.
func (s *session) subscribe(sub *subscriber) {
	s.subMu.Lock()
	s.subs = append(s.subs, sub)
	s.subMu.Unlock()
}

// LastCut returns the consistent cut of the most recent verdict detection.
// The returned clock aliases session storage (clockalias borrow contract):
// callers must Clone before retaining or mutating it.
func (s *session) LastCut() vclock.VC {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	return s.lastCut
}

// doom marks the session failed; the error is reported on close and to any
// later ingest.
func (s *session) doom(err error) {
	s.subMu.Lock()
	if s.doomed == nil {
		s.doomed = err
	}
	s.subMu.Unlock()
}

func (s *session) doomedErr() error {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	return s.doomed
}

// ingest feeds one window of stamped events through core.Session.FeedRun: one
// pass of the admission gate and one hand-off per process the window has
// events of, under the ordering FeedRun states. raw is the window as the bytes
// it arrived in, which is what a durable session logs. A refused window feeds
// nothing; any failure dooms the session, with part of the window possibly
// fed.
func (s *session) ingest(fs *feedScratch, window []*dist.Event, raw []byte) error {
	s.inMu.Lock()
	defer s.inMu.Unlock()
	return s.feed(fs, window, dist.LogRun, raw)
}

// feed is ingest under a lock the caller already holds: feed the window, then
// log it as one record of the given kind.
func (s *session) feed(fs *feedScratch, window []*dist.Event, kind dist.InputLogKind, raw []byte) error {
	if err := s.doomedErr(); err != nil {
		return fmt.Errorf("server: session %d failed earlier: %w", s.id, err)
	}
	if err := s.cs.FeedRun(&fs.core, window); err != nil {
		s.doom(err)
		return err
	}
	s.events.Add(int64(len(window)))
	s.logged(kind, raw, len(window))
	return nil
}

// emit live-stamps one event and feeds it as a window of one. For sends it
// returns the message id the matching receive must present; receives look
// their token up by that id. inMu is held from stamping through feeding and
// logging, so neither a checkpoint nor the log ever has a stamper that has
// clocked an event the engine has not absorbed.
func (s *session) emit(fs *feedScratch, kind dist.EventType, proc, peer, msgID int, state dist.LocalState) (int, error) {
	s.inMu.Lock()
	defer s.inMu.Unlock()
	var (
		e   *dist.Event
		id  int
		err error
	)
	now := time.Now().UnixNano()
	at := float64(now) / 1e9
	switch kind {
	case dist.Internal:
		e, err = s.stamper.Internal(proc, state, at)
	case dist.Send:
		var tok dist.MsgToken
		e, tok, err = s.stamper.Send(proc, peer, state, at)
		if err == nil {
			s.tokens[tok.ID] = tok
			id = tok.ID
		}
	case dist.Recv:
		tok, ok := s.tokens[msgID]
		if !ok {
			return 0, fmt.Errorf("server: session %d: receive names unknown message %d", s.id, msgID)
		}
		if tok.To != proc {
			return 0, fmt.Errorf("server: session %d: message %d is addressed to process %d, not %d", s.id, msgID, tok.To, proc)
		}
		delete(s.tokens, msgID)
		e, err = s.stamper.Recv(proc, tok, state, at)
		id = msgID
	default:
		err = fmt.Errorf("server: session %d: unknown event kind %d", s.id, int(kind))
	}
	if err != nil {
		return 0, err
	}
	var rec []byte
	if s.log != nil {
		if rec, err = dist.AppendEventRecord(nil, e); err != nil {
			return 0, err
		}
	}
	s.lastIngest.Store(now)
	return id, s.feed(fs, []*dist.Event{e}, dist.LogEmitted, rec)
}

// end marks one process terminated.
func (s *session) end(p int) error {
	s.inMu.Lock()
	defer s.inMu.Unlock()
	if err := s.cs.End(p); err != nil {
		return err
	}
	s.logged(dist.LogEnd, wire.AppendInts(nil, p), 0)
	return nil
}

// close drains and finalizes the session, idempotently.
func (s *session) close() (*core.RunResult, error) {
	s.closeOnce.Do(func() {
		s.result, s.closeErr = s.cs.Close()
		<-s.pumpDone
		if err := s.doomedErr(); err != nil && s.closeErr == nil {
			s.closeErr = err
		}
	})
	return s.result, s.closeErr
}
