package decentmon

import (
	"context"
	"fmt"
	"sync"
	"time"

	"decentmon/internal/central"
	"decentmon/internal/core"
	"decentmon/internal/dist"
)

// Session is an online monitoring run: the paper's monitors attached to a
// *live* execution rather than a recorded one. A session is created for a
// compiled property and n processes; each live process drives its own
// Process handle (Internal/Send/Recv — sequence numbers, vector clocks and
// message ids are stamped internally), or a replay feeds pre-stamped events
// through Feed. Verdicts arrive incrementally on Verdicts as the monitors
// detect them, and Close runs finalization and returns the terminal
// RunResult.
//
// Two engines back a session:
//
//   - the default decentralized engine — one monitor per process over a
//     monitor network, exactly the Run/RunStream machinery, with
//     feeder-side backpressure (WithMaxLag) bounding retained knowledge;
//   - the Bounded engine — the O(n)-memory single-path evaluator behind
//     RunBounded and dlmon -bounded.
//
// Cancelling the context passed via WithContext makes Feed, the handle
// methods and Close return promptly with the context's error.
type Session struct {
	spec    *Spec
	n       int
	stamper *dist.Stamper
	start   time.Time

	// val, when WithValidation is set, checks every fed event against the
	// session's causal contract before it reaches the engine.
	val   *dist.Validator
	valMu sync.Mutex

	// Exactly one engine is non-nil.
	core *core.Session
	path *central.PathMonitor

	// Bounded-engine state (the path evaluator is not concurrency-safe and
	// has no goroutines of its own, so the session serializes access).
	ctx        context.Context
	cancel     context.CancelFunc
	pathMu     sync.Mutex
	pathCh     chan VerdictEvent
	pathConcl  bool
	pathClosed bool
	pathResult *PathResult

	verdicts <-chan VerdictEvent

	closeMu  sync.Mutex
	closed   bool
	result   *RunResult
	closeErr error
}

// NewSession starts an online monitoring session for spec over n processes.
// The zero-valued initial global state is assumed unless WithInitialState
// says otherwise. See Session for the lifecycle.
func NewSession(spec *Spec, n int, opts ...Option) (*Session, error) {
	o := buildOptions(opts)
	return newSession(spec, n, o)
}

// engineConfig checks what NewSession and RestoreSession are both given — the
// spec, the process count, the options a live session understands — and
// assembles the engine's configuration from them.
func engineConfig(spec *Spec, n int, o options) (core.SessionConfig, error) {
	var none core.SessionConfig
	if spec == nil || spec.mon == nil {
		return none, fmt.Errorf("decentmon: nil spec")
	}
	if n < 1 {
		return none, fmt.Errorf("decentmon: session needs at least one process")
	}
	for i, owner := range spec.Props.Owner {
		if owner >= n {
			return none, fmt.Errorf("decentmon: proposition %q owned by process %d, session has %d", spec.Props.Names[i], owner, n)
		}
	}
	init := o.init
	if init == nil {
		init = make(GlobalState, n)
	}
	if len(init) != n {
		return none, fmt.Errorf("decentmon: initial state has %d entries, session has %d processes", len(init), n)
	}
	if o.cfg.Pace != 0 {
		return none, fmt.Errorf("decentmon: sessions are live, not replays; WithPace applies to Run and RunStream")
	}
	return core.SessionConfig{
		N:            n,
		Automaton:    spec.mon,
		Props:        spec.Props,
		Init:         init,
		Mode:         o.cfg.Mode,
		SkipFinalize: o.cfg.SkipFinalize,
		Network:      o.cfg.Network,
		MaxBoxNodes:  o.cfg.MaxBoxNodes,
		ExactBoxes:   o.cfg.ExactBoxes,
		MaxLag:       o.cfg.MaxLag,
	}, nil
}

func newSession(spec *Spec, n int, o options) (*Session, error) {
	cfg, err := engineConfig(spec, n, o)
	if err != nil {
		return nil, err
	}
	if o.ctx == nil {
		o.ctx = context.Background()
	}
	s := &Session{spec: spec, n: n, stamper: dist.NewStamper(n), start: time.Now()}
	if o.validate {
		s.val = dist.NewSessionValidator(n)
	}
	if o.bounded {
		if err := o.checkBounded("a Bounded session"); err != nil {
			return nil, err
		}
		s.ctx, s.cancel = context.WithCancel(o.ctx)
		s.path = central.NewPath(spec.mon, spec.Props, n, cfg.Init)
		// At most one conclusive event is ever emitted; the buffer means
		// the emitter never blocks on an absent subscriber.
		s.pathCh = make(chan VerdictEvent, 1)
		s.verdicts = s.pathCh
		return s, nil
	}
	if s.core, err = core.NewSession(o.ctx, cfg); err != nil {
		return nil, err
	}
	s.verdicts = s.core.Verdicts()
	return s, nil
}

// N returns the number of monitored processes.
func (s *Session) N() int { return s.n }

// Verdicts returns the subscription channel: one VerdictEvent per newly
// detected (monitor, automaton state) pair — conclusive detections arrive
// the moment a monitor proves them, inconclusive states during
// finalization. The channel is buffered so monitors never block on a slow
// subscriber, and it is closed by Close after the terminal result is
// complete. A Bounded session emits at most one event: the first conclusive
// verdict along the path (its Monitor field is the process whose event
// triggered the detection).
func (s *Session) Verdicts() <-chan VerdictEvent { return s.verdicts }

// Process returns the handle live process i drives. It panics on an
// out-of-range index — handles are acquired at wiring time, so a bad index
// is a programming error, not a runtime condition.
func (s *Session) Process(i int) *Process {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("decentmon: session has no process %d (n = %d)", i, s.n))
	}
	return &Process{s: s, p: i}
}

// now is the session-relative timestamp stamped on live events.
func (s *Session) now() float64 { return time.Since(s.start).Seconds() }

// Feed delivers one pre-stamped event (a replay of recorded traces, or an
// application doing its own clock bookkeeping). Do not mix Feed with the
// Process handles: the internal stamper does not see Feed's clocks. Events
// of one process must arrive in sequence-number order; with the Bounded
// engine the feed as a whole must also be causally ordered (handles
// guarantee this by construction; timestamp-ordered replays satisfy it).
// Feed blocks under backpressure and returns promptly on cancellation.
// With WithValidation, events violating the session's causal contract are
// rejected here, before they reach the engine. The session keeps the pointer
// — every monitor that learns of the event reads this very struct — so the
// event and its clock must not be modified once fed; feeding one event to
// several sessions is fine, none of them writes it.
func (s *Session) Feed(e *Event) error {
	if err := s.validate(e); err != nil {
		return err
	}
	if s.core != nil {
		return s.core.Feed(e)
	}
	return s.pathFeed(e)
}

// validate applies the WithValidation check (no-op otherwise). Serialized:
// concurrent handles may feed at once, and the validator's state is shared.
func (s *Session) validate(e *Event) error {
	if s.val == nil {
		return nil
	}
	s.valMu.Lock()
	defer s.valMu.Unlock()
	return s.val.Check(e)
}

// checkToken pre-validates a Recv token under WithValidation (no-op
// otherwise). Run before stamping so a rejected token leaves both the
// stamper and the validator untouched. (Concurrently presenting the *same*
// token to two handles can still pass both pre-checks and be caught only
// at Feed time; serial misuse — the supported contract — is fully
// pre-checked.)
func (s *Session) checkToken(p int, tok MsgToken) error {
	if s.val == nil {
		return nil
	}
	s.valMu.Lock()
	defer s.valMu.Unlock()
	return s.val.CheckToken(p, tok)
}

func (s *Session) pathFeed(e *Event) error {
	if err := s.ctx.Err(); err != nil {
		return err
	}
	if e == nil {
		return fmt.Errorf("decentmon: session fed a nil event")
	}
	s.pathMu.Lock()
	defer s.pathMu.Unlock()
	if s.pathClosed {
		return fmt.Errorf("decentmon: session closed")
	}
	if err := s.path.Feed(e); err != nil {
		return err
	}
	if v := s.path.Verdict(); !s.pathConcl && v != Unknown {
		s.pathConcl = true
		//declint:ignore blockingsend pathCh has capacity 1 and pathConcl lets exactly one event through, so this send cannot block
		s.pathCh <- VerdictEvent{
			Monitor:    e.Proc,
			Verdict:    v,
			State:      s.path.State(),
			Cut:        s.path.Cut(),
			Conclusive: true,
		}
	}
	return nil
}

// End marks process p as terminated: no further events of p will be fed.
// Idempotent; Close ends every process still open.
func (s *Session) End(p int) error {
	if p < 0 || p >= s.n {
		return fmt.Errorf("decentmon: ending nonexistent process %d", p)
	}
	if s.core != nil {
		return s.core.End(p)
	}
	return s.ctx.Err() // the path evaluator needs no termination marker
}

// Close ends every process still open, waits for the monitors to finalize,
// closes the verdict channel and returns the terminal RunResult (for a
// Bounded session: the single path verdict). Idempotent; returns the
// context's error promptly if the session was cancelled.
func (s *Session) Close() (*RunResult, error) {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return s.result, s.closeErr
	}
	s.closed = true
	if s.core != nil {
		s.result, s.closeErr = s.core.Close()
		return s.result, s.closeErr
	}
	s.pathMu.Lock()
	s.pathClosed = true
	ctxErr := s.ctx.Err()
	pr := s.path.Finish()
	s.pathResult = pr
	close(s.pathCh)
	s.pathMu.Unlock()
	s.cancel()
	if ctxErr != nil {
		s.closeErr = ctxErr
		return nil, ctxErr
	}
	wall := time.Since(s.start)
	s.result = &RunResult{
		Verdicts:    map[Verdict]bool{pr.Verdict: true},
		Wall:        wall,
		ProgramWall: wall,
	}
	return s.result, nil
}

// Process is the handle one live program process drives: every method
// stamps the event (sequence number, vector clock, message id, monotone
// session-relative timestamp) and feeds it to the process's monitor.
// Methods of one handle must be called from a single goroutine at a time
// (the process's own); different handles are safe concurrently.
type Process struct {
	s *Session
	p int
}

// Index returns the process index this handle drives.
func (p *Process) Index() int { return p.p }

// Internal records a computation event: the process's valuation becomes
// state (bit k is the truth value of its k-th owned proposition).
func (p *Process) Internal(state LocalState) error {
	e, err := p.s.stamper.Internal(p.p, state, p.s.now())
	if err != nil {
		return err
	}
	return p.s.Feed(e)
}

// Send records the emission of a message to process to, the process's
// valuation becoming state. The returned token must travel to the receiver
// (alongside or inside the application's own message — it marshals to
// JSON) and be presented to its Recv, so the causal dependency is stamped.
func (p *Process) Send(to int, state LocalState) (MsgToken, error) {
	e, tok, err := p.s.stamper.Send(p.p, to, state, p.s.now())
	if err != nil {
		return MsgToken{}, err
	}
	if err := p.s.Feed(e); err != nil {
		return MsgToken{}, err
	}
	return tok, nil
}

// Recv records the receipt of the message identified by tok, the process's
// valuation becoming state. Call it only after the sender's Send returned:
// the token is the proof the send event exists. With WithValidation the
// token is checked *before* stamping: the stamper merges a token's clock
// into the process's own irreversibly, so a forged, replayed or
// foreign-session token must be rejected while the stamper is untouched —
// the handle stays usable after the rejection.
func (p *Process) Recv(tok MsgToken, state LocalState) error {
	if err := p.s.checkToken(p.p, tok); err != nil {
		return err
	}
	e, err := p.s.stamper.Recv(p.p, tok, state, p.s.now())
	if err != nil {
		return err
	}
	return p.s.Feed(e)
}

// End marks this process as terminated.
func (p *Process) End() error { return p.s.End(p.p) }
