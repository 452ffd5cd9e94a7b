package decentmon

import (
	"fmt"
	"sync"
	"time"

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
// The engine is the decentralized one — one monitor per process over a
// monitor network, exactly the Run/RunStream machinery, with feeder-side
// backpressure (WithMaxLag) bounding retained knowledge. The O(n)-memory
// single-path evaluator is not a session: it is RunBounded.
//
// Cancelling the context passed via WithContext makes Feed, the handle
// methods and Close return promptly with the context's error.
type Session struct {
	n       int
	stamper *dist.Stamper
	start   time.Time

	// val, when WithValidation is set, checks every fed event against the
	// session's causal contract before it reaches the engine.
	val   *dist.Validator
	valMu sync.Mutex

	core *core.Session
}

// NewSession starts an online monitoring session for spec over n processes.
// The zero-valued initial global state is assumed unless WithInitialState
// says otherwise. See Session for the lifecycle.
func NewSession(spec *Spec, n int, opts ...Option) (*Session, error) {
	o := buildOptions(opts)
	cfg, err := engineConfig(spec, n, o)
	if err != nil {
		return nil, err
	}
	cs, err := core.NewSession(o.ctx, cfg)
	if err != nil {
		return nil, err
	}
	s := &Session{n: n, stamper: dist.NewStamper(n), start: time.Now(), core: cs}
	if o.validate {
		s.val = dist.NewSessionValidator(n)
	}
	return s, nil
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
		SkipFinalize: o.cfg.SkipFinalize,
		Network:      o.cfg.Network,
		MaxBoxNodes:  o.cfg.MaxBoxNodes,
		ExactBoxes:   o.cfg.ExactBoxes,
		MaxLag:       o.cfg.MaxLag,
	}, nil
}

// N returns the number of monitored processes.
func (s *Session) N() int { return s.n }

// Verdicts returns the subscription channel: one VerdictEvent per newly
// detected (monitor, automaton state) pair — conclusive detections arrive
// the moment a monitor proves them, inconclusive states during
// finalization. The channel is buffered so monitors never block on a slow
// subscriber, and it is closed by Close after the terminal result is
// complete.
func (s *Session) Verdicts() <-chan VerdictEvent { return s.core.Verdicts() }

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
// of one process must arrive in sequence-number order. Feed blocks under
// backpressure and returns promptly on cancellation.
// With WithValidation, events violating the session's causal contract are
// rejected here, before they reach the engine. The session keeps the pointer
// — every monitor that learns of the event reads this very struct — so the
// event and its clock must not be modified once fed; feeding one event to
// several sessions is fine, none of them writes it.
func (s *Session) Feed(e *Event) error {
	if err := s.validate(e); err != nil {
		return err
	}
	return s.core.Feed(e)
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

// End marks process p as terminated: no further events of p will be fed.
// Idempotent; Close ends every process still open.
func (s *Session) End(p int) error { return s.core.End(p) }

// Close ends every process still open, waits for the monitors to finalize,
// closes the verdict channel and returns the terminal RunResult. Idempotent;
// returns the context's error promptly if the session was cancelled.
func (s *Session) Close() (*RunResult, error) { return s.core.Close() }

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
