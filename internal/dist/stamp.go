package dist

import (
	"fmt"
	"sync"
	"sync/atomic"

	"decentmon/internal/vclock"
)

// MsgToken pairs a live Send with its Recv across the application's own
// communication channel: the sender obtains one from Stamper.Send, ships it
// to the receiver alongside (or inside) its message — the struct is plain
// data and JSON-serializable — and the receiver passes it to Stamper.Recv,
// which merges the send's vector clock so the receive event causally
// dominates it, exactly as Definition 2 requires.
type MsgToken struct {
	// From and To are the sender and addressee process indices.
	From int `json:"from"`
	To   int `json:"to"`
	// ID is the globally unique message id pairing the two events.
	ID int `json:"id"`
	// VC is the sender's vector clock at the send event.
	VC []int `json:"vc"`
}

// Stamper assigns sequence numbers, vector clocks, message ids and
// per-process monotone timestamps to the events of a live execution — the
// bookkeeping a recorded trace carries pre-computed, maintained online so
// monitors can be attached to running processes.
//
// Calls for different processes may be concurrent (each live process drives
// its own index); calls for one process are serialized internally, but must
// arrive in the process's real event order for the stamps to mean anything.
type Stamper struct {
	n      int
	msgSeq atomic.Int64
	procs  []stamperProc
}

type stamperProc struct {
	mu    sync.Mutex
	clock vclock.VC
	last  float64
}

// NewStamper creates a stamper for an n-process program.
func NewStamper(n int) *Stamper {
	st := &Stamper{n: n, procs: make([]stamperProc, n)}
	for p := range st.procs {
		st.procs[p].clock = vclock.New(n)
	}
	return st
}

// N returns the number of processes.
func (st *Stamper) N() int { return st.n }

// stamp advances process p's clock (merging from, if any), and builds the
// stamped event at time at (clamped to keep per-process time monotone).
func (st *Stamper) stamp(p int, e *Event, from vclock.VC, at float64) (*Event, error) {
	if p < 0 || p >= st.n {
		return nil, fmt.Errorf("dist: stamping event of nonexistent process %d", p)
	}
	sp := &st.procs[p]
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.clock.Tick(p)
	if from != nil {
		sp.clock.Merge(from)
	}
	if at < sp.last {
		at = sp.last
	}
	sp.last = at
	e.Proc = p
	e.SN = sp.clock[p]
	e.VC = sp.clock.Clone()
	e.Time = at
	return e, nil
}

// Internal stamps a computation event of process p whose valuation becomes
// state, at physical time at (seconds from the execution's start).
func (st *Stamper) Internal(p int, state LocalState, at float64) (*Event, error) {
	return st.stamp(p, &Event{Type: Internal, Peer: -1, State: state}, nil, at)
}

// Send stamps a message emission from p to another process and returns the
// token the receiving process must present to Recv.
func (st *Stamper) Send(p, to int, state LocalState, at float64) (*Event, MsgToken, error) {
	if to < 0 || to >= st.n || to == p {
		return nil, MsgToken{}, fmt.Errorf("dist: process %d sending to invalid process %d", p, to)
	}
	id := int(st.msgSeq.Add(1))
	e, err := st.stamp(p, &Event{Type: Send, Peer: to, MsgID: id, State: state}, nil, at)
	if err != nil {
		return nil, MsgToken{}, err
	}
	return e, MsgToken{From: p, To: to, ID: id, VC: append([]int(nil), e.VC...)}, nil
}

// StamperState is the serializable state of a Stamper: the message-id
// counter plus each process's clock and last timestamp. Clocks are owned by
// the state value (cloned on capture and on restore), so a snapshot buffer
// never aliases a live stamper.
type StamperState struct {
	MsgSeq int64
	Clocks []vclock.VC
	Lasts  []float64
}

// State captures the stamper for a snapshot. The caller must guarantee
// quiescence (no concurrent stamping) — the per-process locks are taken one
// at a time, so a mid-capture stamp would land in neither a consistent
// "before" nor "after".
func (st *Stamper) State() StamperState {
	s := StamperState{
		MsgSeq: st.msgSeq.Load(),
		Clocks: make([]vclock.VC, st.n),
		Lasts:  make([]float64, st.n),
	}
	for p := range st.procs {
		sp := &st.procs[p]
		sp.mu.Lock()
		s.Clocks[p] = sp.clock.Clone()
		s.Lasts[p] = sp.last
		sp.mu.Unlock()
	}
	return s
}

// RestoreStamper rebuilds a stamper from a captured state.
func RestoreStamper(n int, s StamperState) (*Stamper, error) {
	if len(s.Clocks) != n || len(s.Lasts) != n {
		return nil, fmt.Errorf("dist: stamper state for %d processes, want %d", len(s.Clocks), n)
	}
	st := NewStamper(n)
	st.msgSeq.Store(s.MsgSeq)
	for p := range st.procs {
		if len(s.Clocks[p]) != n {
			return nil, fmt.Errorf("dist: stamper state clock %d has %d entries, want %d", p, len(s.Clocks[p]), n)
		}
		copy(st.procs[p].clock, s.Clocks[p])
		st.procs[p].last = s.Lasts[p]
	}
	return st, nil
}

// Absorb brings the stamper to where it stood after stamping e — an event of
// its own making, read back from a log — without stamping anything: e's
// process takes e's clock and timestamp, the message counter moves up to e's
// id, and ledger, the caller's table of messages in flight, gains the token of
// a send and loses that of a receive. Absorbing a stamper's whole output in
// the order it was produced reproduces its State and the ledger exactly. As
// with State, nothing may be stamping meanwhile.
func (st *Stamper) Absorb(e *Event, ledger map[int]MsgToken) error {
	if e.Proc < 0 || e.Proc >= st.n || len(e.VC) != st.n {
		return fmt.Errorf("dist: absorbing event of process %d with a %d-entry clock into a %d-process stamper", e.Proc, len(e.VC), st.n)
	}
	sp := &st.procs[e.Proc]
	sp.mu.Lock()
	copy(sp.clock, e.VC)
	sp.last = e.Time
	sp.mu.Unlock()
	switch e.Type {
	case Send:
		if int64(e.MsgID) > st.msgSeq.Load() {
			st.msgSeq.Store(int64(e.MsgID))
		}
		ledger[e.MsgID] = MsgToken{From: e.Proc, To: e.Peer, ID: e.MsgID, VC: append([]int(nil), e.VC...)}
	case Recv:
		delete(ledger, e.MsgID)
	}
	return nil
}

// Recv stamps the receipt by p of the message identified by tok; the event's
// clock merges the send's, making the causal dependency explicit.
func (st *Stamper) Recv(p int, tok MsgToken, state LocalState, at float64) (*Event, error) {
	if tok.To != p {
		return nil, fmt.Errorf("dist: process %d consuming message %d addressed to process %d", p, tok.ID, tok.To)
	}
	if tok.From < 0 || tok.From >= st.n || tok.From == p {
		return nil, fmt.Errorf("dist: message %d names invalid sender %d", tok.ID, tok.From)
	}
	if len(tok.VC) != st.n {
		return nil, fmt.Errorf("dist: message %d token has a %d-entry clock, want %d", tok.ID, len(tok.VC), st.n)
	}
	return st.stamp(p, &Event{Type: Recv, Peer: tok.From, MsgID: tok.ID, State: state}, vclock.VC(tok.VC), at)
}
