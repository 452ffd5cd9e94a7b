// Package dist is the distributed-program model of the paper (Chapter 2,
// Definitions 1–3): an execution is one event trace per process, where each
// event is an internal valuation change, a message send, or a message
// receive, stamped with a vector clock and the process's local state (the
// truth values of the propositions it owns, bit-packed). The package also
// provides the proposition space binding atomic propositions to owning
// processes, the §5.1/§5.2 case-study workload generator, the paper's
// Fig. 2.1 running example, and trace-set (de)serialization.
//
// Trace files (cmd/tracegen writes them, cmd/dlmon reads them) are JSON of
// the form
//
//	{
//	  "props":  [{"name": "P0.p", "owner": 0}, ...],
//	  "traces": [{
//	    "proc": 0,
//	    "init": 1,
//	    "events": [
//	      {"sn": 1, "type": "internal", "peer": -1, "msgid": 0,
//	       "state": 3, "vc": [1, 0], "time": 2.84},
//	      {"sn": 2, "type": "send", "peer": 1, "msgid": 1, ...},
//	      ...
//	    ]}, ...]
//	}
//
// where "init"/"state" bit i is the truth value of the process's i-th owned
// proposition, "vc" is the event's vector clock, "sn" its 1-based sequence
// number, and "time" its physical timestamp in seconds.
package dist

import (
	"fmt"
	"math"

	"decentmon/internal/vclock"
)

// EventType distinguishes the three event kinds of Definition 1.
type EventType int

const (
	// Internal is a computation event changing the process's valuation.
	Internal EventType = iota
	// Send is the emission of a message to another process.
	Send
	// Recv is the receipt of a message.
	Recv
)

func (t EventType) String() string {
	switch t {
	case Internal:
		return "internal"
	case Send:
		return "send"
	case Recv:
		return "recv"
	}
	return fmt.Sprintf("EventType(%d)", int(t))
}

// LocalState is one process's bit-packed valuation: bit k is the truth value
// of the process's k-th owned proposition (PropMap.LocalBit).
type LocalState uint32

// GlobalState is the vector of local states across all processes — the
// global-state letter the monitor automaton consumes (via PropMap.Letter).
type GlobalState []LocalState

// Clone returns an independent copy.
func (g GlobalState) Clone() GlobalState {
	out := make(GlobalState, len(g))
	copy(out, g)
	return out
}

// Event is one event of a process trace.
type Event struct {
	// Proc is the owning process index.
	Proc int
	// SN is the 1-based sequence number within the process's trace.
	SN int
	// Type is the event kind.
	Type EventType
	// Peer is the destination process of a Send, the sender of a Recv, and
	// meaningless (conventionally -1) for Internal events.
	Peer int
	// MsgID pairs a Send with its Recv; 0 for Internal events.
	MsgID int
	// State is the process's local state after the event.
	State LocalState
	// VC is the event's vector clock (VC[Proc] == SN).
	VC vclock.VC
	// Time is the event's physical timestamp in seconds from run start.
	Time float64
}

// Trace is one process's complete event sequence.
type Trace struct {
	// Proc is the process index (equal to the trace's position in the set).
	Proc int
	// Init is the process's local state before its first event.
	Init LocalState
	// Events are the process's events in sequence-number order.
	Events []*Event
}

// Len returns the number of events.
func (t *Trace) Len() int { return len(t.Events) }

// StateAt returns the local state after the sn-th event (sn == 0 yields the
// initial state).
func (t *Trace) StateAt(sn int) LocalState {
	if sn <= 0 {
		return t.Init
	}
	return t.Events[sn-1].State
}

// TraceSet is a complete recorded execution of a distributed program: one
// trace per process plus the proposition space its states are expressed in.
type TraceSet struct {
	// Props binds the atomic propositions to owning processes.
	Props *PropMap
	// Traces holds one trace per process, indexed by process.
	Traces []*Trace
}

// N returns the number of processes.
func (ts *TraceSet) N() int { return len(ts.Traces) }

// TotalEvents returns the number of events across all processes.
func (ts *TraceSet) TotalEvents() int {
	total := 0
	for _, tr := range ts.Traces {
		total += len(tr.Events)
	}
	return total
}

// InitialState returns a fresh copy of the initial global state.
func (ts *TraceSet) InitialState() GlobalState {
	g := make(GlobalState, len(ts.Traces))
	for p, tr := range ts.Traces {
		g[p] = tr.Init
	}
	return g
}

// FinalCut returns the global final cut: every process at its last event.
func (ts *TraceSet) FinalCut() vclock.VC {
	cut := vclock.New(len(ts.Traces))
	for p, tr := range ts.Traces {
		cut[p] = len(tr.Events)
	}
	return cut
}

// StateAtCut materializes the global state at a cut.
func (ts *TraceSet) StateAtCut(cut vclock.VC) GlobalState {
	g := make(GlobalState, len(ts.Traces))
	for p, tr := range ts.Traces {
		g[p] = tr.StateAt(cut[p])
	}
	return g
}

// Validate checks that the trace set is a well-formed computation:
// contiguous sequence numbers, per-process monotone vector clocks and
// timestamps, clocks that never reference nonexistent peer events, and every
// Recv matched by a Send with the same MsgID that causally precedes it.
// (Sends whose message was still in flight at termination are legal and stay
// unmatched.)
func (ts *TraceSet) Validate() error {
	if ts.Props == nil {
		return fmt.Errorf("dist: trace set has no proposition map")
	}
	n := len(ts.Traces)
	for i, o := range ts.Props.Owner {
		if o < 0 || o >= n {
			return fmt.Errorf("dist: proposition %q owned by nonexistent process %d", ts.Props.Names[i], o)
		}
	}
	type sendRec struct {
		proc, dest int
		vc         vclock.VC
	}
	// All traces must exist before any event check: the clock-bounds check
	// below dereferences peer traces.
	for p, tr := range ts.Traces {
		if tr == nil {
			return fmt.Errorf("dist: trace %d is nil", p)
		}
		if tr.Proc != p {
			return fmt.Errorf("dist: trace at position %d labelled process %d", p, tr.Proc)
		}
	}
	sends := map[int]sendRec{}
	for p, tr := range ts.Traces {
		prevVC := vclock.New(n)
		prevTime := math.Inf(-1)
		for k, e := range tr.Events {
			where := fmt.Sprintf("process %d event %d", p, k+1)
			if e.Proc != p {
				return fmt.Errorf("dist: %s owned by process %d", where, e.Proc)
			}
			switch e.Type {
			case Internal, Send, Recv:
			default:
				return fmt.Errorf("dist: %s has unknown type %d", where, int(e.Type))
			}
			if e.SN != k+1 {
				return fmt.Errorf("dist: %s has sequence number %d", where, e.SN)
			}
			if len(e.VC) != n {
				return fmt.Errorf("dist: %s has a %d-entry clock, want %d", where, len(e.VC), n)
			}
			if e.VC[p] != e.SN {
				return fmt.Errorf("dist: %s clock %v disagrees with its sequence number", where, e.VC)
			}
			if !prevVC.LessEq(e.VC) {
				return fmt.Errorf("dist: %s clock %v not monotone after %v", where, e.VC, prevVC)
			}
			for j := 0; j < n; j++ {
				if e.VC[j] > len(ts.Traces[j].Events) {
					return fmt.Errorf("dist: %s clock %v references nonexistent event %d of process %d", where, e.VC, e.VC[j], j)
				}
			}
			if e.Time < prevTime {
				return fmt.Errorf("dist: %s timestamp %v precedes %v", where, e.Time, prevTime)
			}
			prevVC, prevTime = e.VC, e.Time
			if e.Type == Send {
				if e.Peer < 0 || e.Peer >= n || e.Peer == p {
					return fmt.Errorf("dist: %s sends to invalid process %d", where, e.Peer)
				}
				if _, dup := sends[e.MsgID]; dup {
					return fmt.Errorf("dist: %s reuses message id %d", where, e.MsgID)
				}
				sends[e.MsgID] = sendRec{proc: p, dest: e.Peer, vc: e.VC}
			}
		}
	}
	received := map[int]bool{}
	for p, tr := range ts.Traces {
		for k, e := range tr.Events {
			if e.Type != Recv {
				continue
			}
			where := fmt.Sprintf("process %d event %d", p, k+1)
			s, ok := sends[e.MsgID]
			if !ok {
				return fmt.Errorf("dist: %s receives message %d never sent", where, e.MsgID)
			}
			if received[e.MsgID] {
				return fmt.Errorf("dist: %s receives message %d twice", where, e.MsgID)
			}
			received[e.MsgID] = true
			if s.proc != e.Peer {
				return fmt.Errorf("dist: %s names sender %d, message %d was sent by %d", where, e.Peer, e.MsgID, s.proc)
			}
			if s.dest != p {
				return fmt.Errorf("dist: %s consumes message %d addressed to process %d", where, e.MsgID, s.dest)
			}
			if !s.vc.LessEq(e.VC) {
				return fmt.Errorf("dist: %s clock %v does not dominate its send's clock %v", where, e.VC, s.vc)
			}
		}
	}
	return nil
}
