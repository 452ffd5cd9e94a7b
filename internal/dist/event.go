// Package dist is the distributed-program model of the paper (Chapter 2,
// Definitions 1–3): an execution is one event trace per process, where each
// event is an internal valuation change, a message send, or a message
// receive, stamped with a vector clock and the process's local state (the
// truth values of the propositions it owns, bit-packed). The package also
// provides the proposition space binding atomic propositions to owning
// processes, the §5.1/§5.2 case-study workload generator, the paper's
// Fig. 2.1 running example, and the trace stream codecs.
//
// A trace file (cmd/tracegen writes one, cmd/dlmon reads one) is a stream:
// a header carrying the proposition space and each process's initial local
// state, then every event of the execution in global timestamp order. A
// ".dmtb" path holds the binary codec (binary.go); every other path holds
// JSON lines:
//
//	{"v":1,"props":[{"name":"P0.p","owner":0},...],"init":[1,0]}
//	{"proc":0,"sn":1,"type":"internal","peer":-1,"msgid":0,"state":3,"vc":[1,0],"time":2.84}
//	{"proc":1,"sn":1,"type":"recv","peer":0,"msgid":1,"state":0,"vc":[1,1],"time":2.9}
//	...
//
// where "init"/"state" bit i is the truth value of the process's i-th owned
// proposition, "vc" is the event's vector clock, "sn" its 1-based sequence
// number, and "time" its physical timestamp in seconds. CodecForPath is the
// rule every reader and writer uses to pick the codec.
package dist

import (
	"fmt"
	"io"

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

// Validate checks that the trace set is a well-formed execution: its
// timestamp-order stream (Stream) must pass the validator every codec reader
// runs — contiguous sequence numbers, monotone clocks, non-negative and
// non-decreasing timestamps, causal delivery, every Recv matched by the Send
// with its MsgID — so a valid set is one whose written form every reader
// accepts. (Sends whose message was still in flight at termination are legal
// and stay unmatched.) Before that come the checks only a materialized set
// needs: proposition owners in range, no nil trace, and each trace and event
// labelled with its process.
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
	for p, tr := range ts.Traces {
		if tr == nil {
			return fmt.Errorf("dist: trace %d is nil", p)
		}
		if tr.Proc != p {
			return fmt.Errorf("dist: trace at position %d labelled process %d", p, tr.Proc)
		}
		for k, e := range tr.Events {
			if e == nil {
				return fmt.Errorf("dist: process %d event %d is nil", p, k+1)
			}
			if e.Proc != p {
				return fmt.Errorf("dist: process %d event %d owned by process %d", p, k+1, e.Proc)
			}
		}
	}
	v := newStreamValidator(n)
	src := ts.Stream()
	for {
		e, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := v.check(e); err != nil {
			return fmt.Errorf("dist: %w", err)
		}
	}
}
