package core

import (
	"fmt"

	"decentmon/internal/dist"
	"decentmon/internal/vclock"
)

// Monitor-to-monitor messages. All traffic is wireMsg envelopes. Between
// monitors that share a process the envelope itself is handed over
// (transport.ValueSender); on a network that leaves the process, and at rest
// in a snapshot, it is the flat varint encoding of wirecodec.go. Its encoded
// length is the "monitoring message size" the memory/communication
// experiments measure, computed by msgSize whether or not the bytes are ever
// produced.
//
// Ownership. A handed-over message is the sender's own value arriving on
// another goroutine, so what each side may do with it is fixed here, and the
// byte path (where the receiver gets a private copy) follows the same rules
// so that nothing depends on which one ran:
//
//   - Sending a token transfers it. The token, its transWire records (whose
//     Gcut, Depend and ConjEval the next holder rewrites in place) and its
//     segment slices belong to the receiver from the moment of the send; the
//     sender keeps no reference and never touches it again.
//   - Everything else reachable from a sent message is immutable from that
//     moment, for both sides and for good: the envelope, the fetch, reply and
//     term records, every *dist.Event and its clock, the Floor, and the one
//     part of a token that is shared rather than transferred, its Origin
//     (launchSearch keeps the same slice in the search table to pin the GC floor;
//     both ends only read it). One fed event is therefore one *dist.Event for
//     every monitor of the session. declint enforces the event half
//     tree-wide: sharedevent allows no field write through a *dist.Event
//     outside internal/dist's constructors and decoders, clockalias none into
//     its clock.
//   - A field a sender will later change must be replaced whole, never
//     written through, once a message has carried it: floors.curFloor is (see
//     collectKnowledge), which is what lets deliver publish it as Floor.
//   - A slice the sender keeps writing to is copied before it is sent:
//     serveFetch copies the knowledge window's pointer slice, because
//     knowledge.truncate nils entries in place and grow reallocates.

type msgKind int8

const (
	msgToken msgKind = iota + 1
	msgFetch
	msgFetchReply
	msgTerm
	msgFini
	_        // 6 is unassigned: every kind keeps the byte it has on the wire
	msgFloor // knowledge-GC need-floor announcement (no other payload)
)

func (k msgKind) String() string {
	switch k {
	case msgToken:
		return "token"
	case msgFetch:
		return "fetch"
	case msgFetchReply:
		return "fetchReply"
	case msgTerm:
		return "term"
	case msgFini:
		return "fini"
	case msgFloor:
		return "floor"
	}
	return fmt.Sprintf("msgKind(%d)", int8(k))
}

// evalState is the three-valued evaluation of a token transition or of one
// process's conjunct (§4.2: predtrue / predfalse / unset).
type evalState int8

const (
	evalUnset evalState = iota
	evalTrue
	evalFalse
)

// transWire is one outgoing-transition search inside a token (the
// OutgoingTransition record of §4.2).
type transWire struct {
	// ID is the automaton transition id being searched.
	ID int
	// Gcut is the candidate cut constructed so far: Gcut[j] is process j's
	// chosen position.
	Gcut vclock.VC
	// Depend is the merged vector clock of all chosen frontier events; the
	// candidate cut is consistent iff Gcut dominates Depend (§4.2).
	Depend vclock.VC
	// ConjEval[j] is the evaluation of process j's conjunct at Gcut[j].
	// Non-participating processes are permanently evalTrue.
	ConjEval []evalState
	// Eval is the overall transition evaluation.
	Eval evalState
	// NextTargetProcess/NextTargetEvent name the process (and the first
	// event of interest there) that must act next for this transition.
	NextTargetProcess int
	NextTargetEvent   int
}

// segment carries a contiguous run of one process's events inside a token.
// Tokens accumulate every event they scan so that the parent monitor can
// explore the traversed lattice region exactly. [choice] The thesis token
// keeps only the latest event per process; carrying the scanned segments is
// what lets our implementation verify lattice paths precisely (DESIGN.md).
type segment struct {
	Proc   int
	Events []*dist.Event
}

// tokenWire is the monitoring token of Algorithms 3–5.
type tokenWire struct {
	// Parent is the monitor that created the token.
	Parent int
	// SearchID identifies the search at the parent (unique per parent).
	SearchID int64
	// Q is the automaton state the search explores from.
	Q int
	// Origin is the global-view cut the search started at.
	Origin vclock.VC
	// Trans are the outgoing-transition searches still being evaluated.
	Trans []*transWire
	// Segs are the event segments collected while scanning.
	Segs []*segment
	// NextTargetProcess is the monitor the token is addressed to; when it
	// equals Parent the token is returning.
	NextTargetProcess int
}

// addSegment appends one scanned event to the token's segment store,
// deduplicating contiguous overlap.
func (t *tokenWire) addSegment(e *dist.Event) {
	for _, s := range t.Segs {
		if s.Proc != e.Proc {
			continue
		}
		last := s.Events[len(s.Events)-1].SN
		if e.SN <= last {
			return // already collected
		}
		if e.SN == last+1 {
			s.Events = append(s.Events, e)
			return
		}
	}
	t.Segs = append(t.Segs, &segment{Proc: e.Proc, Events: []*dist.Event{e}})
}

// fetchWire asks a monitor for a segment of its local events (used to close
// receive-event causal gaps and for finalization).
type fetchWire struct {
	Requester int
	FromSN    int
	ToSN      int
}

// fetchReplyWire answers a fetch with the available events and the sender's
// termination status.
type fetchReplyWire struct {
	Proc   int
	Events []*dist.Event
	Done   bool
	Total  int
}

// termWire announces that a monitored process has terminated after Total
// events (§4.2 TERMINATE).
type termWire struct {
	Proc  int
	Total int
}

// wireMsg is the envelope for every monitor-to-monitor message.
type wireMsg struct {
	Kind       msgKind
	Token      *tokenWire
	Fetch      *fetchWire
	FetchReply *fetchReplyWire
	Term       *termWire
	Fini       int
	// Floor piggybacks the sender's knowledge need-floor (§GC, monitor.go:
	// the pointwise minimum cut its future explorations can start from) on
	// every message; floorInf components mean "never again". Receivers fold
	// it into their view of the global minimal cut.
	Floor vclock.VC
}
