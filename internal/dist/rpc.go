package dist

import (
	"bufio"
	"fmt"

	"decentmon/internal/wire"
)

// dlmond RPC wire format: the session-server protocol spoken by cmd/dlmond
// and its clients (internal/server). Frames ride a byte stream exactly like
// ".dmtb" event records ride a trace file — wire frames, a uvarint payload
// length followed by the payload — so truncation is detectable; an Ingest
// payload is a run of the literal event record of binary.go and a Register's
// process space the record of propmap.go. ARCHITECTURE.md ("Wire formats")
// lists the fields of every verb; appendRPCPayload and DecodeRPC are the two
// places that know them.
//
// Connection layout:
//
//	hello    client and server each send one Hello frame (magic "DLMD" +
//	         version) before anything else; either side rejects a
//	         version it does not understand.
//	frames   uvarint length + payload, payload byte 0 is the verb.
//
// Verbs (client → server):
//
//	Register   tenant, formula, initial state, proposition space
//	Ingest     session id + one or more pre-stamped ".dmtb" event records,
//	           back to back: a record is self-delimiting once the session's
//	           process count is known, so the run needs no count, and one
//	           event is the run of length one (DecodeEventRun)
//	Subscribe  session id: verdict frames stream on this connection, the ones
//	           detected before it first
//	End        session id + process: no further events of that process
//	Close      session id: drain, finalize, reply with the verdict set
//	Attach     session id: re-adopt a session that survived a daemon
//	           restart (durable-state mode); the Registered reply carries
//	           the resume epoch and per-process fed counts so the feeder
//	           knows where to pick the trace back up
//
// Verbs (server → client):
//
//	Registered  session id + cache-hit flag + resume epoch (how many
//	            daemon restarts the session has survived) + per-process
//	            fed event counts (resume feeding process p at Fed[p]+1)
//	Acked       acknowledgement of End
//	Verdict     one incremental verdict detection of a subscribed session
//	Closed      terminal verdict set
//	Error       failure; session id 0 means the connection itself
//
// Ingest is deliberately fire-and-forget (no per-event acknowledgement):
// TCP flow control paces a feeder that outruns the server, and ingestion
// failures surface as an asynchronous Error frame that dooms the session. How
// many events share a frame is the sender's business (internal/server's
// client puts in one frame whatever accumulated while its previous write was
// in flight); the receiver feeds a frame whole or, if any record of it is
// malformed, not at all.
type RPCKind uint8

// The RPC verbs. Client-originated verbs are low, server-originated high;
// Hello flows both ways. Verbs 4 and 66 (Emit and Emitted, server-side
// stamping, gone since version 4) are retired and never reused.
const (
	RPCHello     RPCKind = 1
	RPCRegister  RPCKind = 2
	RPCIngest    RPCKind = 3
	RPCSubscribe RPCKind = 5
	RPCEnd       RPCKind = 6
	RPCClose     RPCKind = 7
	RPCAttach    RPCKind = 8

	RPCRegistered RPCKind = 65
	RPCAcked      RPCKind = 67
	RPCVerdict    RPCKind = 68
	RPCClosed     RPCKind = 69
	RPCError      RPCKind = 70
)

func (k RPCKind) String() string {
	switch k {
	case RPCHello:
		return "hello"
	case RPCRegister:
		return "register"
	case RPCIngest:
		return "ingest"
	case RPCSubscribe:
		return "subscribe"
	case RPCEnd:
		return "end"
	case RPCClose:
		return "close"
	case RPCAttach:
		return "attach"
	case RPCRegistered:
		return "registered"
	case RPCAcked:
		return "acked"
	case RPCVerdict:
		return "verdict"
	case RPCClosed:
		return "closed"
	case RPCError:
		return "error"
	}
	return fmt.Sprintf("RPCKind(%d)", uint8(k))
}

// RPCMagic opens every dlmond connection (inside the Hello frame).
var RPCMagic = [4]byte{'D', 'L', 'M', 'D'}

// RPCVersion is the protocol version spoken by this build. Version 2 added
// Attach and the epoch/fed fields of Registered (durable sessions); version 3
// lets an Ingest carry a run of event records where it carried exactly one;
// version 4 retires Emit and Emitted, so every event arrives stamped.
const RPCVersion = 4

// MaxRPCFrame bounds one frame's payload: a Register carries a formula and
// a proposition space, an Ingest as many events as its sender batched,
// everything else is tens of bytes.
const MaxRPCFrame = 1 << 20

// Verdict codes carried by Verdict/Closed frames. They mirror
// automaton.Verdict's values without importing the package (dist is the
// dependency-free type hub); internal/server converts.
const (
	RPCVerdictUnknown byte = 0
	RPCVerdictTop     byte = 1
	RPCVerdictBottom  byte = 2
)

// RPCVerdictString renders a verdict code the way automaton.Verdict does.
func RPCVerdictString(code byte) string {
	switch code {
	case RPCVerdictTop:
		return "T"
	case RPCVerdictBottom:
		return "F"
	default:
		return "?"
	}
}

// RPCMsg is one decoded RPC frame. The field set in use depends on Kind;
// unrelated fields are zero. A flat struct keeps the codec a single
// append/decode pair and the server's dispatch a switch on Kind.
type RPCMsg struct {
	Kind RPCKind
	// SID addresses a session (every verb but Hello and Register).
	SID uint64

	// Hello.
	Version uint8

	// Register.
	Tenant  string
	Formula string
	Init    GlobalState
	Props   *PropMap

	// Ingest: one or more ".dmtb" event records back to back
	// (AppendEventRecord encoding; DecodeEventRun reads them). The slice
	// aliases the decode buffer — decode it into Events (which copy what
	// they keep) before reading the next frame.
	Raw []byte

	// End: the process that has no further events.
	Proc int

	// Registered. Epoch counts daemon restarts the session has survived
	// (0 for a fresh registration); Fed is the per-process count of events
	// already absorbed, so a re-attaching feeder resumes process p at its
	// event Fed[p]+1.
	CacheHit bool
	Epoch    uint64
	Fed      []int

	// Verdict.
	Monitor    int
	Verdict    byte
	AutState   int
	Conclusive bool
	Cut        []int

	// Closed: the terminal verdict set, one code per member.
	Verdicts []byte

	// Error.
	Err string
}

// AppendRPC appends the frame for m — uvarint length prefix included — to
// buf and returns the extended slice, or buf as it was with the error. The
// payload is encoded in place behind its prefix: into a buffer with room the
// call allocates nothing, and a nil buf is sized once for the fields whose
// length is known (an Ingest's records are most of a kilobyte frame).
func AppendRPC(buf []byte, m *RPCMsg) ([]byte, error) {
	start, out := len(buf), buf
	if out == nil {
		out = make([]byte, 0, 64+len(m.Raw)+len(m.Tenant)+len(m.Formula)+len(m.Err))
	}
	out, err := appendRPCPayload(wire.BeginFrame(out), m)
	if err != nil {
		return buf, err
	}
	if n := len(out) - start - 1; n > MaxRPCFrame {
		return buf, fmt.Errorf("dist: rpc %s frame of %d bytes exceeds the %d-byte bound", m.Kind, n, MaxRPCFrame)
	}
	return wire.EndFrame(out, start), nil
}

func appendRPCPayload(buf []byte, m *RPCMsg) ([]byte, error) {
	buf = append(buf, byte(m.Kind))
	if m.Kind != RPCHello && m.Kind != RPCRegister {
		buf = wire.AppendUvarint(buf, m.SID)
	}
	switch m.Kind {
	case RPCHello:
		buf = append(buf, RPCMagic[:]...)
		buf = append(buf, m.Version)
	case RPCRegister:
		if m.Props == nil {
			return nil, fmt.Errorf("dist: rpc register without a proposition space")
		}
		buf = wire.AppendString(buf, m.Tenant)
		buf = wire.AppendString(buf, m.Formula)
		buf = AppendProcessSpace(buf, m.Init, m.Props)
	case RPCIngest:
		if len(m.Raw) == 0 {
			return nil, fmt.Errorf("dist: rpc ingest without an event record")
		}
		buf = append(buf, m.Raw...)
	case RPCSubscribe, RPCClose, RPCAttach, RPCAcked:
	case RPCEnd:
		buf = wire.AppendInts(buf, m.Proc)
	case RPCRegistered:
		buf = wire.AppendBool(buf, m.CacheHit)
		buf = wire.AppendUvarint(buf, m.Epoch)
		buf = wire.AppendClock(buf, m.Fed)
	case RPCVerdict:
		buf = wire.AppendInts(buf, m.Monitor)
		buf = wire.AppendBool(append(buf, m.Verdict), m.Conclusive)
		buf = wire.AppendInts(buf, m.AutState)
		buf = wire.AppendClock(buf, m.Cut)
	case RPCClosed:
		buf = append(wire.AppendUvarint(buf, uint64(len(m.Verdicts))), m.Verdicts...)
	case RPCError:
		buf = wire.AppendString(buf, m.Err)
	default:
		return nil, fmt.Errorf("dist: encoding unknown rpc verb %d", uint8(m.Kind))
	}
	return buf, nil
}

// ReadRPCFrame reads one length-prefixed frame from br into scratch
// (growing it as needed) and returns the payload plus the possibly-grown
// scratch for reuse. A clean EOF between frames returns io.EOF; mid-frame
// truncation is an error.
func ReadRPCFrame(br *bufio.Reader, scratch []byte) (payload, grown []byte, err error) {
	return wire.ReadFrame(br, scratch, MaxRPCFrame)
}

// DecodeRPC parses one frame payload. Byte-slice fields of the returned
// message (Raw, Verdicts) alias payload, so that an Ingest — the verb that
// carries the events — costs no copy; consume them before reusing the read
// buffer.
func DecodeRPC(payload []byte) (*RPCMsg, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("dist: empty rpc frame")
	}
	c := wire.NewCursor(payload)
	m := &RPCMsg{Kind: RPCKind(c.Byte())}
	if m.Kind != RPCHello && m.Kind != RPCRegister {
		m.SID = c.Uvarint()
	}
	switch m.Kind {
	case RPCHello:
		if magic := c.Bytes(len(RPCMagic)); magic != nil && [4]byte(magic) != RPCMagic {
			return nil, fmt.Errorf("dist: not a dlmond connection (bad magic %q)", magic)
		}
		m.Version = c.Byte()
	case RPCRegister:
		m.Tenant = c.String()
		m.Formula = c.String()
		m.Init, m.Props = DecodeProcessSpace(&c)
	case RPCIngest:
		if m.Raw = c.Bytes(c.Len()); len(m.Raw) == 0 {
			c.Failf("ingest without an event record")
		}
	case RPCSubscribe, RPCClose, RPCAttach, RPCAcked:
	case RPCEnd:
		m.Proc = c.Int()
	case RPCRegistered:
		m.CacheHit = c.Bool()
		m.Epoch = c.Uvarint()
		m.Fed = perProcess(&c)
	case RPCVerdict:
		m.Monitor = c.Int()
		m.Verdict = c.Byte()
		m.Conclusive = c.Bool()
		m.AutState = c.Int()
		m.Cut = perProcess(&c)
	case RPCClosed:
		m.Verdicts = c.Bytes(c.Count(1))
	case RPCError:
		m.Err = c.String()
	default:
		return nil, fmt.Errorf("dist: unknown rpc verb %d", payload[0])
	}
	if err := c.Done("payload"); err != nil {
		return nil, fmt.Errorf("dist: rpc %s: %w", m.Kind, err)
	}
	return m, nil
}

// perProcess reads a clock-shaped field with one entry per process, of which
// no session has more than MaxSpace.
func perProcess(c *wire.Cursor) []int {
	v := c.Clock()
	if err := spaceCount(uint64(len(v)), "processes"); err != nil {
		c.Failf("%v", err)
	}
	return v
}
