package core

// Codec for monitor-to-monitor messages.
//
// A wireMsg that leaves the process (a transport without ValueSender: TCP),
// and every token and knowledge window at rest in a snapshot, is one flat
// record on the shared wire kernel (internal/wire): unsigned fields are
// uvarints, fields that can be negative (the token routing targets) are zigzag
// varints, clocks are count-prefixed, and events are the tree's one event
// record (dist.AppendEventRecord). Between monitors of one process the message
// is handed over as it is and none of this runs except msgSize, which prices
// the record encodeMsg would have produced so the byte counters read the same
// on either path. No reflection, and with the pooled encode scratch below the
// send side costs one right-sized payload allocation per message.
//
// Lifetime argument (the byte path: TCP, tokens at rest, restore). Only the
// *encode scratch* is pooled, and it never escapes encodeMsg: the payload
// handed to transport.Endpoint.Send is a fresh copy (the transport retains it
// until delivery, possibly forever on a dead inbox, so it must own its bytes).
// Nothing decoded is pooled or reused: decoded values outlive the handler
// (tokens are parked in w_tokens, events live on in the knowledge store). What
// decode shares is storage *within* an event segment (a fetch reply, a token's
// Segs entry, a snapshot window): dist.DecodeEvents fills slabs of up to
// dist.EventSlab events, whose lifetime argument is stated there. Events the
// store already had are never retained; those sharing a slab with new events
// live as long as it does. (Handed-over events are the feeder's own
// allocations, one per event, shared by every monitor that learns of them; no
// slab is involved.)

import (
	"fmt"
	"sync"

	"decentmon/internal/dist"
	"decentmon/internal/wire"
)

// encPool recycles encode scratch buffers across sends; steady-state encode
// therefore allocates only the right-sized payload copy.
var encPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

func encodeMsg(m *wireMsg) ([]byte, error) {
	bp := encPool.Get().(*[]byte)
	b := append((*bp)[:0], byte(m.Kind))
	b = wire.AppendClock(b, m.Floor)
	var err error
	switch m.Kind {
	case msgToken:
		b = appendToken(b, m.Token)
	case msgFetch:
		b = appendFetch(b, m.Fetch)
	case msgFetchReply:
		r := m.FetchReply
		b = wire.AppendBool(b, r.Done)
		b = wire.AppendInts(b, r.Proc, r.Total)
		b = appendEvents(b, r.Events)
	case msgTerm:
		b = wire.AppendClock(wire.AppendInts(b, m.Term.Proc, m.Term.Total), m.Term.Totals)
	case msgFini:
		b = wire.AppendInts(b, m.Fini)
	case msgFloor:
		// The envelope's floor is the whole payload.
	default:
		err = fmt.Errorf("core: encoding unknown message kind %v", m.Kind)
	}
	var out []byte
	if err == nil {
		out = append(make([]byte, 0, len(b)), b...)
	}
	*bp = b
	encPool.Put(bp)
	return out, err
}

// msgSize returns len(encodeMsg(m)) for every message encodeMsg accepts,
// without producing the bytes: it walks the message exactly as the encoder
// does and adds up field widths. It is what a handed-over message reports to
// transport.Stats, so NetBytes — the paper's communication overhead — does not
// depend on whether the codec ran (TestMsgSizeMatchesEncoding, FuzzDecodeMsg).
func msgSize(m *wireMsg) int {
	n := 1 + wire.ClockLen(m.Floor)
	switch m.Kind {
	case msgToken:
		n += tokenSize(m.Token)
	case msgFetch:
		n += wire.IntsLen(m.Fetch.Requester, m.Fetch.FromSN, m.Fetch.ToSN)
	case msgFetchReply:
		r := m.FetchReply
		n += 1 + wire.IntsLen(r.Proc, r.Total) + eventsSize(r.Events)
	case msgTerm:
		n += wire.IntsLen(m.Term.Proc, m.Term.Total) + wire.ClockLen(m.Term.Totals)
	case msgFini:
		n += wire.IntsLen(m.Fini)
	}
	return n
}

// decodeMsg parses one message of an n-monitor fleet: the event record
// carries no clock width, so the decoder is told it. Here and below a
// composite literal reads its fields off the cursor in the order they are
// written, which is the wire order.
func decodeMsg(payload []byte, n int) (*wireMsg, error) {
	c := wire.NewCursor(payload)
	m := &wireMsg{Kind: msgKind(c.Byte())}
	//declint:ignore floormonotone the codec only transports floors: this value was serialized by encodeMsg from a wireMsg whose Floor came from needFloor() on the sending monitor, and decode reconstructs it bijectively
	m.Floor = c.Clock()
	switch m.Kind {
	case msgToken:
		m.Token = decodeToken(&c, n)
	case msgFetch:
		m.Fetch = decodeFetch(&c)
	case msgFetchReply:
		m.FetchReply = &fetchReplyWire{Done: c.Bool(), Proc: c.Int(), Total: c.Int(), Events: decodeEvents(&c, n)}
	case msgTerm:
		m.Term = &termWire{Proc: c.Int(), Total: c.Int(), Totals: c.Clock()}
	case msgFini:
		m.Fini = c.Int()
	case msgFloor:
	default:
		return nil, fmt.Errorf("core: decoding message: unknown kind %d", int8(m.Kind))
	}
	if err := c.Done("message"); err != nil {
		return nil, fmt.Errorf("core: decoding %v %w", m.Kind, err)
	}
	if err := m.check(n); err != nil {
		return nil, fmt.Errorf("core: decoding %v: %w", m.Kind, err)
	}
	return m, nil
}

// check range-checks a decoded message against a fleet of n monitors: every
// process it names, the width of every clock and every sequence number. The
// bytes cannot tell a process, a width or a position wrong, and the handlers
// index by them, so a message that passes here indexes nothing out of range.
// What only the receiver can judge — a token's state and transitions against
// the automaton, a fetch against its GC floor, a reply about its own process —
// the handlers check (handleToken, serveFetch, handleFetchReply).
func (m *wireMsg) check(n int) error {
	if m.Floor != nil && len(m.Floor) != n {
		return fmt.Errorf("%d-entry floor, fleet of %d", len(m.Floor), n)
	}
	switch m.Kind {
	case msgToken:
		return validateToken(m.Token, n)
	case msgFetch:
		if f := m.Fetch; f.Requester >= n || f.FromSN < 1 {
			return fmt.Errorf("fetch of events %d.. for monitor %d, fleet of %d", f.FromSN, f.Requester, n)
		}
	case msgFetchReply:
		r := m.FetchReply
		if r.Proc >= n {
			return fmt.Errorf("reply with events of process %d, fleet of %d", r.Proc, n)
		}
		return checkSegment(r.Proc, r.Events)
	case msgTerm:
		if t := m.Term; t.Proc >= n || (len(t.Totals) != 0 && len(t.Totals) != n) {
			return fmt.Errorf("term of process %d with %d totals, fleet of %d", t.Proc, len(t.Totals), n)
		}
	case msgFini:
		if m.Fini >= n {
			return fmt.Errorf("fini of monitor %d, fleet of %d", m.Fini, n)
		}
	}
	return nil
}

// checkSegment checks that every event of a segment is an event of process p
// at a position: decoded clocks are n wide by construction.
func checkSegment(p int, evs []*dist.Event) error {
	for _, e := range evs {
		if e.Proc != p || e.SN < 1 {
			return fmt.Errorf("segment of process %d carries event %d of process %d", p, e.SN, e.Proc)
		}
	}
	return nil
}

// --- the records messages and snapshots share ---

func appendFetch(b []byte, f *fetchWire) []byte {
	return wire.AppendInts(b, f.Requester, f.FromSN, f.ToSN)
}

func decodeFetch(c *wire.Cursor) *fetchWire {
	return &fetchWire{Requester: c.Int(), FromSN: c.Int(), ToSN: c.Int()}
}

// appendEvent appends e's event record. The record's encoder refuses an
// unknown kind and has no other error; Session.Feed and the record's decoder
// admit none, so one reaching it here is a bug in this package.
func appendEvent(b []byte, e *dist.Event) []byte {
	b, err := dist.AppendEventRecord(b, e)
	if err != nil {
		panic(err)
	}
	return b
}

// appendEvents appends one segment: a count and that many event records.
func appendEvents(b []byte, evs []*dist.Event) []byte {
	b = wire.AppendUvarint(b, uint64(len(evs)))
	for _, e := range evs {
		b = appendEvent(b, e)
	}
	return b
}

// eventsSize is appendEvents' share of msgSize.
func eventsSize(evs []*dist.Event) int {
	n := wire.UvarintLen(uint64(len(evs)))
	for _, e := range evs {
		n += dist.EventRecordSize(e)
	}
	return n
}

// decodeEvents decodes one segment — a count, checked against the bytes that
// many records need at least, then that many n-wide event records — or nil on
// a malformed one.
func decodeEvents(c *wire.Cursor, n int) []*dist.Event {
	evs, _ := dist.DecodeEvents(c, nil, nil, c.Count(dist.MinEventRecord+n), n)
	if c.Err() != nil {
		return nil
	}
	return evs
}

func appendToken(b []byte, t *tokenWire) []byte {
	b = wire.AppendInts(b, t.Parent)
	b = wire.AppendUvarint(b, uint64(t.SearchID))
	b = wire.AppendInts(b, t.Q)
	b = wire.AppendClock(b, t.Origin)
	b = wire.AppendVarint(b, int64(t.NextTargetProcess))
	b = wire.AppendUvarint(b, uint64(len(t.Trans)))
	for _, tr := range t.Trans {
		b = wire.AppendInts(b, tr.ID)
		b = wire.AppendClock(b, tr.Gcut)
		b = wire.AppendClock(b, tr.Depend)
		b = wire.AppendUvarint(b, uint64(len(tr.ConjEval)))
		for _, ev := range tr.ConjEval {
			b = append(b, byte(ev))
		}
		b = append(b, byte(tr.Eval))
		b = wire.AppendVarint(b, int64(tr.NextTargetProcess))
		b = wire.AppendVarint(b, int64(tr.NextTargetEvent))
	}
	b = wire.AppendUvarint(b, uint64(len(t.Segs)))
	for _, s := range t.Segs {
		b = appendEvents(wire.AppendInts(b, s.Proc), s.Events)
	}
	return b
}

// tokenSize is appendToken's share of msgSize.
func tokenSize(t *tokenWire) int {
	n := wire.IntsLen(t.Parent, t.Q) + wire.UvarintLen(uint64(t.SearchID)) + wire.ClockLen(t.Origin) +
		wire.VarintLen(int64(t.NextTargetProcess)) + wire.UvarintLen(uint64(len(t.Trans)))
	for _, tr := range t.Trans {
		n += wire.IntsLen(tr.ID) + wire.ClockLen(tr.Gcut) + wire.ClockLen(tr.Depend) +
			wire.UvarintLen(uint64(len(tr.ConjEval))) + len(tr.ConjEval) + 1 +
			wire.VarintLen(int64(tr.NextTargetProcess)) + wire.VarintLen(int64(tr.NextTargetEvent))
	}
	n += wire.UvarintLen(uint64(len(t.Segs)))
	for _, s := range t.Segs {
		n += wire.IntsLen(s.Proc) + eventsSize(s.Events)
	}
	return n
}

func decodeToken(c *wire.Cursor, n int) *tokenWire {
	t := &tokenWire{Parent: c.Int(), SearchID: int64(c.Int()), Q: c.Int(), Origin: c.Clock()}
	t.NextTargetProcess = int(c.Varint())
	for nt := c.Count(7); nt > 0 && c.Err() == nil; nt-- { // id, three counts, eval, two targets
		tr := &transWire{ID: c.Int(), Gcut: c.Clock(), Depend: c.Clock()}
		tr.ConjEval = make([]evalState, c.Count(1))
		for j := range tr.ConjEval {
			tr.ConjEval[j] = evalState(c.Byte())
		}
		tr.Eval = evalState(c.Byte())
		tr.NextTargetProcess = int(c.Varint())
		tr.NextTargetEvent = int(c.Varint())
		t.Trans = append(t.Trans, tr)
	}
	for ns := c.Count(2); ns > 0 && c.Err() == nil; ns-- { // process, event count
		t.Segs = append(t.Segs, &segment{Proc: c.Int(), Events: decodeEvents(c, n)})
	}
	if c.Err() != nil {
		return nil
	}
	return t
}
