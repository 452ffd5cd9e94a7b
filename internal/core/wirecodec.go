package core

// Hand-rolled binary codec for monitor-to-monitor messages.
//
// Every wireMsg crosses the transport as a flat varint-encoded record, the
// in-memory analogue of the .dmtb trace format (internal/dist/binary.go):
// unsigned fields are uvarints, fields that can be negative (Event.Peer, the
// token routing targets) are zigzag varints, and timestamps are fixed 8-byte
// IEEE-754. No reflection, and with the pooled encode scratch below the send
// side costs one right-sized payload allocation per message.
//
// Lifetime argument. Only the *encode scratch* is pooled, and it never
// escapes encodeMsg: the payload handed to transport.Endpoint.Send is a fresh
// copy (the transport retains it until delivery, possibly forever on a dead
// inbox, so it must own its bytes). Nothing decoded is pooled or reused:
// decoded values outlive the handler (tokens are parked in w_tokens, events
// live on in the knowledge store). What decode shares is storage *within* an
// event segment (a fetch reply, a token's Segs entry, a snapshot window):
// each run of up to slabEvents events is one []dist.Event slab and their
// clocks one []int slab. A slab is freed when the last event of its run is
// collected, which delays little: a run is contiguous events of one process,
// the knowledge store holds each process as one contiguous window, and
// knowledge.truncate only ever drops a prefix of it — so a slab's events
// leave in order and the slab dies whole, at most slabEvents-1 events after
// its first event would have alone. Events the store already had are never
// retained; those sharing a slab with new events live as long as it does.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"decentmon/internal/dist"
	"decentmon/internal/vclock"
)

// encPool recycles encode scratch buffers across sends; steady-state encode
// therefore allocates only the right-sized payload copy.
var encPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

func encodeMsg(m *wireMsg) ([]byte, error) {
	bp := encPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, byte(m.Kind))
	b = appendVC(b, m.Floor)
	switch m.Kind {
	case msgToken:
		b = appendToken(b, m.Token)
	case msgFetch:
		f := m.Fetch
		b = appendUvarints(b, uint64(f.Requester), uint64(f.FromSN), uint64(f.ToSN))
	case msgFetchReply:
		r := m.FetchReply
		b = append(b, boolByte(r.Done))
		b = appendUvarints(b, uint64(r.Proc), uint64(r.Total))
		b = appendEvents(b, r.Events)
	case msgTerm:
		b = appendUvarints(b, uint64(m.Term.Proc), uint64(m.Term.Total))
	case msgFini:
		b = binary.AppendUvarint(b, uint64(m.Fini))
	case msgEvent:
		b = appendEvent(b, m.Event)
	case msgFloor:
		// The envelope's floor is the whole payload.
	default:
		*bp = b
		encPool.Put(bp)
		return nil, fmt.Errorf("core: encoding unknown message kind %v", m.Kind)
	}
	out := make([]byte, len(b))
	copy(out, b)
	*bp = b
	encPool.Put(bp)
	return out, nil
}

func decodeMsg(payload []byte) (*wireMsg, error) {
	d := wireDecoder{buf: payload}
	m := &wireMsg{Kind: msgKind(d.byte())}
	//declint:ignore floormonotone the codec only transports floors: this value was serialized by encodeMsg from a wireMsg whose Floor came from needFloor() on the sending monitor, and decode reconstructs it bijectively
	m.Floor = d.vc()
	switch m.Kind {
	case msgToken:
		m.Token = d.token()
	case msgFetch:
		m.Fetch = &fetchWire{
			Requester: int(d.uvarint()),
			FromSN:    int(d.uvarint()),
			ToSN:      int(d.uvarint()),
		}
	case msgFetchReply:
		r := &fetchReplyWire{Done: d.byte() != 0}
		r.Proc = int(d.uvarint())
		r.Total = int(d.uvarint())
		r.Events = d.events()
		m.FetchReply = r
	case msgTerm:
		m.Term = &termWire{Proc: int(d.uvarint()), Total: int(d.uvarint())}
	case msgFini:
		m.Fini = int(d.uvarint())
	case msgEvent:
		m.Event = d.event()
	case msgFloor:
	default:
		return nil, fmt.Errorf("core: decoding message: unknown kind %d", int8(m.Kind))
	}
	if d.err != nil {
		return nil, fmt.Errorf("core: decoding %v message: %w", m.Kind, d.err)
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("core: decoding %v message: %d trailing bytes", m.Kind, len(d.buf)-d.off)
	}
	return m, nil
}

// --- encode helpers ---

func appendUvarints(b []byte, vs ...uint64) []byte {
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// appendVC writes a vector clock as count + components; a nil clock is
// count 0 (clocks are never empty, so the encoding is unambiguous).
func appendVC(b []byte, v vclock.VC) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	for _, x := range v {
		b = binary.AppendUvarint(b, uint64(x))
	}
	return b
}

func appendEvent(b []byte, e *dist.Event) []byte {
	b = appendUvarints(b, uint64(e.Proc), uint64(e.SN), uint64(e.Type))
	b = binary.AppendVarint(b, int64(e.Peer)) // -1 for internal events
	b = appendUvarints(b, uint64(e.MsgID), uint64(e.State))
	b = appendVC(b, e.VC)
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Time))
}

func appendEvents(b []byte, evs []*dist.Event) []byte {
	b = binary.AppendUvarint(b, uint64(len(evs)))
	for _, e := range evs {
		b = appendEvent(b, e)
	}
	return b
}

func appendToken(b []byte, t *tokenWire) []byte {
	b = appendUvarints(b, uint64(t.Parent), uint64(t.SearchID), uint64(t.Q))
	b = appendVC(b, t.Origin)
	b = binary.AppendVarint(b, int64(t.NextTargetProcess))
	b = binary.AppendUvarint(b, uint64(len(t.Trans)))
	for _, tr := range t.Trans {
		b = binary.AppendUvarint(b, uint64(tr.ID))
		b = appendVC(b, tr.Gcut)
		b = appendVC(b, tr.Depend)
		b = binary.AppendUvarint(b, uint64(len(tr.ConjEval)))
		for _, ev := range tr.ConjEval {
			b = append(b, byte(ev))
		}
		b = append(b, byte(tr.Eval))
		b = binary.AppendVarint(b, int64(tr.NextTargetProcess))
		b = binary.AppendVarint(b, int64(tr.NextTargetEvent))
	}
	b = binary.AppendUvarint(b, uint64(len(t.Segs)))
	for _, s := range t.Segs {
		b = binary.AppendUvarint(b, uint64(s.Proc))
		b = appendEvents(b, s.Events)
	}
	return b
}

// --- decode helpers ---

// wireDecoder walks a payload with sticky error handling: after the first
// malformed field every further read returns zero values, and decodeMsg
// surfaces the recorded error. Slice lengths are sanity-bounded by the bytes
// remaining, so a corrupt count cannot trigger a huge allocation.
type wireDecoder struct {
	buf []byte
	off int
	err error
}

func (d *wireDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("truncated or malformed %s at offset %d", what, d.off)
	}
}

func (d *wireDecoder) byte() byte {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail("byte")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *wireDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *wireDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

// count reads a slice length and verifies at least min bytes per element
// remain, bounding allocation by the payload size.
func (d *wireDecoder) count(min int) int {
	c := d.uvarint()
	if d.err != nil {
		return 0
	}
	if c > uint64((len(d.buf)-d.off)/min) {
		d.fail("length")
		return 0
	}
	return int(c)
}

func (d *wireDecoder) vc() vclock.VC {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	return d.fill(make([]int, n))
}

// fill reads len(v) clock components into the raw storage v.
func (d *wireDecoder) fill(v []int) vclock.VC {
	for i := range v {
		v[i] = int(d.uvarint())
	}
	return v
}

// minEventBytes is the shortest event record: six one-byte varints, an empty
// clock's count and the 8-byte timestamp.
const minEventBytes = 15

// eventInto decodes one event record into e. Its clock is cut from clocks,
// the slab shared by the left events still to come in e's event slab (e
// included); when the slab runs out a new one is made for all of them, capped
// by the bytes remaining (a component is at least one byte), so a hostile
// count cannot over-allocate. It returns the rest of the slab.
func (d *wireDecoder) eventInto(e *dist.Event, clocks []int, left int) []int {
	e.Proc = int(d.uvarint())
	e.SN = int(d.uvarint())
	e.Type = dist.EventType(d.uvarint())
	e.Peer = int(d.varint())
	e.MsgID = int(d.uvarint())
	e.State = dist.LocalState(d.uvarint())
	if n := d.count(1); n > 0 {
		if len(clocks) < n {
			clocks = make([]int, min(n*left, len(d.buf)-d.off))
		}
		e.VC = d.fill(clocks[:n:n])
		clocks = clocks[n:]
	}
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail("timestamp")
		return nil
	}
	e.Time = math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return clocks
}

func (d *wireDecoder) event() *dist.Event {
	e := new(dist.Event)
	d.eventInto(e, nil, 1)
	if d.err != nil {
		return nil
	}
	return e
}

// slabEvents caps the events sharing one slab. Fetch replies overlap (a second
// fetch to a peer leaves before the first reply lands, from the same sequence
// number), so a third of the events decoded on a stream are already known and
// dropped by merge; a segment-long slab pins that dead prefix until its live
// tail is collected (dlmond: +7% peak RSS, -8% events/s against no slabs).
// At 32 a slab is a small object and the waste under one slab per reply.
const slabEvents = 32

// events decodes one segment, its events into slabs of up to slabEvents and
// their clocks into one clock slab per event slab (see the lifetime argument
// in the file header).
func (d *wireDecoder) events() []*dist.Event {
	n := d.count(minEventBytes)
	if d.err != nil || n == 0 {
		return nil
	}
	evs := make([]*dist.Event, n)
	var slab []dist.Event
	var clocks []int
	for i := range evs {
		if len(slab) == 0 {
			slab, clocks = make([]dist.Event, min(slabEvents, n-i)), nil
		}
		clocks = d.eventInto(&slab[0], clocks, len(slab))
		if d.err != nil {
			return nil
		}
		evs[i], slab = &slab[0], slab[1:]
	}
	return evs
}

func (d *wireDecoder) token() *tokenWire {
	t := &tokenWire{
		Parent:   int(d.uvarint()),
		SearchID: int64(d.uvarint()),
		Q:        int(d.uvarint()),
		Origin:   d.vc(),
	}
	t.NextTargetProcess = int(d.varint())
	nt := d.count(4)
	for i := 0; i < nt && d.err == nil; i++ {
		tr := &transWire{ID: int(d.uvarint())}
		tr.Gcut = d.vc()
		tr.Depend = d.vc()
		nc := d.count(1)
		if d.err != nil {
			break
		}
		tr.ConjEval = make([]evalState, nc)
		for j := range tr.ConjEval {
			tr.ConjEval[j] = evalState(d.byte())
		}
		tr.Eval = evalState(d.byte())
		tr.NextTargetProcess = int(d.varint())
		tr.NextTargetEvent = int(d.varint())
		t.Trans = append(t.Trans, tr)
	}
	ns := d.count(2)
	for i := 0; i < ns && d.err == nil; i++ {
		s := &segment{Proc: int(d.uvarint())}
		s.Events = d.events()
		t.Segs = append(t.Segs, s)
	}
	if d.err != nil {
		return nil
	}
	return t
}
