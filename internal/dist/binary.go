package dist

import (
	"bufio"
	"fmt"
	"io"

	"decentmon/internal/vclock"
	"decentmon/internal/wire"
)

// Binary streaming trace format (".dmtb" — "decentmon trace, binary"): the
// byte-oriented sibling of the ".jsonl" format, carrying the same header and
// the same timestamp-ordered event sequence, about an order of magnitude
// faster to decode because records parse with fixed-width reads and varints
// instead of a JSON tokenizer. ARCHITECTURE.md ("Wire formats") has the
// layout; NewBinaryWriter and AppendEventRecord are its two encoders.
//
// Each event record is a wire frame: the length prefix makes truncation
// detectable (a stream ending mid-record is an error, not EOF) and lets future
// versions append payload fields that old readers skip. Versioning: the header
// version byte is bumped on any incompatible change; readers reject versions
// they do not understand.

// binaryMagic opens every .dmtb stream.
var binaryMagic = [4]byte{'D', 'M', 'T', 'B'}

// binaryVersion is the header version writers emit and readers accept.
const binaryVersion = 1

// maxBinaryRecord bounds one record's payload, guarding the reader against
// allocating for a corrupt length prefix. A record is ~20 bytes + the vector
// clock, so even 32-process traces stay far below this.
const maxBinaryRecord = 1 << 20

// binaryCodec is the Codec for the ".dmtb" format.
type binaryCodec struct{}

func (binaryCodec) Name() string { return "dmtb" }
func (binaryCodec) Ext() string  { return ".dmtb" }

func (binaryCodec) Open(r io.Reader) (EventSource, error) {
	return OpenBinaryStream(r)
}

func (binaryCodec) Create(w io.Writer, pm *PropMap, init GlobalState) (StreamSink, error) {
	return NewBinaryWriter(w, pm, init)
}

// --- writer ---

// BinaryWriter writes the ".dmtb" format incrementally: the header at
// construction, then one record per Write, in global timestamp order.
type BinaryWriter struct {
	bw      *bufio.Writer
	scratch []byte
	n       int
}

// NewBinaryWriter writes the stream header and returns a writer for the
// event records. Events must be passed to Write in global timestamp order.
func NewBinaryWriter(w io.Writer, pm *PropMap, init GlobalState) (*BinaryWriter, error) {
	if pm == nil {
		return nil, fmt.Errorf("dist: stream writer needs a proposition map")
	}
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 256)
	buf = append(buf, binaryMagic[:]...)
	buf = append(buf, binaryVersion)
	buf = wire.AppendUvarint(buf, uint64(len(init)))
	for _, s := range init {
		buf = wire.AppendUint32LE(buf, uint32(s))
	}
	buf = wire.AppendUvarint(buf, uint64(len(pm.Names)))
	for i, name := range pm.Names {
		buf = wire.AppendString(wire.AppendInts(buf, pm.Owner[i]), name)
	}
	if _, err := bw.Write(buf); err != nil {
		return nil, fmt.Errorf("dist: writing binary stream header: %w", err)
	}
	return &BinaryWriter{bw: bw, scratch: buf[:0]}, nil
}

// MinEventRecord is the size of an event record less its clock, of which
// every component takes at least one byte more.
const MinEventRecord = 16

// AppendEventRecord appends the event record of e to buf and returns the
// extended slice: process (uvarint), kind (one byte: 0 internal, 1 send,
// 2 recv), peer (zigzag varint, -1 for internal events), message id
// (uvarint), local state (uint32), timestamp (float64), then one uvarint per
// clock component. There is no count and no sequence number — the reader knows
// the process count and the sequence number is the event's own clock
// component — so a writer must only be handed events whose clock is as wide as
// the process space. This is the tree's one event layout: ".dmtb" frames it
// with a length prefix, and dlmond's Ingest frames, monitor messages and
// snapshot knowledge windows carry runs of it.
func AppendEventRecord(buf []byte, e *Event) ([]byte, error) {
	if e.Type < Internal || e.Type > Recv {
		return nil, fmt.Errorf("dist: unknown event type %d", int(e.Type))
	}
	buf = wire.AppendInts(buf, e.Proc)
	buf = append(buf, byte(e.Type))
	buf = wire.AppendVarint(buf, int64(e.Peer))
	buf = wire.AppendInts(buf, e.MsgID)
	buf = wire.AppendUint32LE(buf, uint32(e.State))
	buf = wire.AppendFloat64LE(buf, e.Time)
	return wire.AppendInts(buf, e.VC...), nil
}

// EventRecordSize returns len(AppendEventRecord(nil, e)) for an event the
// encoder accepts, without encoding it: the kind byte and the two fixed-width
// fields are 13 bytes, the rest are varints.
func EventRecordSize(e *Event) int {
	return 13 + wire.IntsLen(e.Proc, e.MsgID) + wire.VarintLen(int64(e.Peer)) + wire.IntsLen(e.VC...)
}

// DecodeEventInto reads one event record off c into e, for a space of len(vc)
// processes, with vc as the clock's storage: DecodeEventRecord passes fresh
// storage, a segment decoder a slice of its slab. An unknown kind or a process
// outside the space fails c like any truncation. The event is not validated
// against any stream order (the caller's validator does that).
func DecodeEventInto(c *wire.Cursor, e *Event, vc []int) {
	e.Proc = c.Int()
	e.Type = EventType(c.Byte())
	e.Peer = int(c.Varint())
	e.MsgID = c.Int()
	e.State = LocalState(c.Uint32LE())
	e.Time = c.Float64LE()
	c.Ints(vc)
	switch {
	case c.Err() != nil:
	case e.Type > Recv:
		c.Failf("unknown event type %d", int(e.Type))
	case e.Proc >= len(vc):
		c.Failf("event of nonexistent process %d", e.Proc)
	default:
		e.VC, e.SN = vc, vc[e.Proc]
	}
}

// DecodeEventRecord parses one event record standing alone in buf, for an
// n-process space: what DecodeEventRun does for a run of one, for callers that
// frame every record (the ".dmtb" reader). The returned event owns its vector
// clock.
func DecodeEventRecord(buf []byte, n int) (*Event, error) {
	c := wire.NewCursor(buf)
	e := new(Event)
	DecodeEventInto(&c, e, make(vclock.VC, n))
	if err := c.Done("event record"); err != nil {
		return nil, err
	}
	return e, nil
}

// EventSlab caps the events that share one allocation when a run of records
// is decoded: one []Event and one clock array per EventSlab events.
//
// Lifetime argument. Nothing decoded is pooled or reused: a monitor keeps an
// event for as long as some view may still need it, and an event decoded into
// a slab keeps the whole slab alive. A slab is freed when the last of its
// events is collected. For a segment — contiguous events of one process: a
// fetch reply, a token's segment, a snapshot's knowledge window — that delays
// little: the knowledge store holds each process as one contiguous window and
// truncation only ever drops a prefix of it, so a slab's events leave in order
// and the slab dies whole, at most EventSlab-1 events after its first event
// would have alone. An Ingest run mixes processes, so its slab lives until the
// slowest of them has collected its share. The cap is what bounds the waste:
// a decoded segment overlaps what the store already holds (a returning token
// re-carries events its parent has learnt meanwhile, and on multi-view
// properties merge drops most of what a token brings back), and a
// segment-long slab pins that dead part until its live tail is collected
// (dlmond, when measured: +7% peak RSS, -8% events/s against no slabs). At 32
// a slab is a small object and the waste under one slab per segment. (Fetch
// replies hardly overlap: a second fetch to a peer leaves only for a wider
// range than the one in flight, and on the benchmark's stream execution merge
// drops not one fetched event.)
const EventSlab = 32

// DecodeEvents is the one slab-filling loop: it reads event records of an
// n-process space off c and appends them to dst — count of them, or, when
// count is negative, a run that ends where c's bytes do (at least one record),
// appending to ends c's offset after each record. Each slab is sized by what
// is left to read: the records still counted, or the most records the
// remaining bytes can hold, so decoding costs two allocations per slab (and
// at most one to make room in dst for a count) whatever a count or a length
// claims. A caller checks a count against MinEventRecord+n bytes per record
// (wire.Cursor.Count) before passing it. On a malformed record c fails and
// decoding stops; dst and ends may then hold the records before it.
func DecodeEvents(c *wire.Cursor, dst []*Event, ends []int, count, n int) ([]*Event, []int) {
	if count > cap(dst)-len(dst) {
		dst = append(make([]*Event, 0, len(dst)+count), dst...)
	}
	var slab []Event
	var clocks []int
	for i := 0; i != count; i++ {
		if len(slab) == 0 {
			k := count - i
			if count < 0 {
				k = max(1, c.Len()/(MinEventRecord+n))
			}
			k = min(EventSlab, k)
			slab, clocks = make([]Event, k), make([]int, k*n)
		}
		DecodeEventInto(c, &slab[0], clocks[:n:n])
		if c.Err() != nil {
			break
		}
		dst, slab, clocks = append(dst, &slab[0]), slab[1:], clocks[n:]
		if count < 0 {
			if ends = append(ends, c.Off()); c.Len() == 0 {
				break
			}
		}
	}
	return dst, ends
}

// DecodeEventRun parses the run of one or more event records that fills buf —
// an Ingest frame's payload behind its session id — for an n-process space,
// and appends the events to dst and, to ends, the offset in buf at which each
// record ends: records i to j of the run are buf[ends[i-1]:ends[j]], which is
// how a window of the run is logged as the bytes it arrived in. The run has no
// count: a record is self-delimiting once n is known, and the run ends where
// buf does. One malformed record refuses the whole run, as does an empty buf;
// dst and ends then come back at their original lengths.
func DecodeEventRun(dst []*Event, ends []int, buf []byte, n int) ([]*Event, []int, error) {
	c := wire.NewCursor(buf)
	base, baseEnds := len(dst), len(ends)
	dst, ends = DecodeEvents(&c, dst, ends, -1, n)
	if err := c.Done("event run"); err != nil {
		return dst[:base], ends[:baseEnds], err
	}
	return dst, ends, nil
}

// Write appends one event record.
func (bw *BinaryWriter) Write(e *Event) error {
	buf, err := AppendEventRecord(bw.scratch[:0], e)
	if err != nil {
		return err
	}
	bw.scratch = buf // keep the (possibly grown) backing array
	var lenbuf [wire.MaxUvarintLen]byte
	if _, err := bw.bw.Write(wire.AppendUvarint(lenbuf[:0], uint64(len(buf)))); err != nil {
		return err
	}
	if _, err := bw.bw.Write(buf); err != nil {
		return err
	}
	bw.n++
	return nil
}

// Events returns the number of events written so far.
func (bw *BinaryWriter) Events() int { return bw.n }

// Flush writes any buffered records to the destination.
func (bw *BinaryWriter) Flush() error { return bw.bw.Flush() }

// Close flushes; the writer does not own its destination.
func (bw *BinaryWriter) Close() error { return bw.bw.Flush() }

// --- reader ---

// BinaryReader reads the ".dmtb" format with O(record) memory, validating
// incrementally as it goes. It implements EventSource.
type BinaryReader struct {
	pm      *PropMap
	init    GlobalState
	br      *bufio.Reader
	val     *streamValidator
	scratch []byte
	rec     int64 // records decoded, for error positions (header = 0)
	err     error
}

// binaryReadBuffer is the read buffer of a source that does not say how much
// it holds (a file, a socket).
const binaryReadBuffer = 1 << 16

// OpenBinaryStream parses the binary stream header from r and returns a
// reader positioned at the first event record. A source that reports what it
// has left (bytes.Reader, bytes.Buffer, strings.Reader) is buffered by that
// much and no more: a short in-memory trace does not pay for 64 KB to be read
// through.
func OpenBinaryStream(r io.Reader) (*BinaryReader, error) {
	size := binaryReadBuffer
	if sized, ok := r.(interface{ Len() int }); ok {
		size = min(size, max(sized.Len(), 512))
	}
	br := bufio.NewReaderSize(r, size)
	var magic [5]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("dist: binary stream is empty (missing header)")
		}
		return nil, fmt.Errorf("dist: reading binary stream header: %w", err)
	}
	if [4]byte(magic[:4]) != binaryMagic {
		return nil, fmt.Errorf("dist: not a binary trace stream (bad magic %q)", magic[:4])
	}
	if magic[4] != binaryVersion {
		return nil, fmt.Errorf("dist: unsupported binary stream version %d (want %d)", magic[4], binaryVersion)
	}
	n, err := readHeaderUvarint(br, "process count")
	if err == nil {
		err = spaceCount(n, "processes")
	}
	if err != nil {
		return nil, err
	}
	words := make([]byte, 4*n)
	if _, err := io.ReadFull(br, words); err != nil {
		return nil, fmt.Errorf("dist: reading binary stream header initial states: %w", noEOF(err))
	}
	init := make(GlobalState, n)
	for p, c := 0, wire.NewCursor(words); p < len(init); p++ {
		init[p] = LocalState(c.Uint32LE())
	}
	nprops, err := readHeaderUvarint(br, "proposition count")
	if err == nil {
		err = spaceCount(nprops, "propositions")
	}
	if err != nil {
		return nil, err
	}
	pm := NewPropMap()
	name := words // done with; most names fit
	for k := 0; k < int(nprops); k++ {
		owner, err := readHeaderUvarint(br, "proposition owner")
		if err != nil {
			return nil, err
		}
		// A name is length-prefixed like a record, and bounded like one.
		if name, _, err = wire.ReadFrame(br, name[:0], maxBinaryRecord); err != nil {
			return nil, fmt.Errorf("dist: reading binary stream header proposition name: %w", noEOF(err))
		}
		if err := pm.addOwned(string(name), owner, len(init)); err != nil {
			return nil, err
		}
	}
	return &BinaryReader{
		pm: pm, init: init, br: br,
		val:     newStreamValidator(len(init)),
		scratch: make([]byte, 0, 256),
	}, nil
}

// readHeaderUvarint decodes one header varint, treating any EOF as a
// truncated header.
func readHeaderUvarint(br *bufio.Reader, what string) (uint64, error) {
	x, err := wire.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("dist: reading binary stream header %s: %w", what, noEOF(err))
	}
	return x, nil
}

// noEOF maps io.EOF to io.ErrUnexpectedEOF: inside a header or record, the
// stream ending is truncation, not a clean end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Props returns the stream's proposition space.
func (r *BinaryReader) Props() *PropMap { return r.pm }

// N returns the number of processes.
func (r *BinaryReader) N() int { return len(r.init) }

// Init returns the initial global state.
func (r *BinaryReader) Init() GlobalState { return r.init }

// Events returns the number of events successfully read so far.
func (r *BinaryReader) Events() int64 { return r.val.delivered }

// Close releases nothing: the reader does not own its source. StreamFile
// wraps it so the file closes with the source.
func (r *BinaryReader) Close() error { return nil }

// Next decodes and validates the next event record. It returns io.EOF at the
// end of a well-formed stream; a stream truncated mid-record is an error.
func (r *BinaryReader) Next() (*Event, error) {
	if r.err != nil {
		return nil, r.err
	}
	e, err := r.next()
	if err != nil {
		if err != io.EOF {
			err = fmt.Errorf("dist: binary stream record %d: %w", r.rec+1, err)
		}
		r.err = err
		return nil, err
	}
	r.rec++
	return e, nil
}

func (r *BinaryReader) next() (*Event, error) {
	buf, scratch, err := wire.ReadFrame(r.br, r.scratch, maxBinaryRecord)
	r.scratch = scratch
	if err != nil {
		return nil, err
	}
	e, err := DecodeEventRecord(buf, len(r.init))
	if err != nil {
		return nil, err
	}
	if err := r.val.check(e); err != nil {
		return nil, err
	}
	return e, nil
}
