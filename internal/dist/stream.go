package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"decentmon/internal/vclock"
)

// Streaming trace format (".jsonl"): the line-oriented sibling of the
// materialized JSON trace format (see the package comment). The first line is
// a header carrying the proposition space and the initial local state of each
// process; every following line is one event, in global timestamp order:
//
//	{"v":1,"props":[{"name":"P0.p","owner":0},...],"init":[1,0]}
//	{"proc":0,"sn":1,"type":"internal","peer":-1,"msgid":0,"state":3,"vc":[1,0],"time":2.84}
//	{"proc":1,"sn":1,"type":"recv","peer":0,"msgid":1,"state":0,"vc":[1,1],"time":2.9}
//	...
//
// Because the event order is a linearization of the happened-before order, a
// reader can validate the stream incrementally — contiguous sequence numbers,
// monotone clocks and timestamps, causal send/recv pairing — while holding
// only O(n² + in-flight messages) state, independent of trace length.

// streamVersion is the header "v" field writers emit and readers accept.
const streamVersion = 1

// jsonlCodec is the Codec for the ".jsonl" format.
type jsonlCodec struct{}

func (jsonlCodec) Name() string { return "jsonl" }
func (jsonlCodec) Ext() string  { return ".jsonl" }

func (jsonlCodec) Open(r io.Reader) (EventSource, error) {
	return OpenStream(r)
}

func (jsonlCodec) Create(w io.Writer, pm *PropMap, init GlobalState) (StreamSink, error) {
	return NewStreamWriter(w, pm, init)
}

type jsonStreamHeader struct {
	Version int        `json:"v"`
	Props   []jsonProp `json:"props"`
	Init    []uint32   `json:"init"`
}

type jsonStreamEvent struct {
	Proc int `json:"proc"`
	jsonEvent
}

// EventSource is an iterator over the events of one distributed execution in
// global timestamp order. Next returns io.EOF after the last event. The
// header accessors (Props, N, Init) are valid immediately, before any event
// has been consumed, so monitors can be constructed up front.
type EventSource interface {
	// Props is the proposition space the stream's states are expressed in.
	Props() *PropMap
	// N is the number of processes.
	N() int
	// Init is the initial global state (callers must not mutate it).
	Init() GlobalState
	// Next yields the next event in global timestamp order, or io.EOF.
	Next() (*Event, error)
	// Close releases the underlying resources.
	Close() error
}

// --- streaming writer ---

// StreamWriter writes the streaming (".jsonl") trace format incrementally:
// the header at construction, then one line per Write, in the order given.
// It buffers internally; call Flush (or Close) when done.
type StreamWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
	n   int
}

// NewStreamWriter writes the stream header and returns a writer for the
// event lines. Events must be passed to Write in global timestamp order.
func NewStreamWriter(w io.Writer, pm *PropMap, init GlobalState) (*StreamWriter, error) {
	if pm == nil {
		return nil, fmt.Errorf("dist: stream writer needs a proposition map")
	}
	hdr := jsonStreamHeader{Version: streamVersion}
	for i, name := range pm.Names {
		hdr.Props = append(hdr.Props, jsonProp{Name: name, Owner: pm.Owner[i]})
	}
	for _, s := range init {
		hdr.Init = append(hdr.Init, uint32(s))
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(&hdr); err != nil {
		return nil, fmt.Errorf("dist: encoding stream header: %w", err)
	}
	return &StreamWriter{bw: bw, enc: enc}, nil
}

// Write appends one event line.
func (sw *StreamWriter) Write(e *Event) error {
	tn, err := eventTypeName(e.Type)
	if err != nil {
		return err
	}
	sw.n++
	return sw.enc.Encode(&jsonStreamEvent{Proc: e.Proc, jsonEvent: jsonEvent{
		SN: e.SN, Type: tn, Peer: e.Peer, MsgID: e.MsgID,
		State: uint32(e.State), VC: []int(e.VC), Time: e.Time,
	}})
}

// Events returns the number of events written so far.
func (sw *StreamWriter) Events() int { return sw.n }

// Flush writes any buffered lines to the destination.
func (sw *StreamWriter) Flush() error { return sw.bw.Flush() }

// Close flushes; the writer does not own its destination. CreateStream
// wraps it so the file closes with the sink.
func (sw *StreamWriter) Close() error { return sw.bw.Flush() }

// WriteJSONL renders the trace set in the ".jsonl" streaming format: the
// header line followed by every event in global timestamp order. The set is
// validated first, like SaveFile, including the linearizability requirement
// below. WriteStream is the codec-generic equivalent.
func (ts *TraceSet) WriteJSONL(w io.Writer) error {
	return ts.WriteStream(jsonlCodec{}, w)
}

// checkLinearizable verifies that the timestamp order (the order writeJSONL
// emits) is a linearization of the happened-before order, which the
// streaming readers require: no event may causally depend on an event that
// the time merge emits later. Validate alone permits such sets — physical
// times and vector clocks are independent there — so writers check this
// separately before producing a stream no reader would accept.
func (ts *TraceSet) checkLinearizable() error {
	n := ts.N()
	counts := make([]int, n)
	src := ts.Stream()
	for {
		e, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if e.Time < 0 {
			return fmt.Errorf("dist: process %d event %d has negative timestamp %v", e.Proc, e.SN, e.Time)
		}
		for j := 0; j < n; j++ {
			if j != e.Proc && e.VC[j] > counts[j] {
				return fmt.Errorf("dist: timestamp order is not a linearization: process %d event %d depends on event %d of process %d, which has a later timestamp",
					e.Proc, e.SN, e.VC[j], j)
			}
		}
		counts[e.Proc] = e.SN
	}
}

// --- streaming reader ---

// TraceReader reads the streaming trace format with O(chunk) memory,
// validating incrementally as it goes. It implements EventSource.
type TraceReader struct {
	pm   *PropMap
	init GlobalState
	dec  *json.Decoder
	val  *streamValidator
	line int // 1-based line of the last decoded value (header = 1)
	err  error
}

// OpenStream parses the stream header from r and returns a reader positioned
// at the first event. Events are validated as they are read.
func OpenStream(r io.Reader) (*TraceReader, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var hdr jsonStreamHeader
	if err := dec.Decode(&hdr); err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("dist: stream is empty (missing header)")
		}
		return nil, fmt.Errorf("dist: decoding stream header: %w", err)
	}
	if hdr.Version != streamVersion {
		return nil, fmt.Errorf("dist: unsupported stream version %d (want %d)", hdr.Version, streamVersion)
	}
	n := len(hdr.Init)
	pm := NewPropMap()
	for _, p := range hdr.Props {
		if err := pm.addOwned(p.Name, uint64(p.Owner), n); err != nil {
			return nil, err
		}
	}
	init := make(GlobalState, n)
	for p, s := range hdr.Init {
		init[p] = LocalState(s)
	}
	return &TraceReader{
		pm: pm, init: init, dec: dec, line: 1,
		val: newStreamValidator(n),
	}, nil
}

// Props returns the stream's proposition space.
func (tr *TraceReader) Props() *PropMap { return tr.pm }

// N returns the number of processes.
func (tr *TraceReader) N() int { return len(tr.init) }

// Init returns the initial global state.
func (tr *TraceReader) Init() GlobalState { return tr.init }

// Events returns the number of events successfully read so far.
func (tr *TraceReader) Events() int64 { return tr.val.delivered }

// Next decodes and validates the next event line. It returns io.EOF at the
// end of a well-formed stream; a stream truncated mid-line is an error.
func (tr *TraceReader) Next() (*Event, error) {
	if tr.err != nil {
		return nil, tr.err
	}
	var je jsonStreamEvent
	if err := tr.dec.Decode(&je); err != nil {
		if err == io.EOF {
			tr.err = io.EOF
			return nil, io.EOF
		}
		// io.ErrUnexpectedEOF here means the file ends mid-value: a
		// truncated chunk, not a clean end of stream.
		tr.err = fmt.Errorf("dist: stream line %d: %w", tr.line+1, err)
		return nil, tr.err
	}
	tr.line++
	et, err := eventTypeFromName(je.Type)
	if err != nil {
		tr.err = fmt.Errorf("dist: stream line %d: %w", tr.line, err)
		return nil, tr.err
	}
	e := &Event{
		Proc: je.Proc, SN: je.SN, Type: et, Peer: je.Peer, MsgID: je.MsgID,
		State: LocalState(je.State), VC: vclock.VC(je.VC), Time: je.Time,
	}
	if err := tr.val.check(e); err != nil {
		tr.err = fmt.Errorf("dist: stream line %d: %w", tr.line, err)
		return nil, tr.err
	}
	return e, nil
}

// Close releases nothing: the reader does not own its source. StreamFile
// wraps it so the file closes with the source.
func (tr *TraceReader) Close() error { return nil }

// streamValidator is the incremental counterpart of (*TraceSet).Validate: it
// enforces, event by event, that the stream is a timestamp-ordered
// linearization of a well-formed computation. Its state is O(n²) plus one
// record per in-flight message (sent but not yet received) plus an interval
// set over the delivered message ids — one interval total for the
// consecutive ids every writer in this repository emits — independent of
// how many events have passed through.
type streamValidator struct {
	n        int
	counts   []int       // events seen per process
	prevVC   []vclock.VC // last clock seen per process
	prevTime float64
	// perProcTime relaxes the global timestamp-order check to per-process
	// monotonicity (prevTimes): a live session's handles stamp wall-clock
	// times concurrently, so the *feed* order interleaves timestamps of
	// different processes arbitrarily while every causal check still
	// applies. Stream codecs keep the strict global ordering.
	perProcTime bool
	prevTimes   []float64
	inflight    map[int]streamSend // msgID -> pending send
	used        intervalSet        // msgIDs of messages already delivered
	delivered   int64
}

type streamSend struct {
	proc, dest int
	vc         vclock.VC
}

func newStreamValidator(n int) *streamValidator {
	v := &streamValidator{
		n:        n,
		counts:   make([]int, n),
		prevVC:   make([]vclock.VC, n),
		inflight: map[int]streamSend{},
		prevTime: 0,
	}
	for p := 0; p < n; p++ {
		v.prevVC[p] = vclock.New(n)
	}
	return v
}

func (v *streamValidator) check(e *Event) error {
	p := e.Proc
	if p < 0 || p >= v.n {
		return fmt.Errorf("event of nonexistent process %d", p)
	}
	if e.SN != v.counts[p]+1 {
		return fmt.Errorf("process %d event out of order: sn %d after %d", p, e.SN, v.counts[p])
	}
	if len(e.VC) != v.n {
		return fmt.Errorf("process %d event %d has a %d-entry clock, want %d", p, e.SN, len(e.VC), v.n)
	}
	if e.VC[p] != e.SN {
		return fmt.Errorf("process %d event %d clock %v disagrees with its sequence number", p, e.SN, e.VC)
	}
	if !v.prevVC[p].LessEq(e.VC) {
		return fmt.Errorf("process %d event %d clock %v not monotone after %v", p, e.SN, e.VC, v.prevVC[p])
	}
	// Timestamp order + causal delivery: an event may only reference peer
	// events that already appeared earlier in the stream. NaN is rejected
	// explicitly — NaN comparisons are all false, so one NaN timestamp
	// (representable in the binary codec) would otherwise poison prevTime
	// and disable the ordering check for the rest of the stream.
	if math.IsNaN(e.Time) {
		return fmt.Errorf("process %d event %d has a NaN timestamp", p, e.SN)
	}
	if v.perProcTime {
		if e.Time < v.prevTimes[p] {
			return fmt.Errorf("process %d event %d timestamp %v precedes its predecessor's %v", p, e.SN, e.Time, v.prevTimes[p])
		}
	} else if e.Time < v.prevTime {
		return fmt.Errorf("process %d event %d timestamp %v out of order (stream at %v)", p, e.SN, e.Time, v.prevTime)
	}
	for j := 0; j < v.n; j++ {
		if j == p {
			continue
		}
		if e.VC[j] > v.counts[j] {
			return fmt.Errorf("process %d event %d clock %v references event %d of process %d not yet streamed",
				p, e.SN, e.VC, e.VC[j], j)
		}
	}
	switch e.Type {
	case Internal:
		// nothing more to check
	case Send:
		if e.Peer < 0 || e.Peer >= v.n || e.Peer == p {
			return fmt.Errorf("process %d event %d sends to invalid process %d", p, e.SN, e.Peer)
		}
		if _, dup := v.inflight[e.MsgID]; dup {
			return fmt.Errorf("process %d event %d reuses in-flight message id %d", p, e.SN, e.MsgID)
		}
		if v.used.contains(e.MsgID) {
			return fmt.Errorf("process %d event %d reuses message id %d", p, e.SN, e.MsgID)
		}
		v.inflight[e.MsgID] = streamSend{proc: p, dest: e.Peer, vc: e.VC}
	case Recv:
		s, ok := v.inflight[e.MsgID]
		if !ok {
			return fmt.Errorf("process %d event %d receives message %d never sent", p, e.SN, e.MsgID)
		}
		if s.proc != e.Peer {
			return fmt.Errorf("process %d event %d names sender %d, message %d was sent by %d", p, e.SN, e.Peer, e.MsgID, s.proc)
		}
		if s.dest != p {
			return fmt.Errorf("process %d event %d consumes message %d addressed to process %d", p, e.SN, e.MsgID, s.dest)
		}
		if !s.vc.LessEq(e.VC) {
			return fmt.Errorf("process %d event %d clock %v does not dominate its send's clock %v", p, e.SN, e.VC, s.vc)
		}
		delete(v.inflight, e.MsgID)
		v.used.add(e.MsgID)
	default:
		return fmt.Errorf("process %d event %d has unknown type %d", p, e.SN, int(e.Type))
	}
	v.counts[p] = e.SN
	v.prevVC[p] = e.VC
	if v.perProcTime {
		v.prevTimes[p] = e.Time
	} else {
		v.prevTime = e.Time
	}
	v.delivered++
	return nil
}

// Validator is the exported incremental trace validator: the same machinery
// the streaming codecs run on every decoded event, reusable at other trust
// boundaries (decentmon.WithValidation applies it to a live session's feed).
// Its state is O(n²) plus one record per in-flight message, independent of
// how many events have passed.
type Validator struct{ v *streamValidator }

// NewValidator returns a validator enforcing the full streaming contract:
// a globally timestamp-ordered linearization of a well-formed computation
// (contiguous sequence numbers, monotone clocks, causal delivery, paired
// sends and receives, no message-id reuse).
func NewValidator(n int) *Validator {
	return &Validator{v: newStreamValidator(n)}
}

// NewSessionValidator returns a validator for live-session feeds: identical
// to NewValidator except that timestamps are only required to be monotone
// per process — concurrent handles stamp wall-clock times, so the feed
// order interleaves processes' timestamps arbitrarily. Every causal check
// (receives after their sends, clocks never referencing unseen events)
// still applies, which is what catches mis-wired or replayed Recv tokens
// and out-of-order handle use.
func NewSessionValidator(n int) *Validator {
	v := newStreamValidator(n)
	v.perProcTime = true
	v.prevTimes = make([]float64, n)
	return &Validator{v: v}
}

// Check validates one event against everything seen so far; on error the
// event is rejected and the validator state is unchanged. Not safe for
// concurrent use — callers serialize (the session option wraps it in its
// feed path).
func (va *Validator) Check(e *Event) error {
	if e == nil {
		return fmt.Errorf("dist: validating a nil event")
	}
	return va.v.check(e)
}

// CheckToken verifies that process p could consume the message token right
// now: the message is in flight from its claimed sender to p, and the
// token's clock references only events already validated. Sessions run this
// *before* stamping a Recv — a Stamper merges the token's clock into the
// process's own irreversibly, so a forged token must be rejected while the
// stamper is still untouched. Read-only; same serialization rule as Check.
func (va *Validator) CheckToken(p int, tok MsgToken) error {
	v := va.v
	if p < 0 || p >= v.n {
		return fmt.Errorf("dist: token presented by nonexistent process %d", p)
	}
	s, ok := v.inflight[tok.ID]
	if !ok {
		if v.used.contains(tok.ID) {
			return fmt.Errorf("dist: process %d presents message %d already delivered", p, tok.ID)
		}
		return fmt.Errorf("dist: process %d presents message %d never sent", p, tok.ID)
	}
	if s.proc != tok.From {
		return fmt.Errorf("dist: token names sender %d, message %d was sent by %d", tok.From, tok.ID, s.proc)
	}
	if s.dest != p {
		return fmt.Errorf("dist: process %d consumes message %d addressed to process %d", p, tok.ID, s.dest)
	}
	if len(tok.VC) != v.n {
		return fmt.Errorf("dist: message %d token has a %d-entry clock, want %d", tok.ID, len(tok.VC), v.n)
	}
	for j, c := range tok.VC {
		if c > v.counts[j] {
			return fmt.Errorf("dist: message %d token clock %v references event %d of process %d not yet seen", tok.ID, tok.VC, c, j)
		}
	}
	return nil
}

// Events returns the number of events validated so far.
func (va *Validator) Events() int64 { return va.v.delivered }

// intervalSet stores a set of ints as sorted disjoint [lo, hi] ranges.
// Message ids are assigned consecutively by the generator, so delivered-id
// tracking collapses to a single interval; arbitrary id patterns still
// validate correctly, merely with one range per run of consecutive ids.
type intervalSet []struct{ lo, hi int }

func (s intervalSet) contains(x int) bool {
	lo, hi := 0, len(s)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		switch {
		case x < s[mid].lo:
			hi = mid - 1
		case x > s[mid].hi:
			lo = mid + 1
		default:
			return true
		}
	}
	return false
}

// add inserts x (assumed absent), merging with adjacent ranges.
func (s *intervalSet) add(x int) {
	rs := *s
	i := 0
	for i < len(rs) && rs[i].hi < x-1 {
		i++
	}
	touchLeft := i < len(rs) && rs[i].hi == x-1
	touchRight := i+1 <= len(rs)-1 && rs[i+1].lo == x+1
	switch {
	case i < len(rs) && rs[i].lo == x+1:
		rs[i].lo = x
	case touchLeft && touchRight:
		rs[i].hi = rs[i+1].hi
		*s = append(rs[:i+1], rs[i+2:]...)
		return
	case touchLeft:
		rs[i].hi = x
	default:
		rs = append(rs, struct{ lo, hi int }{})
		copy(rs[i+1:], rs[i:])
		rs[i] = struct{ lo, hi int }{x, x}
		*s = rs
		return
	}
	*s = rs
}

// --- materialized sets as streams ---

// setSource iterates a materialized TraceSet in global timestamp order
// (per-process order preserved; ties broken by process index). It is the
// merge order the centralized monitor has always consumed.
type setSource struct {
	ts  *TraceSet
	idx []int
}

// Stream returns an EventSource over the (already materialized) trace set.
// The set is not re-validated; use LoadFile/ReadJSON to obtain validated
// sets.
func (ts *TraceSet) Stream() EventSource {
	return &setSource{ts: ts, idx: make([]int, ts.N())}
}

func (s *setSource) Props() *PropMap   { return s.ts.Props }
func (s *setSource) N() int            { return s.ts.N() }
func (s *setSource) Init() GlobalState { return s.ts.InitialState() }
func (s *setSource) Close() error      { return nil }

func (s *setSource) Next() (*Event, error) {
	best, bestTime := -1, 0.0
	for p, tr := range s.ts.Traces {
		if s.idx[p] >= len(tr.Events) {
			continue
		}
		et := tr.Events[s.idx[p]].Time
		if best == -1 || et < bestTime {
			best, bestTime = p, et
		}
	}
	if best == -1 {
		return nil, io.EOF
	}
	e := s.ts.Traces[best].Events[s.idx[best]]
	s.idx[best]++
	return e, nil
}

// Materialize drains an event source into a validated TraceSet. It is the
// bridge from the streaming format back to the materialized tooling (the
// oracle, the lattice explorer); its memory is proportional to the trace.
func Materialize(src EventSource) (*TraceSet, error) {
	ts := &TraceSet{Props: src.Props()}
	init := src.Init()
	for p := 0; p < src.N(); p++ {
		ts.Traces = append(ts.Traces, &Trace{Proc: p, Init: init[p]})
	}
	for {
		e, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		ts.Traces[e.Proc].Events = append(ts.Traces[e.Proc].Events, e)
	}
	// A codec reader has already validated every event incrementally (its
	// causal-delivery checks subsume Validate's clock-bound ones), so only
	// unvalidated sources pay the second pass.
	inner := src
	if o, ok := inner.(*ownedSource); ok {
		inner = o.EventSource
	}
	if _, streamed := inner.(validatedSource); !streamed {
		if err := ts.Validate(); err != nil {
			return nil, err
		}
	}
	return ts, nil
}

// validatedSource marks event sources that validate incrementally as they
// decode; Materialize skips the whole-set re-validation for them.
type validatedSource interface{ streamValidated() }

func (tr *TraceReader) streamValidated() {}
func (r *BinaryReader) streamValidated() {}
