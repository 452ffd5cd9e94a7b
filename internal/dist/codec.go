package dist

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// A Codec is one on-disk serialization of the streaming trace format: a
// header carrying the proposition space and the initial global state,
// followed by the events of the execution in global timestamp order. Both
// ends are incremental — a codec's reader and writer hold memory independent
// of trace length — and every reader validates the stream as it decodes
// (contiguous sequence numbers, monotone clocks and timestamps, causal
// send/recv pairing) via the shared incremental validator.
//
// Two codecs are registered: "jsonl" (the line-oriented JSON format of
// stream.go) and "dmtb" (the length-prefixed binary format of binary.go,
// roughly an order of magnitude faster to decode).
type Codec interface {
	// Name is the codec's short name, usable as a CLI -format value.
	Name() string
	// Ext is the codec's file extension, including the leading dot.
	Ext() string
	// Open parses the stream header from r and returns an event source
	// positioned at the first event. The source validates incrementally;
	// it does not own r (closing the source does not close r).
	Open(r io.Reader) (EventSource, error)
	// Create writes the stream header to w and returns a sink for the
	// events, which must be appended in global timestamp order. The sink
	// buffers internally; Flush (or Close) completes the stream.
	Create(w io.Writer, pm *PropMap, init GlobalState) (StreamSink, error)
}

// StreamSink consumes the events of one execution in global timestamp order.
// It is the writer-side dual of EventSource.
type StreamSink interface {
	// Write appends one event record.
	Write(e *Event) error
	// Events returns the number of events written so far.
	Events() int
	// Flush writes any buffered records to the destination.
	Flush() error
	// Close flushes and, if the sink owns its destination, closes it.
	Close() error
}

// codecs is the registry, in presentation order.
var codecs = []Codec{jsonlCodec{}, binaryCodec{}}

// Codecs returns the registered streaming codecs.
func Codecs() []Codec { return append([]Codec(nil), codecs...) }

// CodecNames returns the registered codec names, for CLI help strings.
func CodecNames() []string {
	names := make([]string, len(codecs))
	for i, c := range codecs {
		names[i] = c.Name()
	}
	return names
}

// CodecByName returns the codec with the given name (case-insensitive).
func CodecByName(name string) (Codec, error) {
	for _, c := range codecs {
		if strings.EqualFold(c.Name(), name) {
			return c, nil
		}
	}
	return nil, fmt.Errorf("dist: unknown codec %q (have %s)", name, strings.Join(CodecNames(), ", "))
}

// CodecForPath returns the codec whose extension matches path, or false when
// the path names a materialized (non-streaming) format.
func CodecForPath(path string) (Codec, bool) {
	ext := filepath.Ext(path)
	for _, c := range codecs {
		if strings.EqualFold(c.Ext(), ext) {
			return c, true
		}
	}
	return nil, false
}

// IsStreamingPath reports whether path names a format that is read and
// written incrementally. The materialized ".json" format still works behind
// StreamFile, but is loaded whole first.
func IsStreamingPath(path string) bool {
	_, ok := CodecForPath(path)
	return ok
}

// ownedSource wraps an event source with the file it was opened from, so
// Close releases both.
type ownedSource struct {
	EventSource
	c io.Closer
}

func (o *ownedSource) Close() error {
	err := o.EventSource.Close()
	if cerr := o.c.Close(); err == nil {
		err = cerr
	}
	return err
}

// ownedSink is the writer-side counterpart of ownedSource.
type ownedSink struct {
	StreamSink
	c io.Closer
}

func (o *ownedSink) Close() error {
	err := o.StreamSink.Close()
	if cerr := o.c.Close(); err == nil {
		err = cerr
	}
	return err
}

// StreamFile opens a trace file as an event stream. A streaming format
// (".jsonl", ".dmtb") is read incrementally with memory independent of its
// length; the materialized ".json" format is loaded whole and then iterated,
// so existing files keep working behind the same interface (IsStreamingPath
// distinguishes the two).
func StreamFile(path string) (EventSource, error) {
	codec, ok := CodecForPath(path)
	if !ok {
		ts, err := LoadFile(path)
		if err != nil {
			return nil, err
		}
		return ts.Stream(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	src, err := codec.Open(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &ownedSource{EventSource: src, c: f}, nil
}

// CreateStream creates path and returns a sink owning it, encoded by the
// codec matching the path's extension (".jsonl" when the extension matches
// no codec, preserving the pre-codec behavior); Close flushes and closes the
// file. Use CreateStreamCodec to force a codec regardless of extension.
func CreateStream(path string, pm *PropMap, init GlobalState) (StreamSink, error) {
	codec, ok := CodecForPath(path)
	if !ok {
		codec = jsonlCodec{}
	}
	return CreateStreamCodec(codec, path, pm, init)
}

// CreateStreamCodec creates path and returns a sink owning it, encoded by
// the given codec.
func CreateStreamCodec(codec Codec, path string, pm *PropMap, init GlobalState) (StreamSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	sink, err := codec.Create(f, pm, init)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &ownedSink{StreamSink: sink, c: f}, nil
}

// WriteStream renders the trace set through the given codec: the header
// followed by every event in global timestamp order. The set is validated
// first, like SaveFile, including the linearizability requirement the
// streaming readers impose.
func (ts *TraceSet) WriteStream(codec Codec, w io.Writer) error {
	if err := ts.Validate(); err != nil {
		return err
	}
	if err := ts.checkLinearizable(); err != nil {
		return err
	}
	return ts.writeStream(codec, w)
}

// writeStream is WriteStream without the validation pass, for callers that
// have already validated the set.
func (ts *TraceSet) writeStream(codec Codec, w io.Writer) error {
	sink, err := codec.Create(w, ts.Props, ts.InitialState())
	if err != nil {
		return err
	}
	src := ts.Stream()
	for {
		e, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := sink.Write(e); err != nil {
			return err
		}
	}
	return sink.Flush()
}
