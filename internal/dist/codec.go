package dist

import (
	"io"
	"path/filepath"
	"strings"
)

// A Codec is one on-disk serialization of the trace stream: a header
// carrying the proposition space and the initial global state, followed by
// the events of the execution in global timestamp order. Both ends are
// incremental — a codec's reader and writer hold memory independent of trace
// length — and every reader validates the stream as it decodes (contiguous
// sequence numbers, monotone clocks and timestamps, causal send/recv pairing)
// via the shared incremental validator.
//
// There are two codecs: JSON lines (stream.go) and the length-prefixed
// binary ".dmtb" (binary.go, roughly an order of magnitude faster to decode).
// CodecForPath is the one rule choosing between them.
type Codec interface {
	// Name is the codec's short name ("jsonl" or "dmtb").
	Name() string
	// Ext is the codec's canonical file extension, including the leading dot.
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

// CodecForPath returns the codec every reader and writer of path uses: the
// binary codec for a ".dmtb" extension (in any case), JSON lines for every
// other path.
func CodecForPath(path string) Codec {
	if strings.EqualFold(filepath.Ext(path), binaryCodec{}.Ext()) {
		return binaryCodec{}
	}
	return jsonlCodec{}
}

// WriteStream renders the trace set through the given codec: the header
// followed by every event in global timestamp order. The set is validated
// first, so no writer emits a stream a reader would refuse.
func (ts *TraceSet) WriteStream(codec Codec, w io.Writer) error {
	if err := ts.Validate(); err != nil {
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
