package dist

import (
	"fmt"
	"io"
	"os"
)

// Trace files: every file is one codec stream, its codec chosen by
// CodecForPath, so whatever SaveFile or CreateStream writes at a path,
// LoadFile and StreamFile read back at the same path.

// SaveFile writes the trace set to path in the codec its extension selects.
// The set is validated before the destination is touched, so a set no reader
// would accept cannot truncate an existing good file.
func (ts *TraceSet) SaveFile(path string) error {
	if err := ts.Validate(); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := ts.writeStream(CodecForPath(path), f); err != nil {
		return fmt.Errorf("dist: encoding %s: %w", path, err)
	}
	return f.Close()
}

// LoadFile reads a whole trace file into a trace set. The codec reader
// validates every event as it decodes, so the set is well-formed.
func LoadFile(path string) (*TraceSet, error) {
	src, err := StreamFile(path)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	ts, err := materialize(src)
	if err != nil {
		// The inner error already carries the "dist:" prefix; add the path.
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ts, nil
}

// StreamFile opens a trace file as an event stream, read incrementally with
// memory independent of its length.
func StreamFile(path string) (EventSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	src, err := CodecForPath(path).Open(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &ownedSource{EventSource: src, c: f}, nil
}

// CreateStream creates path and returns a sink owning it, encoded by the
// codec its extension selects; Close flushes and closes the file.
func CreateStream(path string, pm *PropMap, init GlobalState) (StreamSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	sink, err := CodecForPath(path).Create(f, pm, init)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &ownedSink{StreamSink: sink, c: f}, nil
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

// materialize drains a codec source into a trace set, the bridge from a
// stream back to the materialized tooling (the oracle, the lattice
// explorer); its memory is proportional to the trace. The reader has already
// validated every event, so the set needs no second pass.
func materialize(src EventSource) (*TraceSet, error) {
	ts := &TraceSet{Props: src.Props()}
	init := src.Init()
	for p := 0; p < src.N(); p++ {
		ts.Traces = append(ts.Traces, &Trace{Proc: p, Init: init[p]})
	}
	for {
		e, err := src.Next()
		if err == io.EOF {
			return ts, nil
		}
		if err != nil {
			return nil, err
		}
		ts.Traces[e.Proc].Events = append(ts.Traces[e.Proc].Events, e)
	}
}
