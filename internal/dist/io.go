package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"decentmon/internal/vclock"
)

// Wire form of the JSON trace format documented in the package comment.

type jsonProp struct {
	Name  string `json:"name"`
	Owner int    `json:"owner"`
}

type jsonEvent struct {
	SN    int     `json:"sn"`
	Type  string  `json:"type"`
	Peer  int     `json:"peer"`
	MsgID int     `json:"msgid"`
	State uint32  `json:"state"`
	VC    []int   `json:"vc"`
	Time  float64 `json:"time"`
}

type jsonTrace struct {
	Proc   int         `json:"proc"`
	Init   uint32      `json:"init"`
	Events []jsonEvent `json:"events"`
}

type jsonTraceSet struct {
	Props  []jsonProp  `json:"props"`
	Traces []jsonTrace `json:"traces"`
}

func eventTypeName(t EventType) (string, error) {
	switch t {
	case Internal, Send, Recv:
		return t.String(), nil
	}
	return "", fmt.Errorf("dist: unknown event type %d", int(t))
}

func eventTypeFromName(s string) (EventType, error) {
	switch s {
	case "internal":
		return Internal, nil
	case "send":
		return Send, nil
	case "recv":
		return Recv, nil
	}
	return 0, fmt.Errorf("dist: unknown event type %q", s)
}

func (ts *TraceSet) wire() (*jsonTraceSet, error) {
	w := &jsonTraceSet{}
	for i, name := range ts.Props.Names {
		w.Props = append(w.Props, jsonProp{Name: name, Owner: ts.Props.Owner[i]})
	}
	for _, tr := range ts.Traces {
		jt := jsonTrace{Proc: tr.Proc, Init: uint32(tr.Init)}
		for _, e := range tr.Events {
			tn, err := eventTypeName(e.Type)
			if err != nil {
				return nil, err
			}
			jt.Events = append(jt.Events, jsonEvent{
				SN: e.SN, Type: tn, Peer: e.Peer, MsgID: e.MsgID,
				State: uint32(e.State), VC: append([]int(nil), e.VC...), Time: e.Time,
			})
		}
		w.Traces = append(w.Traces, jt)
	}
	return w, nil
}

func fromWire(w *jsonTraceSet) (*TraceSet, error) {
	pm := NewPropMap()
	for _, p := range w.Props {
		if err := pm.Add(p.Name, p.Owner); err != nil {
			return nil, err
		}
	}
	ts := &TraceSet{Props: pm}
	for _, jt := range w.Traces {
		tr := &Trace{Proc: jt.Proc, Init: LocalState(jt.Init)}
		for _, je := range jt.Events {
			et, err := eventTypeFromName(je.Type)
			if err != nil {
				return nil, err
			}
			tr.Events = append(tr.Events, &Event{
				Proc: jt.Proc, SN: je.SN, Type: et, Peer: je.Peer, MsgID: je.MsgID,
				State: LocalState(je.State), VC: vclock.VC(append([]int(nil), je.VC...)), Time: je.Time,
			})
		}
		ts.Traces = append(ts.Traces, tr)
	}
	return ts, nil
}

func writeWireJSON(w io.Writer, wire *jsonTraceSet) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(wire)
}

// WriteJSON renders the trace set in the JSON trace format.
func (ts *TraceSet) WriteJSON(w io.Writer) error {
	wire, err := ts.wire()
	if err != nil {
		return err
	}
	return writeWireJSON(w, wire)
}

// ReadJSON parses a trace set from the JSON trace format and validates it.
func ReadJSON(r io.Reader) (*TraceSet, error) {
	var wire jsonTraceSet
	if err := json.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("dist: decoding trace JSON: %w", err)
	}
	ts, err := fromWire(&wire)
	if err != nil {
		return nil, err
	}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	return ts, nil
}

// SaveFile writes the trace set to path: a streaming codec for its extension
// (".jsonl", ".dmtb"; see codec.go), the JSON trace format otherwise.
func (ts *TraceSet) SaveFile(path string) error {
	// Validate and serialize before touching the destination so a bad trace
	// set cannot truncate an existing good file.
	if err := ts.Validate(); err != nil {
		return err
	}
	if codec, ok := CodecForPath(path); ok {
		// Like the wire-form serialization below, prove the set streamable
		// before touching the destination.
		if err := ts.checkLinearizable(); err != nil {
			return err
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		// The set was already validated above.
		if err := ts.writeStream(codec, f); err != nil {
			return fmt.Errorf("dist: encoding %s: %w", path, err)
		}
		return f.Close()
	}
	wire, err := ts.wire()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := writeWireJSON(f, wire); err != nil {
		return fmt.Errorf("dist: encoding %s: %w", path, err)
	}
	return f.Close()
}

// LoadFile reads a trace set saved by SaveFile (or WriteJSON), validating it.
func LoadFile(path string) (*TraceSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ts *TraceSet
	if codec, ok := CodecForPath(path); ok {
		var src EventSource
		if src, err = codec.Open(f); err == nil {
			ts, err = Materialize(src)
		}
	} else {
		ts, err = ReadJSON(f)
	}
	if err != nil {
		// The inner error already carries the "dist:" prefix; add the path.
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ts, nil
}
