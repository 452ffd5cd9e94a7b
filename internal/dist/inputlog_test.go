package dist

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"decentmon/internal/wire"
)

// sampleInputLog builds a log the way a live session does — a live tenant's
// stamped events as a run of one each, a generated stream as runs of a few
// events, an end mark — and returns its bytes with the offset each record
// begins at (the last entry is where the records end).
func sampleInputLog(t testing.TB) (data []byte, bounds []int) {
	t.Helper()
	data = AppendInputLogHeader(nil, InputLogHeader{SID: 300, Gen: 2})
	record := func(kind InputLogKind, payload []byte) {
		bounds = append(bounds, len(data))
		data = AppendInputLogRecord(data, kind, payload)
	}
	st := NewStamper(4)
	e, tok, err := st.Send(0, 1, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := st.Recv(1, tok, 1, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Event{e, recv} {
		rec, err := AppendEventRecord(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		record(LogRun, rec)
	}
	_, run, offs := genRun(t)
	for lo := 0; lo+7 < len(offs) && lo < 70; lo += 7 {
		record(LogRun, run[offs[lo]:offs[lo+7]])
	}
	record(LogEnd, wire.AppendInts(nil, 3))
	return data, append(bounds, len(data))
}

// TestInputLogPrefix: whatever follows the last whole record — nothing, half a
// record, zeros, a flipped bit, a length no frame may have — the reader
// returns the records before it and the offset they end at, and says nothing
// else: a torn tail is a value, not an error.
func TestInputLogPrefix(t *testing.T) {
	data, bounds := sampleInputLog(t)
	hdr, recs, end, err := ReadInputLog(data)
	if err != nil || hdr != (InputLogHeader{SID: 300, Gen: 2}) || len(recs) != len(bounds)-1 || end != len(data) {
		t.Fatalf("the whole log reads as %+v, %d records, end %d of %d (%v)", hdr, len(recs), end, len(data), err)
	}
	if recs[0].Kind != LogRun || recs[2].Kind != LogRun || recs[len(recs)-1].Kind != LogEnd {
		t.Errorf("kinds read back as %d, %d, …, %d", recs[0].Kind, recs[2].Kind, recs[len(recs)-1].Kind)
	}
	if evs, ends, err := DecodeEventRun(nil, nil, recs[2].Payload, 4); err != nil || len(evs) != 7 || ends[6] != len(recs[2].Payload) {
		t.Errorf("the first run decodes to %d events ending at %v (%v)", len(evs), ends, err)
	}
	// Cut anywhere: the records that end at or before the cut, no more, no
	// error; before the header is whole, nothing.
	for cut := 0; cut <= len(data); cut++ {
		whole := 0
		for whole+1 < len(bounds) && bounds[whole+1] <= cut {
			whole++
		}
		wantEnd := bounds[whole]
		if cut < bounds[0] {
			wantEnd = 0
		}
		_, recs, end, err := ReadInputLog(data[:cut])
		if err != nil || len(recs) != whole || end != wantEnd {
			t.Fatalf("cut at %d: %d records ending at %d (%v), want %d ending at %d", cut, len(recs), end, err, whole, wantEnd)
		}
	}
	mid := len(bounds) / 2
	at := bounds[mid]
	for name, tail := range map[string][]byte{
		"zeros":                       make([]byte, 4096),
		"a record of kind 0":          append([]byte{0, 1, 'x'}, make([]byte, 4)...),
		"a length over the bound":     append([]byte{byte(LogRun)}, wire.AppendUvarint(nil, MaxRPCFrame+1)...),
		"a length of 2^63":            append([]byte{byte(LogRun)}, wire.AppendUvarint(nil, 1<<63)...),
		"a padded length":             {byte(LogRun), 0x81, 0x00, 'x'},
		"a record with a wrong CRC":   append(bytes.Clone(data[at:bounds[mid+1]-1]), data[bounds[mid+1]-1]^1),
		"a record with a flipped bit": func() []byte { b := bytes.Clone(data[at:]); b[3] ^= 0x20; return b }(),
	} {
		_, recs, end, err := ReadInputLog(append(bytes.Clone(data[:at]), tail...))
		if err != nil || len(recs) != mid || end != at {
			t.Errorf("%s behind record %d: %d records ending at %d (%v), want %d ending at %d", name, mid, len(recs), end, err, mid, at)
		}
	}
}

// TestInputLogHeader: a header that is not whole and sound is the empty
// prefix; a sound header of another version is the one error, because such a
// file must not be truncated by a build that cannot read it.
func TestInputLogHeader(t *testing.T) {
	data, bounds := sampleInputLog(t)
	for name, edit := range map[string]func(b []byte){
		"magic":      func(b []byte) { b[0] = 'X' },
		"session id": func(b []byte) { b[5] ^= 1 },
		"crc":        func(b []byte) { b[bounds[0]-1] ^= 0x80 },
	} {
		bad := bytes.Clone(data)
		edit(bad)
		if _, recs, end, err := ReadInputLog(bad); err != nil || recs != nil || end != 0 {
			t.Errorf("header with a wrong %s: %d records, end %d (%v), want the empty prefix", name, len(recs), end, err)
		}
	}
	// Version 2 as a future build would write it: its own CRC is right.
	v2 := append([]byte("DMLG"), 2)
	v2 = wire.AppendUvarint(wire.AppendUvarint(v2, 300), 2)
	v2 = wire.AppendUint32LE(v2, crc32c(v2))
	if _, _, end, err := ReadInputLog(append(v2, data[bounds[0]:]...)); err == nil || !strings.Contains(err.Error(), "input log version 2, want 1") || end != 0 {
		t.Errorf("version 2 header: end %d, %v", end, err)
	}
	defer func() {
		if recover() == nil {
			t.Error("a record of kind 0 was encoded")
		}
	}()
	AppendInputLogRecord(nil, 0, nil)
}

// FuzzReadInputLog: every byte a recovering daemon reads from a log meets this
// reader first. It never panics, allocates no more than the records it
// returns (one slice element each, whatever a length field claims), and what
// it reports as the valid prefix re-encodes to exactly those bytes — so no two
// byte strings mean the same log, and truncating a file to the reported
// offset loses nothing that was read.
func FuzzReadInputLog(f *testing.F) {
	data, bounds := sampleInputLog(f)
	f.Add(data)
	f.Add(data[:bounds[len(bounds)-2]+3])                  // torn inside the last record
	f.Add(append(bytes.Clone(data), make([]byte, 512)...)) // preallocated tail
	flipped := bytes.Clone(data)
	flipped[bounds[3]+5] ^= 0x40
	f.Add(flipped)
	f.Add(data[:bounds[0]])
	f.Add([]byte("DMLG"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		hdr, recs, end, err := ReadInputLog(data)
		runtime.ReadMemStats(&after)
		// A record takes six bytes at the least, so the slice of them is
		// bounded by the input; doubling growth and the fuzz worker's own
		// goroutines are what the slack is for.
		if budget := uint64(16*len(data) + 4096); after.TotalAlloc-before.TotalAlloc > budget {
			runtime.ReadMemStats(&before)
			ReadInputLog(data)
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > budget {
				t.Fatalf("reading a %d-byte log allocated %d, budget %d", len(data), got, budget)
			}
		}
		if err != nil {
			if end != 0 || recs != nil {
				t.Fatalf("an error (%v) came with %d records and end %d", err, len(recs), end)
			}
			return
		}
		if end == 0 {
			if recs != nil {
				t.Fatalf("%d records before the header", len(recs))
			}
			return
		}
		again := AppendInputLogHeader(nil, hdr)
		for _, rec := range recs {
			if rec.Kind == 0 || len(rec.Payload) > MaxRPCFrame {
				t.Fatalf("accepted a record of kind %d and %d bytes", rec.Kind, len(rec.Payload))
			}
			again = AppendInputLogRecord(again, rec.Kind, rec.Payload)
		}
		if end > len(data) || !bytes.Equal(again, data[:end]) {
			t.Fatalf("the valid prefix (%d of %d bytes) does not re-encode to itself:\n in  %x\n out %x", end, len(data), data[:min(end, len(data))], again)
		}
	})
}
