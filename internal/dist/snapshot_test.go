package dist

import (
	"bytes"
	"testing"
)

func buildSnap(t *testing.T, records map[uint64][]byte, order []uint64) []byte {
	t.Helper()
	b := NewSnapshotBuilder()
	for _, tag := range order {
		b.Record(tag, records[tag])
	}
	return b.Finish()
}

func TestSnapshotContainerRoundTrip(t *testing.T) {
	records := map[uint64][]byte{
		1: []byte("alpha"),
		2: {},
		7: bytes.Repeat([]byte{0xAB}, 1000),
	}
	order := []uint64{1, 2, 7}
	blob := buildSnap(t, records, order)
	r, err := OpenSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for {
		tag, payload, ok := r.Next()
		if !ok {
			break
		}
		got = append(got, tag)
		if !bytes.Equal(payload, records[tag]) {
			t.Errorf("tag %d: payload %q != %q", tag, payload, records[tag])
		}
	}
	if len(got) != len(order) {
		t.Fatalf("read %d records, wrote %d", len(got), len(order))
	}
	for i, tag := range order {
		if got[i] != tag {
			t.Errorf("record %d: tag %d, want %d (order must be preserved)", i, got[i], tag)
		}
	}
}

func TestSnapshotContainerEmpty(t *testing.T) {
	blob := NewSnapshotBuilder().Finish()
	r, err := OpenSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := r.Next(); ok {
		t.Error("empty container yielded a record")
	}
}

func TestSnapshotBuilderRejectsEndTag(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Record(0, ...) must panic: tag 0 is the end record")
		}
	}()
	NewSnapshotBuilder().Record(0, nil)
}

// TestSnapshotContainerRejectsMutations: every single-byte flip and every
// truncation of a valid blob must be rejected — the container is
// self-verifying end to end (magic, version, framing, trailing CRC).
func TestSnapshotContainerRejectsMutations(t *testing.T) {
	blob := buildSnap(t, map[uint64][]byte{3: []byte("payload bytes here"), 9: {1, 2, 3}}, []uint64{3, 9})
	for off := range blob {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x5A
		if _, err := OpenSnapshot(mut); err == nil {
			t.Errorf("flip at offset %d accepted", off)
		}
	}
	for l := 0; l < len(blob); l++ {
		if _, err := OpenSnapshot(blob[:l]); err == nil {
			t.Errorf("truncation to %d bytes accepted", l)
		}
	}
	if _, err := OpenSnapshot(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestSnapshotContainerBadHeader(t *testing.T) {
	for _, bad := range [][]byte{
		nil,
		[]byte("DMS"),
		[]byte("DMTB\x01"),             // wrong magic (the trace format's)
		[]byte("DMSN"),                 // missing version
		[]byte("DMSN\x03"),             // the previous version
		[]byte("DMSN\x05"),             // future version
		[]byte("DMSN\x04"),             // no end record
		[]byte("DMSN\x04\x00\x00"),     // end record with a short CRC
		[]byte("DMSN\x04\x05\x04junk"), // record, then nothing
	} {
		if _, err := OpenSnapshot(bad); err == nil {
			t.Errorf("malformed header %q accepted", bad)
		}
	}
}

// FuzzOpenSnapshot: arbitrary bytes must never panic the container parser,
// and whatever it accepts must be fully iterable.
func FuzzOpenSnapshot(f *testing.F) {
	f.Add(NewSnapshotBuilder().Finish())
	b := NewSnapshotBuilder()
	b.Record(1, []byte("seed"))
	b.Record(300, bytes.Repeat([]byte{7}, 64))
	f.Add(b.Finish())
	f.Add([]byte("DMSN\x03"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenSnapshot(data)
		if err != nil {
			return
		}
		for {
			tag, _, ok := r.Next()
			if !ok {
				return
			}
			if tag == 0 {
				t.Fatal("end record surfaced to the reader")
			}
		}
	})
}
