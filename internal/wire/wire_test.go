package wire

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
)

// TestCursorRejects is the one table of malformed fields: every decoder in
// the tree reads through Cursor, so a case here is a case for all of them.
func TestCursorRejects(t *testing.T) {
	huge := AppendUvarint(nil, 1<<63) // fits uint64, not a non-negative int
	cases := []struct {
		name string
		buf  []byte
		read func(c *Cursor)
		want string // substring of the error; "" = must succeed
	}{
		{"byte past the end", nil, func(c *Cursor) { c.Byte() }, "byte at offset 0"},
		{"bool 0", []byte{0}, func(c *Cursor) { c.Bool() }, ""},
		{"bool 1", []byte{1}, func(c *Cursor) { c.Bool() }, ""},
		{"bool 2", []byte{2}, func(c *Cursor) { c.Bool() }, "bool"},
		{"uvarint cut short", []byte{0x80}, func(c *Cursor) { c.Uvarint() }, "uvarint at offset 0"},
		{"uvarint of 11 bytes", bytes.Repeat([]byte{0xff}, 11), func(c *Cursor) { c.Uvarint() }, "uvarint"},
		{"uvarint padded", []byte{0x81, 0x00}, func(c *Cursor) { c.Uvarint() }, "uvarint"},
		{"uvarint zero", []byte{0x00}, func(c *Cursor) { c.Uvarint() }, ""},
		{"varint padded", []byte{0x80, 0x00}, func(c *Cursor) { c.Varint() }, "varint"},
		{"int 2^63", huge, func(c *Cursor) { c.Int() }, "int"},
		{"int max", AppendUvarint(nil, math.MaxInt), func(c *Cursor) { c.Int() }, ""},
		{"ints stop at the overflow", append([]byte{7}, huge...), func(c *Cursor) { c.Ints(make([]int, 2)) }, "int"},
		{"count over the remainder", []byte{3, 0, 0}, func(c *Cursor) { c.Count(1) }, "count"},
		{"count exactly the remainder", []byte{2, 0, 0}, func(c *Cursor) { c.Count(1) }, ""},
		{"count of wide elements", []byte{2, 0, 0, 0}, func(c *Cursor) { c.Count(2) }, "count"},
		{"count 2^63 of 15-byte elements", append(huge, make([]byte, 64)...), func(c *Cursor) { c.Count(15) }, "count"},
		{"clock count over the remainder", []byte{9, 1, 2}, func(c *Cursor) { c.Clock() }, "count"},
		{"string cut short", []byte{5, 'a', 'b'}, func(c *Cursor) { _ = c.String() }, "count"},
		{"bytes past the end", []byte{1, 2}, func(c *Cursor) { c.Bytes(3) }, "byte string"},
		{"negative byte count", []byte{1, 2}, func(c *Cursor) { c.Bytes(-1) }, "byte string"},
		{"uint32 cut short", []byte{1, 2, 3}, func(c *Cursor) { c.Uint32LE() }, "byte string"},
		{"float64 cut short", make([]byte, 7), func(c *Cursor) { c.Float64LE() }, "byte string"},
		{"caller's failure", []byte{9}, func(c *Cursor) { c.Byte(); c.Failf("kind %d", 9) }, "kind 9 at offset 1"},
	}
	for _, tc := range cases {
		c := NewCursor(tc.buf)
		tc.read(&c)
		switch err := c.Err(); {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

func TestCursorStickyAndDone(t *testing.T) {
	c := NewCursor([]byte{1, 0x80})
	if c.Byte() != 1 {
		t.Fatal("first byte lost")
	}
	c.Uvarint() // fails at offset 1
	first := c.Err()
	if first == nil {
		t.Fatal("truncated uvarint accepted")
	}
	if c.Len() != 0 || c.Byte() != 0 || c.Int() != 0 || c.Varint() != 0 || c.String() != "" || c.Clock() != nil ||
		c.Bool() || c.Bytes(1) != nil || c.Uint32LE() != 0 || c.Count(1) != 0 {
		t.Error("after a failure the cursor must be empty and every read return a zero value")
	}
	c.Failf("later")
	if c.Err() != first {
		t.Errorf("the first failure must stick, got %v", c.Err())
	}
	if err := c.Done("rec"); err == nil || !strings.HasPrefix(err.Error(), "rec: ") {
		t.Errorf("Done must name the record: %v", err)
	}
	c = NewCursor([]byte{1, 2})
	c.Byte()
	if err := c.Done("rec"); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Errorf("Done must report trailing bytes: %v", err)
	}
	c.Byte()
	if err := c.Done("rec"); err != nil {
		t.Errorf("a record read to its end: %v", err)
	}
}

func TestAppendCursorRoundTrip(t *testing.T) {
	b := AppendUvarint(nil, 300)
	b = AppendVarint(b, -2)
	b = AppendInts(b, 0, 127, 128)
	b = AppendClock(b, []int{5, 0, 1 << 40})
	b = AppendClock(b, nil)
	b = AppendBool(AppendBool(b, true), false)
	b = AppendUint32LE(b, 0xdeadbeef)
	b = AppendFloat64LE(b, -0.5)
	b = AppendString(b, "héllo")
	c := NewCursor(b)
	ints := make([]int, 3)
	if c.Uvarint() != 300 || c.Varint() != -2 {
		t.Error("varints changed")
	}
	if c.Ints(ints); ints[0] != 0 || ints[1] != 127 || ints[2] != 128 {
		t.Errorf("ints %v", ints)
	}
	if v := c.Clock(); len(v) != 3 || v[2] != 1<<40 {
		t.Errorf("clock %v", v)
	}
	if v := c.Clock(); v != nil {
		t.Errorf("empty clock read as %v, want nil", v)
	}
	if !c.Bool() || c.Bool() || c.Uint32LE() != 0xdeadbeef || c.Float64LE() != -0.5 || c.String() != "héllo" {
		t.Error("fixed-width fields or string changed")
	}
	if err := c.Done("round trip"); err != nil {
		t.Error(err)
	}
}

func TestLenMatchesAppend(t *testing.T) {
	for shift := 0; shift < 64; shift++ {
		for _, u := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1} {
			if got, want := UvarintLen(u), len(AppendUvarint(nil, u)); got != want {
				t.Errorf("UvarintLen(%d) = %d, AppendUvarint writes %d", u, got, want)
			}
			for _, v := range []int64{int64(u), -int64(u)} {
				if got, want := VarintLen(v), len(AppendVarint(nil, v)); got != want {
					t.Errorf("VarintLen(%d) = %d, AppendVarint writes %d", v, got, want)
				}
			}
		}
	}
	for _, clock := range [][]int{nil, {}, {0}, {127, 128, 1 << 40}, make([]int, 200)} {
		if got, want := ClockLen(clock), len(AppendClock(nil, clock)); got != want {
			t.Errorf("ClockLen(%v) = %d, AppendClock writes %d", clock, got, want)
		}
		if got, want := IntsLen(clock...), len(AppendInts(nil, clock...)); got != want {
			t.Errorf("IntsLen(%v) = %d, AppendInts writes %d", clock, got, want)
		}
	}
}

func TestReadFrame(t *testing.T) {
	stream := append(AppendString(nil, "alpha"), AppendString(nil, "")...)
	stream = append(stream, AppendString(nil, strings.Repeat("x", 300))...)
	br := bufio.NewReader(bytes.NewReader(stream))
	var scratch []byte
	for _, want := range []string{"alpha", "", strings.Repeat("x", 300)} {
		payload, grown, err := ReadFrame(br, scratch, 1024)
		if err != nil || string(payload) != want {
			t.Fatalf("frame %q: got %q, %v", want, payload, err)
		}
		scratch = grown
	}
	if _, _, err := ReadFrame(br, scratch, 1024); err != io.EOF {
		t.Fatalf("after the last frame: want io.EOF, got %v", err)
	}
	// Every strict prefix that cuts into a frame is truncation, never a
	// clean end.
	for cut := 1; cut < 6; cut++ {
		_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(stream[:cut])), nil, 1024)
		if err != io.ErrUnexpectedEOF {
			t.Errorf("prefix of %d bytes: want io.ErrUnexpectedEOF, got %v", cut, err)
		}
	}
	for name, hdr := range map[string][]byte{
		"over the bound":  AppendUvarint(nil, 1025),
		"2^63":            AppendUvarint(nil, 1<<63),
		"overflowing":     bytes.Repeat([]byte{0xff}, 10),
		"padded length":   {0x85, 0x00, 'a', 'b', 'c', 'd', 'e'},
		"cut in the size": {0x85},
	} {
		_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(hdr)), nil, 1024)
		if err == nil || err == io.EOF {
			t.Errorf("%s: want an error, got %v", name, err)
		}
	}
}

// TestBeginEndFrame: a frame encoded in place behind a reserved prefix is the
// frame AppendUvarint + append would have built, on both sides of every width
// the prefix can change at, behind whatever the buffer already held, and
// without allocating when the buffer has room.
func TestBeginEndFrame(t *testing.T) {
	buf := make([]byte, 0, 1<<17)
	for _, n := range []int{0, 1, 127, 128, 129, 1<<14 - 1, 1 << 14, 1<<16 + 5} {
		payload := bytes.Repeat([]byte{byte(n)}, n)
		want := append(AppendUvarint([]byte("head"), uint64(n)), payload...)
		build := func() {
			buf = append(buf[:0], "head"...)
			buf = EndFrame(append(BeginFrame(buf), payload...), len("head"))
		}
		if allocs := testing.AllocsPerRun(10, build); allocs != 0 {
			t.Errorf("%d-byte payload: %v allocations into a buffer with room", n, allocs)
		}
		if !bytes.Equal(buf, want) {
			t.Errorf("%d-byte payload: frame differs from length prefix + payload", n)
		}
		got, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(buf[len("head"):])), nil, 1<<17)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("%d-byte payload read back as %d bytes, %v", n, len(got), err)
		}
	}
}

// TestReadFrameBoundsBeforeAllocating: a header announcing more than the
// bound is refused before a byte is allocated for it.
func TestReadFrameBoundsBeforeAllocating(t *testing.T) {
	br := bufio.NewReader(bytes.NewReader(AppendUvarint(nil, 1<<30)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadFrame(br, nil, 1<<20)
	runtime.ReadMemStats(&after)
	if err == nil || err == io.EOF {
		t.Fatalf("oversized frame accepted: %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
		t.Errorf("refusing a 1 GiB frame allocated %d bytes", got)
	}
}

// cursorScript drives a cursor over data, taking the operations from the data
// itself: an op byte, then that op's field. It returns what it read re-encoded
// with the Append helpers, and the cursor.
func cursorScript(data []byte) ([]byte, *Cursor) {
	type wide [32]byte
	var out []byte
	c := NewCursor(data)
	for c.Err() == nil && c.Len() > 0 {
		op := c.Byte()
		out = append(out, op)
		switch op % 10 {
		case 0:
			out = AppendUvarint(out, c.Uvarint())
		case 1:
			out = AppendVarint(out, c.Varint())
		case 2:
			out = AppendInts(out, c.Int())
		case 3:
			out = AppendBool(out, c.Bool())
		case 4:
			out = AppendUint32LE(out, c.Uint32LE())
		case 5:
			out = AppendFloat64LE(out, c.Float64LE())
		case 6:
			out = AppendString(out, c.String())
		case 7:
			out = AppendClock(out, c.Clock())
		case 8: // a Count-guarded slab, as segment decoders size theirs
			slab := make([]wide, c.Count(1))
			out = AppendUvarint(out, uint64(len(slab)))
			out = append(out, c.Bytes(len(slab))...)
		case 9:
			ints := make([]int, c.Count(2))
			c.Ints(ints)
			out = AppendClock(out, ints)
			out = append(out, c.Bytes(len(ints))...)
		}
	}
	return out, &c
}

// FuzzCursor holds the kernel to its three promises on arbitrary bytes: no
// read panics or runs past the buffer; whatever a Count vouched for, the
// decode allocates at most a small multiple of the input (32 bytes per input
// byte is the tree's widest decoded element, plus slack for the harness); and
// a record that reads cleanly re-encodes to exactly the bytes it was read
// from — one value, one encoding.
func FuzzCursor(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0xac, 0x02, 1, 0x03, 2, 0x7f, 3, 1, 4, 1, 2, 3, 4, 6, 2, 'h', 'i', 7, 2, 9, 8})
	f.Add(append([]byte{8}, AppendUvarint(nil, 1<<63)...))               // 2^63 elements in 0 bytes
	f.Add([]byte{8, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0})              // 2^32 elements in 3 bytes
	f.Add([]byte{7, 0x81, 0x00})                                         // padded count
	f.Add(append([]byte{5}, AppendFloat64LE(nil, math.NaN())...))        // NaN bits survive
	f.Add([]byte{9, 3, 1, 2, 3, 0, 0, 0})                                // ints, then their slack bytes
	f.Add(append([]byte{2}, AppendUvarint(nil, uint64(math.MaxInt))...)) // the largest int
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, c := cursorScript(data)
		runtime.ReadMemStats(&after)
		if c.Len() < 0 || c.Len() > len(data) || c.Off()+c.Len() != len(data) {
			t.Fatalf("cursor at offset %d with %d of %d bytes left", c.Off(), c.Len(), len(data))
		}
		// out is harness output, at most the input again; the rest is what
		// the Count-guarded makes cost.
		if budget, got := uint64(32*len(data)+2048), after.TotalAlloc-before.TotalAlloc; got > budget+uint64(4*len(data)) {
			// Another goroutine of the fuzz worker may have allocated
			// meanwhile; a real excess repeats.
			runtime.ReadMemStats(&before)
			cursorScript(data)
			runtime.ReadMemStats(&after)
			if got = after.TotalAlloc - before.TotalAlloc; got > budget+uint64(4*len(data)) {
				t.Fatalf("reading %d bytes allocated %d, budget %d", len(data), got, budget)
			}
		}
		if c.Err() == nil && !bytes.Equal(out, data) {
			t.Fatalf("accepted bytes do not re-encode to themselves:\n in  %x\n out %x", data, out)
		}
	})
}
