// Package wire is the byte-level kernel under every binary format in the
// tree (the ".dmtb" trace stream, dlmond's RPC frames, "DMSN" snapshots,
// monitor-to-monitor messages, the TCP transport's frames): how a field is
// appended, how a record is bounds-checked while it is read back, and how a
// length-prefixed frame comes off a stream. The formats themselves — which
// fields, in which order — live with the types they carry (internal/dist,
// internal/core, internal/server; ARCHITECTURE.md has the table); this
// package only guarantees that every one of them answers the same way to
// truncated, oversized and hostile input, so a bounds bug is fixed once.
//
// Every value has exactly one encoding: a uvarint padded with trailing zero
// groups and a bool byte other than 0 or 1 are rejected, so a record that
// decodes re-encodes to the same bytes.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
)

// MaxUvarintLen is the longest a uvarint gets: scratch of this size holds any
// length prefix.
const MaxUvarintLen = binary.MaxVarintLen64

// --- append side ---

// AppendUvarint appends v in the base-128 varint encoding.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends a signed value as a zigzag varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendInts appends each value as a uvarint, without a count: the reader
// knows how many to expect (Cursor.Ints).
func AppendInts(b []byte, vs ...int) []byte {
	for _, v := range vs {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return b
}

// AppendClock appends a vector clock, cut or any other []int as a count
// followed by its components (Cursor.Clock); nil and empty both encode as
// count 0.
func AppendClock(b []byte, v []int) []byte {
	return AppendInts(binary.AppendUvarint(b, uint64(len(v))), v...)
}

// AppendBool appends one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendUint32LE appends a fixed-width little-endian word.
func AppendUint32LE(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendFloat64LE appends the IEEE 754 bits of v, little-endian.
func AppendFloat64LE(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendString appends a uvarint length followed by the bytes of s.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// BeginFrame opens a frame (ReadFrame's counterpart) at the end of b by
// reserving the length prefix of a payload under 128 bytes, one byte. The
// caller appends the payload behind it and closes the frame with EndFrame,
// passing the length b had before BeginFrame: a frame built this way is
// encoded where it will be sent from, with no payload buffer of its own.
func BeginFrame(b []byte) []byte { return append(b, 0) }

// EndFrame closes the frame opened at b[start]: it writes the payload's
// length into the reserved byte, first moving the payload up when the prefix
// takes more than that.
func EndFrame(b []byte, start int) []byte {
	n := len(b) - start - 1
	if k := UvarintLen(uint64(n)); k > 1 {
		var wider [MaxUvarintLen]byte
		b = append(b, wider[:k-1]...)
		copy(b[start+k:], b[start+1:start+1+n])
	}
	binary.PutUvarint(b[start:], uint64(n))
	return b
}

// --- size side ---
//
// What the append functions above would write, without writing it: a sender
// that hands a value over in memory still accounts the bytes it saved.

// UvarintLen returns len(AppendUvarint(nil, v)): ⌈bits/7⌉, at least 1, as
// (9·bits+64)/64 — exact for every width up to 64 and a shift where the
// division would be a multiply (this runs once per clock component of every
// event a message carries).
func UvarintLen(v uint64) int { return (bits.Len64(v|1)*9 + 64) >> 6 }

// VarintLen returns len(AppendVarint(nil, v)).
func VarintLen(v int64) int { return UvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// IntsLen returns len(AppendInts(nil, vs...)).
func IntsLen(vs ...int) int {
	n := 0
	for _, v := range vs {
		n += UvarintLen(uint64(v))
	}
	return n
}

// ClockLen returns len(AppendClock(nil, v)).
func ClockLen(v []int) int { return UvarintLen(uint64(len(v))) + IntsLen(v...) }

// --- read side ---

// Cursor reads one record back. Its error is sticky: after the first
// truncated or malformed field the cursor is empty and every further read
// returns a zero value, so a decoder reads a whole record straight through
// and asks once, with Done, whether all of it was there. Nothing a Cursor
// returns is sized by a number the input supplies unless Count vouched for
// that number against the bytes remaining.
type Cursor struct {
	buf []byte
	off int
	err error
}

// NewCursor returns a cursor at the start of buf. Slices returned by Bytes
// alias buf.
func NewCursor(buf []byte) Cursor { return Cursor{buf: buf} }

// Err returns the first failure, nil while every read has succeeded.
func (c *Cursor) Err() error { return c.err }

// Len returns the number of bytes not yet read.
func (c *Cursor) Len() int { return len(c.buf) - c.off }

// Off returns the number of bytes read so far: the offset, in the buffer the
// cursor was made on, of the next read.
func (c *Cursor) Off() int { return c.off }

// Failf records a failure at the current offset unless one is already
// recorded. Decoders call it for a field that parsed but cannot be right (an
// index out of range, an unknown kind), so semantic and framing errors leave
// by the same door.
func (c *Cursor) Failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%s at offset %d", fmt.Sprintf(format, args...), c.off)
		c.off = len(c.buf) // nothing is left to read: the fast paths need no error check
	}
}

// short is Failf for a field the input ends inside, or encodes wrongly.
func (c *Cursor) short(what string) { c.Failf("truncated or malformed %s", what) }

// Done ends a record: the sticky error if there is one, an error if bytes are
// left over, nil otherwise.
func (c *Cursor) Done(record string) error {
	if c.err != nil {
		return fmt.Errorf("%s: %w", record, c.err)
	}
	if c.off != len(c.buf) {
		return fmt.Errorf("%s: %d trailing bytes", record, len(c.buf)-c.off)
	}
	return nil
}

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	if off := c.off; off < len(c.buf) {
		c.off = off + 1
		return c.buf[off]
	}
	c.short("byte")
	return 0
}

// Bool reads one byte that must be 0 or 1.
func (c *Cursor) Bool() bool {
	b := c.Byte()
	if b > 1 {
		c.short("bool")
	}
	return b == 1
}

// badUvarint is the one verdict on what binary.Uvarint returned for buf:
// truncated or overflowing (n <= 0), over max, or padded with a zero group —
// a longer spelling of a value that has a shorter one.
func badUvarint(buf []byte, v uint64, n int, max uint64) bool {
	return n <= 0 || v > max || (n > 1 && buf[n-1] == 0)
}

// uvarint reads one varint of at most max; what names it in the error.
func (c *Cursor) uvarint(max uint64, what string) uint64 {
	rest := c.buf[c.off:]
	v, n := binary.Uvarint(rest)
	if badUvarint(rest, v, n, max) {
		c.short(what)
		return 0
	}
	c.off += n
	return v
}

// Uvarint reads a base-128 varint in its shortest form.
func (c *Cursor) Uvarint() uint64 { return c.uvarint(math.MaxUint64, "uvarint") }

// Varint reads a zigzag varint in its shortest form.
func (c *Cursor) Varint() int64 {
	u := c.uvarint(math.MaxUint64, "varint")
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a uvarint that must fit a non-negative int: a hostile 2^63 is a
// decode error here, never a negative index further in.
func (c *Cursor) Int() int { return int(c.uvarint(math.MaxInt, "int")) }

// Ints reads len(dst) uvarints into dst (AppendInts). It is the loop under
// every clock in every format, so it runs on a local offset and calls nothing
// on the way.
func (c *Cursor) Ints(dst []int) {
	off := c.off
	for i := range dst {
		rest := c.buf[off:]
		v, n := binary.Uvarint(rest)
		if badUvarint(rest, v, n, math.MaxInt) {
			c.off = off
			c.short("int")
			clear(dst[i:])
			return
		}
		dst[i], off = int(v), off+n
	}
	c.off = off
}

// Count reads the length of a sequence whose elements each take at least
// minBytes bytes and fails unless that many can still follow, so whatever the
// caller allocates for the sequence is bounded by the input's own size.
// Dividing the remainder, not multiplying the count, keeps the check exact
// where a product would overflow.
func (c *Cursor) Count(minBytes int) int {
	v := c.Uvarint()
	if v > uint64((len(c.buf)-c.off)/minBytes) {
		c.short("count")
		return 0
	}
	return int(v)
}

// Clock reads a count-prefixed []int (AppendClock); count 0 reads as nil.
func (c *Cursor) Clock() []int {
	n := c.Count(1)
	if n == 0 {
		return nil
	}
	v := make([]int, n)
	c.Ints(v)
	return v
}

// Bytes reads the next n bytes without copying them.
func (c *Cursor) Bytes(n int) []byte {
	if n < 0 || n > len(c.buf)-c.off {
		c.short("byte string")
		return nil
	}
	b := c.buf[c.off : c.off+n : c.off+n]
	c.off += n
	return b
}

// String reads a uvarint length and that many bytes (AppendString).
func (c *Cursor) String() string { return string(c.Bytes(c.Count(1))) }

// Uint32LE reads a fixed-width little-endian word.
func (c *Cursor) Uint32LE() uint32 {
	if b := c.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// Float64LE reads eight little-endian bytes as IEEE 754 bits.
func (c *Cursor) Float64LE() float64 {
	if b := c.Bytes(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// --- streams ---

// ReadUvarint reads one shortest-form uvarint from a stream, byte by byte so
// the two ways a stream can end stay apart: io.EOF when it ended before the
// first byte (a clean end between records), io.ErrUnexpectedEOF when it ended
// inside the varint.
func ReadUvarint(r *bufio.Reader) (uint64, error) {
	var v uint64
	for i := 0; ; i++ {
		b, err := r.ReadByte()
		if err != nil {
			if err == io.EOF && i > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if i == MaxUvarintLen-1 && b > 1 {
			return 0, fmt.Errorf("wire: uvarint overflows 64 bits")
		}
		v |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			if b == 0 && i > 0 {
				return 0, fmt.Errorf("wire: uvarint padded with a zero group")
			}
			return v, nil
		}
	}
}

// ReadFrame reads one frame — a uvarint payload length, then the payload —
// into scratch, growing it when it is too small, and returns the payload and
// the scratch to pass next time (pass nil for a payload the caller keeps).
// The length is checked against max before anything is allocated for it. A
// stream that ends between frames returns io.EOF; one that ends inside a
// frame, io.ErrUnexpectedEOF.
func ReadFrame(br *bufio.Reader, scratch []byte, max int) (payload, grown []byte, err error) {
	ln, err := ReadUvarint(br)
	if err != nil {
		return nil, scratch, err
	}
	if ln > uint64(max) {
		return nil, scratch, fmt.Errorf("wire: frame of %d bytes exceeds the %d-byte bound", ln, max)
	}
	if cap(scratch) < int(ln) {
		scratch = make([]byte, ln)
	}
	payload = scratch[:ln]
	if _, err := io.ReadFull(br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, scratch, err
	}
	return payload, scratch, nil
}
