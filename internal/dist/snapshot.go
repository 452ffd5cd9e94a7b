package dist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Snapshot container format: the durable-state counterpart of the ".dmtb"
// stream and the dlmond RPC framing. A snapshot is a single self-delimiting
// byte blob
//
//	magic "DMSN" | uvarint version | record* | end record
//
// where each record is
//
//	uvarint tag | uvarint payload length | payload bytes
//
// and the end record (tag 0) carries a CRC32 (IEEE) of every byte before it,
// magic and version included. The CRC makes truncation and corruption
// detectable before any payload is interpreted: a checkpoint file cut short
// by a crash mid-write simply fails to open, which is what lets the
// write-then-rename checkpoint directory treat "opens" as "complete".
//
// Tags are assigned by the layer that owns the payload (internal/core for
// monitor state, internal/server for session metadata); this package only
// defines the container. Unknown tags are skippable by construction — the
// length prefix delimits them — so version-1 readers tolerate forward
// extensions that only add record kinds.
var snapshotMagic = [4]byte{'D', 'M', 'S', 'N'}

// SnapshotVersion is the container version written by SnapshotBuilder and
// required by OpenSnapshot. Bump it when the container layout (not a
// payload's interior encoding) changes incompatibly.
const SnapshotVersion = 1

// snapEndTag terminates a snapshot; its payload is the 4-byte little-endian
// CRC32 of everything before the end record. Payload tags start at 1.
const snapEndTag = 0

// SnapshotBuilder accumulates tagged records into an in-memory snapshot
// blob. Zero value is not ready: use NewSnapshotBuilder.
type SnapshotBuilder struct {
	buf []byte
}

// NewSnapshotBuilder starts a snapshot blob with the magic and version
// header.
func NewSnapshotBuilder() *SnapshotBuilder { return NewSnapshotBuilderSize(256) }

// NewSnapshotBuilderSize is NewSnapshotBuilder with the blob's buffer
// presized to size bytes: a caller that knows roughly how large the finished
// blob will be (a periodic checkpoint knows its predecessor's length) gets it
// in one allocation instead of a doubling chain.
func NewSnapshotBuilderSize(size int) *SnapshotBuilder {
	b := &SnapshotBuilder{buf: make([]byte, 0, max(size, 16))}
	b.buf = append(b.buf, snapshotMagic[:]...)
	b.buf = binary.AppendUvarint(b.buf, SnapshotVersion)
	return b
}

// Record appends one tagged record. The tag must be nonzero (0 is the end
// record); the payload is copied.
func (b *SnapshotBuilder) Record(tag uint64, payload []byte) {
	if tag == snapEndTag {
		panic("dist: snapshot record tag 0 is reserved for the end record")
	}
	b.buf = binary.AppendUvarint(b.buf, tag)
	b.buf = binary.AppendUvarint(b.buf, uint64(len(payload)))
	b.buf = append(b.buf, payload...)
}

// Finish seals the snapshot with the CRC end record and returns the blob.
// The builder must not be reused afterwards.
func (b *SnapshotBuilder) Finish() []byte {
	sum := crc32.ChecksumIEEE(b.buf)
	b.buf = binary.AppendUvarint(b.buf, snapEndTag)
	b.buf = binary.AppendUvarint(b.buf, 4)
	b.buf = binary.LittleEndian.AppendUint32(b.buf, sum)
	out := b.buf
	b.buf = nil
	return out
}

// SnapshotReader iterates the records of a verified snapshot blob. Payload
// slices alias the input buffer; callers that retain state across records
// must copy (the clockalias discipline: restored clocks and cuts are cloned
// out of the snapshot buffer, never aliased into it).
type SnapshotReader struct {
	data []byte // records only (header stripped, end record excluded)
	off  int
}

// OpenSnapshot verifies a snapshot blob end-to-end — magic, version, record
// framing, and the trailing CRC — and returns a reader over its records.
// Any truncation, trailing garbage, or bit corruption fails here, before a
// single payload byte is interpreted.
func OpenSnapshot(data []byte) (*SnapshotReader, error) {
	if len(data) < len(snapshotMagic) {
		return nil, fmt.Errorf("dist: snapshot truncated before magic")
	}
	if [4]byte(data[:4]) != snapshotMagic {
		return nil, fmt.Errorf("dist: bad snapshot magic %q", data[:4])
	}
	pos := 4
	ver, w := binary.Uvarint(data[pos:])
	if w <= 0 {
		return nil, fmt.Errorf("dist: snapshot truncated in version")
	}
	pos += w
	if ver != SnapshotVersion {
		return nil, fmt.Errorf("dist: snapshot version %d, want %d", ver, SnapshotVersion)
	}
	start := pos
	for {
		recStart := pos
		tag, w := binary.Uvarint(data[pos:])
		if w <= 0 {
			return nil, fmt.Errorf("dist: snapshot truncated in record tag")
		}
		pos += w
		size, w := binary.Uvarint(data[pos:])
		if w <= 0 {
			return nil, fmt.Errorf("dist: snapshot truncated in record length")
		}
		pos += w
		if size > uint64(len(data)-pos) {
			return nil, fmt.Errorf("dist: snapshot record of %d bytes overruns the blob", size)
		}
		payload := data[pos : pos+int(size)]
		pos += int(size)
		if tag != snapEndTag {
			continue
		}
		if size != 4 {
			return nil, fmt.Errorf("dist: snapshot end record of %d bytes, want 4", size)
		}
		if got, want := binary.LittleEndian.Uint32(payload), crc32.ChecksumIEEE(data[:recStart]); got != want {
			return nil, fmt.Errorf("dist: snapshot checksum %08x, want %08x (corrupt or truncated)", got, want)
		}
		if pos != len(data) {
			return nil, fmt.Errorf("dist: %d trailing bytes after snapshot end record", len(data)-pos)
		}
		return &SnapshotReader{data: data[start:recStart]}, nil
	}
}

// Next returns the next record. ok is false after the last record; framing
// cannot fail here because OpenSnapshot validated the whole blob.
func (r *SnapshotReader) Next() (tag uint64, payload []byte, ok bool) {
	if r.off >= len(r.data) {
		return 0, nil, false
	}
	tag, w := binary.Uvarint(r.data[r.off:])
	r.off += w
	size, w := binary.Uvarint(r.data[r.off:])
	r.off += w
	payload = r.data[r.off : r.off+int(size)]
	r.off += int(size)
	return tag, payload, true
}
