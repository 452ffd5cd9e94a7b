package dist

import (
	"fmt"
	"hash/crc32"

	"decentmon/internal/wire"
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
// length prefix delimits them — so readers tolerate forward extensions that
// only add record kinds.
var snapshotMagic = [4]byte{'D', 'M', 'S', 'N'}

// SnapshotVersion is the container version written by SnapshotBuilder and
// required by OpenSnapshot. It covers the container and every record kind the
// tree puts inside one: these blobs are only ever read back by the build line
// that wrote them, so an incompatible change anywhere bumps the one number
// and an old checkpoint is refused whole instead of half-understood. Version
// 2 moved the engine's knowledge windows and parked tokens onto the shared
// event record (AppendEventRecord); version 3 lays the monitor record out
// component by component, with one table of outstanding searches where there
// were four maps (internal/core); version 4 shrinks its floors record from two
// n×n tables to the 2n components that are read.
const SnapshotVersion = 4

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
	b.buf = wire.AppendUvarint(b.buf, SnapshotVersion)
	return b
}

// Record appends one tagged record. The tag must be nonzero (0 is the end
// record); the payload is copied.
func (b *SnapshotBuilder) Record(tag uint64, payload []byte) {
	if tag == snapEndTag {
		panic("dist: snapshot record tag 0 is reserved for the end record")
	}
	b.buf = wire.AppendUvarint(b.buf, tag)
	b.buf = wire.AppendUvarint(b.buf, uint64(len(payload)))
	b.buf = append(b.buf, payload...)
}

// Finish seals the snapshot with the CRC end record and returns the blob.
// The builder must not be reused afterwards.
func (b *SnapshotBuilder) Finish() []byte {
	sum := crc32.ChecksumIEEE(b.buf)
	b.buf = wire.AppendUvarint(b.buf, snapEndTag)
	b.buf = wire.AppendUvarint(b.buf, 4)
	b.buf = wire.AppendUint32LE(b.buf, sum)
	out := b.buf
	b.buf = nil
	return out
}

// SnapshotReader iterates the records of a verified snapshot blob. Payload
// slices alias the input buffer; callers that retain state across records
// must copy (the clockalias discipline: restored clocks and cuts are cloned
// out of the snapshot buffer, never aliased into it).
type SnapshotReader struct {
	c wire.Cursor // over the records only (header stripped, end record excluded)
}

// OpenSnapshot verifies a snapshot blob end-to-end — magic, version, record
// framing, and the trailing CRC — and returns a reader over its records.
// Any truncation, trailing garbage, or bit corruption fails here, before a
// single payload byte is interpreted.
func OpenSnapshot(data []byte) (*SnapshotReader, error) {
	c := wire.NewCursor(data)
	if magic := c.Bytes(len(snapshotMagic)); magic != nil && [4]byte(magic) != snapshotMagic {
		return nil, fmt.Errorf("dist: bad snapshot magic %q", magic)
	}
	if ver := c.Uvarint(); c.Err() == nil && ver != SnapshotVersion {
		return nil, fmt.Errorf("dist: snapshot version %d, want %d", ver, SnapshotVersion)
	}
	first := len(data) - c.Len()
	for c.Err() == nil {
		recStart := len(data) - c.Len()
		tag := c.Uvarint()
		payload := c.Bytes(c.Count(1))
		if c.Err() != nil || tag != snapEndTag {
			continue
		}
		if len(payload) != 4 {
			return nil, fmt.Errorf("dist: snapshot end record of %d bytes, want 4", len(payload))
		}
		sum := wire.NewCursor(payload)
		if got, want := sum.Uint32LE(), crc32.ChecksumIEEE(data[:recStart]); got != want {
			return nil, fmt.Errorf("dist: snapshot checksum %08x, want %08x (corrupt or truncated)", got, want)
		}
		if err := c.Done("dist: snapshot"); err != nil {
			return nil, err
		}
		return &SnapshotReader{c: wire.NewCursor(data[first:recStart])}, nil
	}
	return nil, c.Done("dist: snapshot")
}

// Next returns the next record. ok is false after the last record; framing
// cannot fail here because OpenSnapshot validated the whole blob.
func (r *SnapshotReader) Next() (tag uint64, payload []byte, ok bool) {
	if r.c.Len() == 0 {
		return 0, nil, false
	}
	tag = r.c.Uvarint()
	return tag, r.c.Bytes(r.c.Count(1)), true
}
