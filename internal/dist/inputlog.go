package dist

import (
	"fmt"
	"hash/crc32"

	"decentmon/internal/wire"
)

// Input log format ("DMLG"): the append-only companion of a "DMSN" checkpoint.
// A durable dlmond session is a base blob plus the inputs the engine has
// absorbed since that blob was taken, and this file is those inputs, in the
// order the engine took them:
//
//	header   magic "DMLG" | uvarint version | uvarint session id |
//	         uvarint generation | CRC-32C (LE) of the header before it
//	record*  kind byte | uvarint payload length | payload |
//	         CRC-32C (LE) of the three
//
// Record kinds:
//
//	run      a window of pre-stamped event records back to back, exactly the
//	         bytes of the Ingest payload they arrived in (DecodeEventRun reads
//	         them back)
//	emitted  one event record: an event the server stamped itself (an Emit),
//	         clock and timestamp included, so a replay re-creates the stamper
//	         instead of re-stamping (Stamper.Absorb)
//	end      uvarint process index: an End
//
// Unlike a snapshot, a log is never complete: it is appended to until a crash
// or a compaction stops it, so every record closes itself. A reader takes the
// longest prefix of whole, CRC-valid records and reports where it ends; what
// follows — a record cut short by a crash, zero fill a filesystem left behind
// a torn append (kind 0 is not a record), a flipped bit — is the tail a crash
// may legitimately leave and is dropped by truncating the file there. The
// generation ties a log to the one base blob it extends (internal/server names
// the files and states the invariant).
var inputLogMagic = [4]byte{'D', 'M', 'L', 'G'}

// InputLogVersion is the header version written and the only one read.
const InputLogVersion = 1

// InputLogKind names what a log record carries. Zero is not a kind.
type InputLogKind uint8

// The input log's record kinds.
const (
	LogRun     InputLogKind = 1
	LogEmitted InputLogKind = 2
	LogEnd     InputLogKind = 3
)

// InputLogHeader identifies a log file: the session it belongs to and the
// generation of the base blob its records follow.
type InputLogHeader struct {
	SID uint64
	Gen uint64
}

// InputLogRecord is one record read back. Payload aliases the buffer
// ReadInputLog was handed.
type InputLogRecord struct {
	Kind    InputLogKind
	Payload []byte
}

// castagnoli is the CRC-32C table: the polynomial with a hardware instruction
// on the machines dlmond runs on, for a checksum taken on the ingest path.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func crc32c(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// AppendInputLogHeader appends the header of a log file.
func AppendInputLogHeader(b []byte, h InputLogHeader) []byte {
	start := len(b)
	b = append(b, inputLogMagic[:]...)
	b = wire.AppendUvarint(b, InputLogVersion)
	b = wire.AppendUvarint(wire.AppendUvarint(b, h.SID), h.Gen)
	return wire.AppendUint32LE(b, crc32c(b[start:]))
}

// AppendInputLogRecord appends one record, payload copied and CRC closed. The
// payload must fit an RPC frame (everything logged arrived in one); kind 0 is
// the caller's bug.
func AppendInputLogRecord(b []byte, kind InputLogKind, payload []byte) []byte {
	if kind == 0 || len(payload) > MaxRPCFrame {
		panic(fmt.Sprintf("dist: input log record of kind %d and %d bytes", kind, len(payload)))
	}
	start := len(b)
	b = append(b, byte(kind))
	b = wire.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	return wire.AppendUint32LE(b, crc32c(b[start:]))
}

// ReadInputLog reads a log file's bytes: the header, the records of the longest
// valid prefix, and the offset at which that prefix ends — the length to
// truncate the file to before appending again. A short, zero-filled or
// CRC-failing tail is not an error, it is where the prefix ends; a file whose
// header is itself cut short or corrupt has the empty prefix (end 0, no
// records). The one error is a sound header of a version this build does not
// read: such a file must be left as it is, not truncated. Nothing is allocated
// but the record slice, and no record is larger than an RPC frame.
func ReadInputLog(data []byte) (h InputLogHeader, recs []InputLogRecord, end int, err error) {
	c := wire.NewCursor(data)
	magic := c.Bytes(len(inputLogMagic))
	version := c.Uvarint()
	h.SID, h.Gen = c.Uvarint(), c.Uvarint()
	body := len(data) - c.Len()
	sum := c.Uint32LE()
	if c.Err() != nil || [4]byte(magic) != inputLogMagic || sum != crc32c(data[:body]) {
		return InputLogHeader{}, nil, 0, nil
	}
	if version != InputLogVersion {
		return h, nil, 0, fmt.Errorf("dist: input log version %d, want %d", version, InputLogVersion)
	}
	end = len(data) - c.Len()
	for c.Len() > 0 {
		kind := InputLogKind(c.Byte())
		size := c.Uvarint()
		if kind == 0 || size > MaxRPCFrame {
			break
		}
		payload := c.Bytes(int(size))
		body := len(data) - c.Len()
		sum := c.Uint32LE()
		if c.Err() != nil || sum != crc32c(data[end:body]) {
			break
		}
		recs = append(recs, InputLogRecord{Kind: kind, Payload: payload})
		end = len(data) - c.Len()
	}
	return h, recs, end, nil
}
