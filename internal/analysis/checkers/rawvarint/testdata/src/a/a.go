// Package a is the rawvarint fixture: the start of a hand-rolled codec.
package a

import (
	"bufio"
	"encoding/binary"
)

func encode(b []byte, v uint64, s int64) []byte {
	b = binary.AppendUvarint(b, v) // want `binary.AppendUvarint outside internal/wire`
	b = binary.AppendVarint(b, s)  // want `binary.AppendVarint outside internal/wire`
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], v) // want `binary.PutUvarint outside internal/wire`
	n += binary.PutVarint(scratch[n:], s) // want `binary.PutVarint outside internal/wire`
	return append(b, scratch[:n]...)
}

func decode(b []byte, br *bufio.Reader) (uint64, int64) {
	v, n := binary.Uvarint(b)      // want `binary.Uvarint outside internal/wire`
	s, _ := binary.Varint(b[n:])   // want `binary.Varint outside internal/wire`
	u, _ := binary.ReadUvarint(br) // want `binary.ReadUvarint outside internal/wire`
	r, _ := binary.ReadVarint(br)  // want `binary.ReadVarint outside internal/wire`
	return v + u, s + r
}

// A function value is a use too.
var put = binary.PutUvarint // want `binary.PutUvarint outside internal/wire`

// Fixed-width access has no length to get wrong and stays legal.
func fixed(b []byte, v uint32) ([]byte, uint64) {
	b = binary.LittleEndian.AppendUint32(b, v)
	return b, binary.BigEndian.Uint64(b)
}
