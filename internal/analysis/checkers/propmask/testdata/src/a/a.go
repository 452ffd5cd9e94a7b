// Package a is the propmask fixture: shift widths tracked and untracked
// against named proposition ceilings.
package a

import "errors"

// MaxLocalProps mirrors dist.MaxLocalProps: the bitmask ceiling.
const MaxLocalProps = 4

var errTooMany = errors.New("too many props")

func badConstShift32(x uint32) uint32 {
	return x << 40 // want `shift count 40 >= operand width 32`
}

func badConstShift8(b byte) byte {
	return b >> 9 // want `shift count 9 >= operand width 8`
}

func badParamShift(n int) int {
	return 1 << n // want `shift count derived from parameter n is not bounded`
}

func badLenShift(props []string) int {
	return 1 << len(props) // want `shift count derived from parameter props is not bounded`
}

func goodGuardedLen(props []string) (int, error) {
	if len(props) > MaxLocalProps {
		return 0, errTooMany
	}
	return 1 << len(props), nil
}

func goodGuardedParam(n int) uint32 {
	if n >= MaxLocalProps {
		return 0
	}
	return uint32(1) << n
}

func goodSelfBoundingMod(i int) uint64 {
	return 1 << (i % 64)
}

func goodSelfBoundingAnd(i int) uint64 {
	return 1 << (i & 63)
}

func goodLocalCount() int {
	k := 3
	return 1 << k
}

func goodRangeCount(props []string) uint32 {
	var m uint32
	for i := range props {
		m |= 1 << i
	}
	return m
}

func goodSmallConst(x uint32) uint32 {
	return x << 3
}

func goodWideOperand(x uint64) uint64 {
	return x << 40
}

type sym struct{ Props []string }

func (s *sym) goodFieldDerived() int {
	return 1 << len(s.Props) // field-derived: bounded by the producer
}
