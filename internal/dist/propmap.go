package dist

import (
	"fmt"
	"math"

	"decentmon/internal/wire"
)

// MaxProps bounds the proposition count: monitor letters are uint32 bitmasks
// (bit i ↔ proposition i), and LocalState packs each process's propositions
// into a uint32 too. With k propositions per process, at most MaxProps/k
// processes fit (16 with the default two suffixes, 32 with one).
const MaxProps = 32

// PropMap is the proposition space of a property: an ordered list of atomic
// propositions, each owned by exactly one process. The order defines the
// monitor-automaton letter encoding (letter bit i ↔ Names[i]); Owner and
// LocalBit give, per proposition, the owning process and the bit position
// inside that process's LocalState.
type PropMap struct {
	// Names are the propositions in letter-bit order.
	Names []string
	// Owner[i] is the process owning Names[i].
	Owner []int
	// LocalBit[i] is the bit of Names[i] inside its owner's LocalState.
	LocalBit []int
}

// NewPropMap returns an empty proposition space.
func NewPropMap() *PropMap { return &PropMap{} }

// Len returns the number of propositions.
func (pm *PropMap) Len() int { return len(pm.Names) }

// Add appends a proposition owned by the given process. The proposition's
// local bit is the count of propositions the process already owns.
func (pm *PropMap) Add(name string, owner int) error {
	if name == "" {
		return fmt.Errorf("dist: empty proposition name")
	}
	if owner < 0 {
		return fmt.Errorf("dist: proposition %q has negative owner %d", name, owner)
	}
	if len(pm.Names) >= MaxProps {
		return fmt.Errorf("dist: proposition space full (%d propositions)", MaxProps)
	}
	bit := 0
	for i, n := range pm.Names {
		if n == name {
			return fmt.Errorf("dist: duplicate proposition %q", name)
		}
		if pm.Owner[i] == owner {
			bit++
		}
	}
	pm.Names = append(pm.Names, name)
	pm.Owner = append(pm.Owner, owner)
	pm.LocalBit = append(pm.LocalBit, bit)
	return nil
}

// The process-space record — how many processes, their initial local states,
// and which of them owns each proposition — opens every session, whether it
// arrives in an RPC Register frame, a checkpoint's meta record or a ".dmtb"
// header. The first two share the record below byte for byte; the header
// predates it (fixed-width states, read off a stream) but is held to the same
// two checks, spaceCount and addOwned; the ".jsonl" header shares the second.

// AppendProcessSpace appends the process-space record: process count, one
// uvarint initial state per process, proposition count, then per proposition
// its owner and its name.
func AppendProcessSpace(b []byte, init GlobalState, pm *PropMap) []byte {
	b = wire.AppendUvarint(b, uint64(len(init)))
	for _, s := range init {
		b = wire.AppendUvarint(b, uint64(s))
	}
	b = wire.AppendUvarint(b, uint64(pm.Len()))
	for i, name := range pm.Names {
		b = wire.AppendString(wire.AppendInts(b, pm.Owner[i]), name)
	}
	return b
}

// DecodeProcessSpace reads an AppendProcessSpace record; violations fail c.
func DecodeProcessSpace(c *wire.Cursor) (GlobalState, *PropMap) {
	n := c.Int()
	if err := spaceCount(uint64(n), "processes"); err != nil {
		c.Failf("%v", err)
		return nil, nil
	}
	init := make(GlobalState, n)
	for p := range init {
		init[p] = DecodeLocalState(c)
	}
	nprops := c.Int()
	if err := spaceCount(uint64(nprops), "propositions"); err != nil {
		c.Failf("%v", err)
	}
	pm := NewPropMap()
	for k := 0; k < nprops && c.Err() == nil; k++ {
		owner := c.Uvarint()
		if err := pm.addOwned(c.String(), owner, n); err != nil && c.Err() == nil {
			c.Failf("%v", err)
		}
	}
	return init, pm
}

// DecodeLocalState reads a local state written as a uvarint (the ".dmtb"
// header and the event record write theirs fixed-width instead).
func DecodeLocalState(c *wire.Cursor) LocalState {
	v := c.Uvarint()
	if v > math.MaxUint32 {
		c.Failf("local state %d overflows 32 bits", v)
	}
	return LocalState(v)
}

// spaceCount bounds a decoded process or proposition count before anything is
// sized by it: letters and local states are 32-bit masks, so no monitor can
// serve more than MaxProps of either.
func spaceCount(v uint64, what string) error {
	if v > MaxProps {
		return fmt.Errorf("dist: %d %s (max %d)", v, what, MaxProps)
	}
	return nil
}

// addOwned is Add for a decoded proposition of an n-process space. The owner
// arrives unsigned, so a negative one is out of range like any other.
func (pm *PropMap) addOwned(name string, owner uint64, n int) error {
	if owner >= uint64(n) {
		return fmt.Errorf("dist: proposition %q owned by nonexistent process %d", name, int64(owner))
	}
	return pm.Add(name, int(owner))
}

// MustAdd is Add that panics on error.
func (pm *PropMap) MustAdd(name string, owner int) {
	if err := pm.Add(name, owner); err != nil {
		panic(err)
	}
}

// PerProcess builds the standard proposition space where each of n processes
// owns one proposition per suffix, named P<i>.<suffix> and ordered process-
// major: P0.p, P0.q, P1.p, P1.q, ...
func PerProcess(n int, suffixes ...string) *PropMap {
	pm := NewPropMap()
	for i := 0; i < n; i++ {
		for _, s := range suffixes {
			pm.MustAdd(fmt.Sprintf("P%d.%s", i, s), i)
		}
	}
	return pm
}

// Letter converts a global state into the monitor-automaton letter: bit i of
// the result is the truth value of Names[i] in g.
func (pm *PropMap) Letter(g GlobalState) uint32 {
	var letter uint32
	for i := range pm.Names {
		o := pm.Owner[i]
		if o < len(g) && (g[o]>>pm.LocalBit[i])&1 == 1 {
			letter |= 1 << i
		}
	}
	return letter
}
