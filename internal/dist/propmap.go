package dist

import (
	"fmt"
	"math"
	"slices"

	"decentmon/internal/boolfn"
	"decentmon/internal/wire"
)

// MaxLocalProps bounds the propositions one process owns: a LocalState packs
// them into a uint32, bit LocalBit[i] for Names[i].
const MaxLocalProps = 32

// MaxSpace bounds a decoded process count and a decoded proposition count
// alike. It is a resource bound, not a limit of the algorithm: a decoder
// checks a count against it before sizing anything by that count, so bytes
// off a socket or a file cannot ask for an arbitrary allocation. It is sized
// by what a session costs, which grows with the square of its process count:
// an empty n-process session holds about 100 MB of heap at n = 1,024 (26 MB at
// n = 512), and closing it allocates 27 MB more in about 40 ms (measured on a
// 2-vCPU VM).
const MaxSpace = 1024

// PropMap is the proposition space of an execution: an ordered list of atomic
// propositions, each owned by exactly one process. Owner and LocalBit give,
// per proposition, the owning process and the bit position inside that
// process's LocalState. A monitor, which reads only its formula's
// propositions, takes its letters from the Letters that Restrict returns for
// them.
type PropMap struct {
	// Names are the propositions in declaration order.
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
// local bit is the count of propositions the process already owns, so a
// process that owns MaxLocalProps refuses another.
func (pm *PropMap) Add(name string, owner int) error {
	if name == "" {
		return fmt.Errorf("dist: empty proposition name")
	}
	if owner < 0 {
		return fmt.Errorf("dist: proposition %q has negative owner %d", name, owner)
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
	if bit >= MaxLocalProps {
		return fmt.Errorf("dist: process %d already owns %d propositions, the most a local state holds", owner, MaxLocalProps)
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
// two checks, spaceCount and addOwned; the JSON-lines header shares the second.

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

// spaceCount bounds a decoded process or proposition count by MaxSpace before
// anything is sized by it.
func spaceCount(v uint64, what string) error {
	if v > MaxSpace {
		return fmt.Errorf("dist: %d %s (max %d)", v, what, MaxSpace)
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

// Letters is a monitor's propositions bound to a process space, as Restrict
// returns them: Names[i] is letter bit i, owned by process Owner[i] at bit
// LocalBit[i] of its LocalState. Restrict admits at most boolfn.MaxVars
// names, so every bit of a letter fits its uint32.
type Letters struct {
	Names    []string
	Owner    []int
	LocalBit []int
}

// Restrict returns the named propositions, in the given order, each at its
// owner and local bit in pm. It is how a monitor binds its letters to a
// process space: give it the monitor's propositions (automaton.Monitor.Props)
// and the result's Letter is the monitor's letter. A name pm does not declare
// is an error, and so are more than boolfn.MaxVars names.
func (pm *PropMap) Restrict(names []string) (*Letters, error) {
	if len(names) > boolfn.MaxVars {
		return nil, fmt.Errorf("dist: %d propositions read, more than the supported maximum %d", len(names), boolfn.MaxVars)
	}
	r := &Letters{Names: slices.Clone(names), Owner: make([]int, len(names)), LocalBit: make([]int, len(names))}
	for k, name := range names {
		i := slices.Index(pm.Names, name)
		if i < 0 {
			return nil, fmt.Errorf("dist: proposition %q is not declared", name)
		}
		r.Owner[k], r.LocalBit[k] = pm.Owner[i], pm.LocalBit[i]
	}
	return r, nil
}

// Letter converts a global state into the monitor-automaton letter: bit i of
// the result is the truth value of Names[i] in g.
func (l *Letters) Letter(g GlobalState) uint32 {
	var letter uint32
	for i := range l.Names {
		o := l.Owner[i]
		if o < len(g) && (g[o]>>l.LocalBit[i])&1 == 1 {
			letter |= 1 << i
		}
	}
	return letter
}
