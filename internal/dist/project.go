package dist

import "fmt"

// Re-binding an event stream to another proposition space. Nothing in this
// module needs it: every engine binds a monitor's propositions to the
// execution's own space by name (PropMap.Restrict), so a reduced-arity
// property runs against an execution as generated. The benchmark module
// (bench/workload.go) still re-binds its streams through SourceWithProps;
// this file goes when that module is rebased on the tree (ROADMAP item 8(a)).

// checkRebind verifies that pm can reinterpret an n-process execution whose
// states were packed under the old proposition space: every owner must be a
// real process, a proposition sharing a *name* with an old one must sit at
// the same (owner, bit) slot, and a slot claimed under a new name must not
// already carry a different old proposition — either mismatch would make
// the monitor silently read the wrong bit (e.g. a trace generated with
// -suffixes q,p packs q at bit 0). Propositions over slots the old space
// never packed are fine: their bits read constantly false.
func checkRebind(old, pm *PropMap, n int) error {
	if pm == nil {
		return fmt.Errorf("dist: nil proposition map")
	}
	type slot struct{ owner, bit int }
	oldByName := map[string]slot{}
	oldBySlot := map[slot]string{}
	if old != nil {
		for i, name := range old.Names {
			s := slot{old.Owner[i], old.LocalBit[i]}
			oldByName[name] = s
			oldBySlot[s] = name
		}
	}
	for i, o := range pm.Owner {
		name := pm.Names[i]
		if o < 0 || o >= n {
			return fmt.Errorf("dist: proposition %q owned by process %d, execution has %d", name, o, n)
		}
		s := slot{o, pm.LocalBit[i]}
		if was, ok := oldByName[name]; ok && was != s {
			return fmt.Errorf("dist: proposition %q packed at process %d bit %d in the execution, re-bound at process %d bit %d",
				name, was.owner, was.bit, s.owner, s.bit)
		}
		if other, ok := oldBySlot[s]; ok && other != name {
			return fmt.Errorf("dist: proposition %q re-bound onto process %d bit %d, which the execution packs as %q",
				name, s.owner, s.bit, other)
		}
	}
	return nil
}

// SourceWithProps wraps an event source, re-binding its proposition space;
// events pass through unchanged. Every owner in pm must be a process of
// the source, and the layout must agree with the source's own (see
// checkRebind).
func SourceWithProps(src EventSource, pm *PropMap) (EventSource, error) {
	if err := checkRebind(src.Props(), pm, src.N()); err != nil {
		return nil, err
	}
	return &repropSource{EventSource: src, pm: pm}, nil
}

type repropSource struct {
	EventSource
	pm *PropMap
}

func (s *repropSource) Props() *PropMap { return s.pm }
