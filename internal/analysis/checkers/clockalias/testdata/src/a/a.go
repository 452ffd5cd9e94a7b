// Package a is the clockalias fixture: aliased clock/cut slices mutated
// with and without an intervening clone.
package a

import "sort"

// VC mirrors vclock.VC: a plain slice whose mutating methods operate on
// shared storage.
type VC []int

func (v VC) Clone() VC {
	w := make(VC, len(v))
	copy(w, v)
	return w
}

func (v VC) Tick(i int) VC { v[i]++; return v } // receiver is a clock: exempt

func (v VC) Merge(w VC) VC {
	for i := range v {
		if w[i] > v[i] {
			v[i] = w[i]
		}
	}
	return v
}

// GlobalState mirrors dist.GlobalState.
type GlobalState []int

type Event struct {
	VC VC
}

type Store struct{ counts VC }

func (s *Store) Cut() VC { return s.counts } // leaks aliased storage

// LastCut mirrors the dlmond session accessor: same borrow contract.
func (s *Store) LastCut() VC { return s.counts }

func badIndexVar(s *Store) {
	c := s.Cut()
	c[0] = 7 // want `in-place element write to aliased clock/cut slice`
}

func badIndexDirect(s *Store) {
	s.Cut()[0] = 7 // want `in-place element write to aliased clock/cut slice`
}

func badFieldWrite(e Event) {
	e.VC[1] = 2 // want `in-place element write to aliased clock/cut slice`
}

func badTick(e Event) {
	e.VC.Tick(0) // want `Tick mutates its receiver`
}

func badMergeVar(s *Store, w VC) {
	c := s.Cut()
	c.Merge(w) // want `Merge mutates its receiver`
}

func badParam(v VC) {
	v[0] = 1 // want `in-place element write to aliased clock/cut slice`
}

func badGlobalStateParam(g GlobalState) {
	g[0] = 1 // want `in-place element write to aliased clock/cut slice`
}

func badSort(e Event) {
	sort.Ints([]int(e.VC)) // want `sort.Ints reorders an aliased clock/cut slice`
}

func badCopyInto(s *Store, src VC) {
	copy(s.Cut(), src) // want `copy into aliased clock/cut slice`
}

func badIncDec(e Event) {
	e.VC[0]++ // want `in-place element update of aliased clock/cut slice`
}

// An event reached through a pointer is the shape the engine shares between
// monitor goroutines: writing its clock is a race, not only an alias bug.
func badSharedEventClock(e *Event, w VC) {
	e.VC[0] = 1   // want `in-place element write to aliased clock/cut slice \(VC field: an event and its clock are shared`
	e.VC.Merge(w) // want `Merge mutates its receiver, which is an aliased clock/cut slice \(VC field`
	e.VC.Tick(0)  // want `Tick mutates its receiver`
}

func badVarDecl(e Event) {
	var v = e.VC
	v[2] = 9 // want `in-place element write to aliased clock/cut slice`
}

func badLastCutWrite(s *Store) {
	c := s.LastCut()
	c[0] = 7 // want `in-place element write to aliased clock/cut slice`
}

func badLastCutMerge(s *Store, w VC) {
	s.LastCut().Merge(w) // want `Merge mutates its receiver`
}

func goodLastCutClone(s *Store) VC {
	c := s.LastCut().Clone()
	c[0] = 7
	return c
}

func goodCloneThenWrite(s *Store) VC {
	c := s.Cut().Clone()
	c[0] = 7
	return c
}

func goodRebind(e Event) VC {
	v := e.VC
	v = v.Clone()
	v[0] = 1
	return v
}

func goodAppendCopy(e Event) VC {
	v := append(VC(nil), e.VC...)
	v[0] = 1
	return v
}

func goodOwned() VC {
	v := make(VC, 3)
	v[0] = 1
	v.Tick(1)
	return v
}

func goodWholeFieldAssign(e *Event, v VC) {
	e.VC = v.Clone() // ownership transfer, not element mutation
}

func goodReadOnly(e Event, w VC) bool {
	x := e.VC
	return len(x) == len(w) && x[0] == w[0]
}

// The box kernel's shape (internal/core/boxdp.go): nodes live in a flat arena
// that the next sweep reuses; cuts are windows into it.
type pivot struct {
	q   int
	cut VC
}

type frontier struct{ cuts []int }

type result struct {
	pivots []pivot
	last   VC
}

func badPivotAliasesArena(f *frontier, res *result, i, n int) {
	lift := VC(f.cuts[i*n : (i+1)*n])
	lift[0]++                                               // the owner completes the lift in place: fine
	res.pivots = append(res.pivots, pivot{q: 1, cut: lift}) // want `composite literal retains a window into a reusable arena`
}

func badPivotAliasesArenaDirect(f *frontier, i, n int) pivot {
	return pivot{2, VC(f.cuts[i*n : (i+1)*n])} // want `composite literal retains a window into a reusable arena`
}

func badWindowAppended(f *frontier, cuts []VC, n int) []VC {
	w := VC(f.cuts[:n])
	return append(cuts, w) // want `append retains a window into a reusable arena`
}

func badWindowInField(f *frontier, res *result, n int) {
	res.last = VC(f.cuts[:n]) // want `field retains a window into a reusable arena`
}

func goodPivotClonesWindow(f *frontier, res *result, i, n int) {
	lift := VC(f.cuts[i*n : (i+1)*n])
	res.pivots = append(res.pivots, pivot{q: 1, cut: lift.Clone()})
}

func goodWindowRebound(f *frontier, res *result, n int) {
	w := VC(f.cuts[:n])
	w = w.Clone()
	res.last = w
}

func goodWindowReadOnly(f *frontier, hi VC, n int) bool {
	cut := VC(f.cuts[:n])
	return cut[0] < hi[0]
}
