// Package a is the sharedevent fixture: writes through *dist.Event, which
// every monitor of a session shares, against the forms that stay private.
package a

import (
	"decentmon/internal/dist"
	"decentmon/internal/vclock"
)

type store struct {
	events []*dist.Event
	last   *dist.Event
}

func badParamField(e *dist.Event) {
	e.State = 3 // want `write through a \*dist.Event`
}

func badIncrement(e *dist.Event) {
	e.SN++ // want `write through a \*dist.Event`
}

func badWholeEvent(e *dist.Event, other dist.Event) {
	*e = other // want `write through a \*dist.Event`
}

func badSliceElement(s *store, i int) {
	s.events[i].Time = 1.5 // want `write through a \*dist.Event`
}

func badStructField(s *store) {
	s.last.Peer = -1 // want `write through a \*dist.Event`
}

func badClockReplaced(e *dist.Event, vc vclock.VC) {
	e.VC = vc.Clone() // want `write through a \*dist.Event`
}

func badAliasOfShared(s *store) {
	e := s.last
	e.MsgID = 7 // want `write through a \*dist.Event`
}

func badReboundToShared(s *store) {
	e := &dist.Event{Proc: 1}
	e = s.last
	e.MsgID = 7 // want `write through a \*dist.Event`
}

func badInClosure(s *store) func() {
	return func() {
		s.last.Type = dist.Send // want `write through a \*dist.Event`
	}
}

func badMultiAssign(e *dist.Event) {
	e.Proc, e.SN = 1, 2 // want `write through a \*dist.Event` `write through a \*dist.Event`
}

func goodFreshLiteral(p int, vc vclock.VC) *dist.Event {
	e := &dist.Event{Proc: p}
	e.SN = vc[p]
	e.VC = vc.Clone()
	return e
}

func goodFreshNew() *dist.Event {
	e := new(dist.Event)
	e.Peer = -1
	return e
}

func goodFreshVar() *dist.Event {
	var e = &dist.Event{}
	e.Time = 2
	return e
}

func goodPrivateCopy(e *dist.Event) *dist.Event {
	c := *e // a value: the copy is ours
	c.SN = 9
	c.VC = e.VC.Clone()
	return &c
}

func goodValueParam(e dist.Event) dist.Event {
	e.State = 1
	return e
}

func goodSlabElement(slab []dist.Event) {
	slab[0].Proc = 2 // storage the caller owns by value
}

func goodReadOnly(e *dist.Event, s *store) bool {
	return e.SN == s.last.SN && e.VC[0] <= s.last.VC[0]
}

func goodOtherPointers(s *store, e *dist.Event) {
	s.last = e // rebinding a pointer field of our own struct writes no event
	s.events = append(s.events, e)
}
