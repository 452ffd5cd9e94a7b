package central

import (
	"context"
	"fmt"
	"io"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
)

// PathMonitor evaluates the property along a single path of the computation
// lattice: the physical-time linearization the event stream delivers. Every
// stream produced by this package's tooling (dist.StreamFile, the workload
// generator) is such a linearization, so the sequence of cuts obtained by
// applying the events in arrival order is a maximal lattice path and the
// monitor's verdict is one element of the oracle's verdict set — sound, but
// (unlike the full lattice exploration) blind to verdicts that only other
// interleavings reach.
//
// Its state is one automaton state, one global valuation, and one sequence
// counter per process — O(n) memory regardless of trace length. This is the
// evaluation behind dlmon -bounded and decentmon.RunBounded.
type PathMonitor struct {
	mon    *automaton.Monitor
	pm     *dist.PropMap
	g      dist.GlobalState
	counts []int
	state  int
	events int64
	// firstConclusive is the number of events consumed when the verdict
	// first became conclusive (-1 until then).
	firstConclusive int64
}

// NewPath creates a path monitor for an n-process execution starting in the
// given initial global state.
func NewPath(mon *automaton.Monitor, pm *dist.PropMap, n int, init dist.GlobalState) *PathMonitor {
	m := &PathMonitor{
		mon:             mon,
		pm:              pm,
		g:               init.Clone(),
		counts:          make([]int, n),
		firstConclusive: -1,
	}
	m.state = mon.Step(mon.Initial(), pm.Letter(m.g))
	if mon.Final(m.state) {
		m.firstConclusive = 0
	}
	return m
}

// Feed applies one event: the owning process's valuation changes and the
// automaton takes one step on the new global letter. Events of one process
// must arrive in sequence-number order, and no event may precede one it
// causally depends on — the cut sequence is a lattice path (and the verdict
// a member of the oracle set) only for causally ordered feeds, so Feed
// rejects violations instead of silently evaluating a non-path. It also
// refuses a clock that is not n entries wide or disagrees with the event's
// sequence number, as the decentralized engine's admission check does.
func (m *PathMonitor) Feed(e *dist.Event) error {
	n := len(m.counts)
	switch {
	case e == nil:
		return fmt.Errorf("central: path fed a nil event")
	case e.Proc < 0 || e.Proc >= n:
		return fmt.Errorf("central: path event of nonexistent process %d", e.Proc)
	case len(e.VC) != n:
		return fmt.Errorf("central: event %d of process %d has a %d-entry clock, path has %d processes", e.SN, e.Proc, len(e.VC), n)
	case e.VC[e.Proc] != e.SN:
		return fmt.Errorf("central: event %d of process %d disagrees with its clock %v", e.SN, e.Proc, e.VC)
	case e.SN != m.counts[e.Proc]+1:
		return fmt.Errorf("central: process %d event %d out of order (have %d)", e.Proc, e.SN, m.counts[e.Proc])
	}
	for j := range m.counts {
		if j != e.Proc && e.VC[j] > m.counts[j] {
			return fmt.Errorf("central: path feed is not causally ordered: process %d event %d depends on undelivered event %d of process %d",
				e.Proc, e.SN, e.VC[j], j)
		}
	}
	m.counts[e.Proc] = e.SN
	m.g[e.Proc] = e.State
	m.state = m.mon.Step(m.state, m.pm.Letter(m.g))
	m.events++
	if m.firstConclusive < 0 && m.mon.Final(m.state) {
		m.firstConclusive = m.events
	}
	return nil
}

// Verdict returns the automaton verdict at the current cut.
func (m *PathMonitor) Verdict() automaton.Verdict { return m.mon.VerdictOf(m.state) }

// State returns the automaton state at the current cut.
func (m *PathMonitor) State() int { return m.state }

// Cut returns the current cut (events consumed per process).
func (m *PathMonitor) Cut() []int { return append([]int(nil), m.counts...) }

// PathResult summarizes a finished single-path evaluation.
type PathResult struct {
	// Verdict is the LTL3 verdict at the end of the path — always a member
	// of the oracle's verdict set for the same execution.
	Verdict automaton.Verdict
	// Events is the number of events consumed.
	Events int64
	// FirstConclusiveEvents is the number of events consumed before the
	// verdict became conclusive (-1 if it never did).
	FirstConclusiveEvents int64
}

// Finish returns the path verdict and counters.
func (m *PathMonitor) Finish() *PathResult {
	return &PathResult{
		Verdict:               m.Verdict(),
		Events:                m.events,
		FirstConclusiveEvents: m.firstConclusive,
	}
}

// RunPath drains an event source through a PathMonitor. Combined with a
// streaming reader it monitors arbitrarily long executions in memory
// independent of trace length.
func RunPath(src dist.EventSource, mon *automaton.Monitor) (*PathResult, error) {
	return RunPathContext(context.Background(), src, mon)
}

// RunPathContext is RunPath with cancellation, checked between events. The
// source's header is checked as the decentralized engine checks a session's:
// at least one process, every proposition owned by one of them, and an
// initial state n entries wide (a nil one is all-zero).
func RunPathContext(ctx context.Context, src dist.EventSource, mon *automaton.Monitor) (*PathResult, error) {
	n, pm, init := src.N(), src.Props(), src.Init()
	if n < 1 {
		return nil, fmt.Errorf("central: path needs at least one process, source has %d", n)
	}
	if pm == nil {
		return nil, fmt.Errorf("central: source has no proposition map")
	}
	for i, owner := range pm.Owner {
		if owner < 0 || owner >= n {
			return nil, fmt.Errorf("central: proposition %q owned by process %d, path has %d", pm.Names[i], owner, n)
		}
	}
	if init == nil {
		init = make(dist.GlobalState, n)
	}
	if len(init) != n {
		return nil, fmt.Errorf("central: initial state has %d entries, path has %d processes", len(init), n)
	}
	m := NewPath(mon, pm, n, init)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := m.Feed(e); err != nil {
			return nil, err
		}
	}
	return m.Finish(), nil
}
