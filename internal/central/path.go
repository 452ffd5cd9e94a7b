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
// evaluation behind dlmon's bounded-memory mode.
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
// rejects violations instead of silently evaluating a non-path.
func (m *PathMonitor) Feed(e *dist.Event) error {
	if e.Proc < 0 || e.Proc >= len(m.counts) {
		return fmt.Errorf("central: path event of nonexistent process %d", e.Proc)
	}
	if e.SN != m.counts[e.Proc]+1 {
		return fmt.Errorf("central: process %d event %d out of order (have %d)", e.Proc, e.SN, m.counts[e.Proc])
	}
	for j := range m.counts {
		if j != e.Proc && j < len(e.VC) && e.VC[j] > m.counts[j] {
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

// RunPathContext is RunPath with cancellation, checked between events.
func RunPathContext(ctx context.Context, src dist.EventSource, mon *automaton.Monitor) (*PathResult, error) {
	m := NewPath(mon, src.Props(), src.N(), src.Init())
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
