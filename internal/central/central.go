// Package central implements the centralized monitoring baseline of
// Fig. 1.1(a): every program process ships each of its events to a single
// monitor node, which orders them with vector clocks and evaluates the LTL3
// property over the computation lattice *online*, incrementally expanding
// the lattice as events arrive.
//
// It is verdict-set-equal to the Chapter-3 oracle by construction and
// serves as the baseline the decentralized algorithm is compared against in
// the ablation benchmarks: a single point of failure, n·|E| messages into
// one node, and all exploration on one machine.
package central

import (
	"context"
	"fmt"
	"io"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/vclock"
)

// Monitor is an online centralized monitor. Feed events in any order that
// respects per-process sequence numbering; the monitor incrementally
// expands every consistent cut reachable with the events seen so far.
type Monitor struct {
	mon  *automaton.Monitor
	pm   *dist.PropMap // mon's propositions, bound to the process space
	n    int
	init dist.GlobalState

	events [][]*dist.Event
	done   []bool
	total  []int

	nodes map[string]*node
	// waiting[waitKey{p,sn}] lists nodes whose expansion needs event (p,sn).
	waiting map[waitKey][]*node

	conclusive map[int]bool
	// firstConclusiveEvents counts how many events had been delivered when
	// the first conclusive verdict was detected (detection latency in
	// events; -1 until detection).
	firstConclusiveEvents int
	delivered             int

	nodesCreated int
}

type node struct {
	cut    vclock.VC
	states stateset
}

type waitKey struct{ proc, sn int }

// New creates a centralized monitor for the property over an n-process
// program with the given initial global state. pm must declare every
// proposition mon reads; the monitor's letters are read through it by name
// (dist.PropMap.Restrict).
func New(mon *automaton.Monitor, pm *dist.PropMap, n int, init dist.GlobalState) (*Monitor, error) {
	letters, err := pm.Restrict(mon.Props)
	if err != nil {
		return nil, err
	}
	m := &Monitor{
		mon:                   mon,
		pm:                    letters,
		n:                     n,
		init:                  init.Clone(),
		events:                make([][]*dist.Event, n),
		done:                  make([]bool, n),
		total:                 make([]int, n),
		nodes:                 map[string]*node{},
		waiting:               map[waitKey][]*node{},
		conclusive:            map[int]bool{},
		firstConclusiveEvents: -1,
	}
	start := &node{cut: vclock.New(n), states: newStateset(mon.NumStates())}
	q0 := mon.Step(mon.Initial(), letters.Letter(init))
	start.states.set(q0)
	m.nodes[start.cut.Key()] = start
	m.nodesCreated = 1
	if mon.Final(q0) {
		m.recordConclusive(q0)
	}
	m.expand(start)
	return m, nil
}

// Feed delivers one event to the central node. Events of one process must
// arrive in sequence-number order (the FIFO channel from that process).
func (m *Monitor) Feed(e *dist.Event) error {
	if e.SN != len(m.events[e.Proc])+1 {
		return fmt.Errorf("central: process %d event %d out of order (have %d)", e.Proc, e.SN, len(m.events[e.Proc]))
	}
	m.events[e.Proc] = append(m.events[e.Proc], e)
	m.delivered++
	key := waitKey{e.Proc, e.SN}
	pending := m.waiting[key]
	delete(m.waiting, key)
	for _, nd := range pending {
		m.expandOn(nd, e.Proc)
	}
	return nil
}

// End marks one process as terminated.
func (m *Monitor) End(proc, total int) {
	m.done[proc] = true
	m.total[proc] = total
}

// expand tries every process direction from a node.
func (m *Monitor) expand(nd *node) {
	for p := 0; p < m.n; p++ {
		m.expandOn(nd, p)
	}
}

// expandOn extends nd by the next event of process p if it is known and the
// resulting cut is consistent; otherwise it registers the node as waiting.
func (m *Monitor) expandOn(nd *node, p int) {
	next := nd.cut[p] + 1
	if next > len(m.events[p]) {
		if !m.done[p] {
			m.waiting[waitKey{p, next}] = append(m.waiting[waitKey{p, next}], nd)
		}
		return
	}
	e := m.events[p][next-1]
	for j := 0; j < m.n; j++ {
		lim := nd.cut[j]
		if j == p {
			lim++
		}
		if e.VC[j] > lim {
			return // inconsistent extension; a different order will cover it
		}
	}
	cut := nd.cut.Clone()
	cut[p] = next
	key := cut.Key()
	succ, ok := m.nodes[key]
	fresh := !ok
	if !ok {
		succ = &node{cut: cut, states: newStateset(m.mon.NumStates())}
		m.nodes[key] = succ
		m.nodesCreated++
	}
	letter := m.letterAt(cut)
	changed := false
	for st := 0; st < m.mon.NumStates(); st++ {
		if !nd.states.has(st) {
			continue
		}
		nq := m.mon.Step(st, letter)
		if !succ.states.has(nq) {
			succ.states.set(nq)
			changed = true
			if m.mon.Final(nq) {
				m.recordConclusive(nq)
			}
		}
	}
	if fresh || changed {
		m.expand(succ)
	}
}

func (m *Monitor) letterAt(cut vclock.VC) uint32 {
	g := make(dist.GlobalState, m.n)
	for p := 0; p < m.n; p++ {
		if cut[p] == 0 {
			g[p] = m.init[p]
		} else {
			g[p] = m.events[p][cut[p]-1].State
		}
	}
	return m.pm.Letter(g)
}

func (m *Monitor) recordConclusive(q int) {
	if !m.conclusive[q] {
		m.conclusive[q] = true
		if m.firstConclusiveEvents < 0 {
			m.firstConclusiveEvents = m.delivered
		}
	}
}

// Result summarizes a finished centralized run.
type Result struct {
	// Verdicts at the final cut (the oracle verdict set).
	Verdicts map[automaton.Verdict]bool
	// Messages is the number of events shipped to the central node when it
	// is co-located with process 0 (events of other processes only).
	Messages int
	// NodesCreated counts lattice nodes materialized (memory overhead).
	NodesCreated int
	// FirstConclusiveEvents is the number of delivered events before the
	// first conclusive detection (-1 if none).
	FirstConclusiveEvents int
}

// Finish computes the final verdict set; every process must have been fed
// completely and marked done.
func (m *Monitor) Finish() (*Result, error) {
	final := vclock.New(m.n)
	msgs := 0
	for p := 0; p < m.n; p++ {
		if !m.done[p] || m.total[p] != len(m.events[p]) {
			return nil, fmt.Errorf("central: process %d incomplete (%d/%d, done=%v)", p, len(m.events[p]), m.total[p], m.done[p])
		}
		final[p] = m.total[p]
		if p != 0 {
			msgs += m.total[p]
		}
	}
	fin, ok := m.nodes[final.Key()]
	if !ok {
		return nil, fmt.Errorf("central: final cut %v never reached", final)
	}
	res := &Result{
		Verdicts:              map[automaton.Verdict]bool{},
		Messages:              msgs,
		NodesCreated:          m.nodesCreated,
		FirstConclusiveEvents: m.firstConclusiveEvents,
	}
	for st := 0; st < m.mon.NumStates(); st++ {
		if fin.states.has(st) {
			res.Verdicts[m.mon.VerdictOf(st)] = true
		}
	}
	for q := range m.conclusive {
		res.Verdicts[m.mon.VerdictOf(q)] = true
	}
	return res, nil
}

// Run replays a complete trace set through a centralized monitor in global
// timestamp order (the arrival order at the central node).
func Run(ts *dist.TraceSet, mon *automaton.Monitor) (*Result, error) {
	return RunStream(ts.Stream(), mon)
}

// RunStream feeds an event stream (already in global timestamp order, the
// arrival order at the central node) into a centralized monitor and
// finishes it when the stream ends. The lattice expansion itself still
// grows with the execution; for a truly memory-bounded streaming evaluation
// see RunPath.
func RunStream(src dist.EventSource, mon *automaton.Monitor) (*Result, error) {
	return RunStreamContext(context.Background(), src, mon)
}

// RunStreamContext is RunStream with cancellation: the feed loop checks ctx
// between events, so cancelling aborts long replays promptly.
func RunStreamContext(ctx context.Context, src dist.EventSource, mon *automaton.Monitor) (*Result, error) {
	n := src.N()
	m, err := New(mon, src.Props(), n, src.Init())
	if err != nil {
		return nil, err
	}
	counts := make([]int, n)
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
		if e.Proc < 0 || e.Proc >= n {
			return nil, fmt.Errorf("central: stream event of nonexistent process %d", e.Proc)
		}
		if err := m.Feed(e); err != nil {
			return nil, err
		}
		counts[e.Proc]++
	}
	for p := 0; p < n; p++ {
		m.End(p, counts[p])
	}
	// A process may have terminated with nodes still waiting on its next
	// (never-arriving) event; they are complete as-is.
	return m.Finish()
}

// stateset mirrors the small bitset used elsewhere.
type stateset []uint64

func newStateset(n int) stateset { return make(stateset, (n+63)/64) }

func (s stateset) set(i int)      { s[i/64] |= 1 << (i % 64) }
func (s stateset) has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }
