package core

// Termination: one wave over a star rooted at monitor 0.
//
// TERM. A monitor whose process ends records its own total; a non-root
// monitor also sends it to the root, and to no one else. The root, once it
// knows every process's total, sends each peer the n-entry vector of totals
// in one broadcast, and a peer that receives it knows every total. FINI. A
// monitor that is quiescent — every total known, no search or fetch of its own
// outstanding, finalized unless SkipFinalize — announces FINI: a non-root
// monitor to the root alone; the root, once it has announced its own and heard
// every peer's, to every peer. A monitor exits when it has announced FINI and
// knows every FINI: the root when it broadcasts, a peer when the root's FINI
// arrives. That is n−1 reports and n−1 vectors, n−1 FINIs in and n−1 out:
// 4(n−1) messages per session whatever the schedule, and none at n = 1.
//
// Why a peer may exit on the root's FINI. FINI is stable: a monitor's
// knowledge grows only by its own events, its own tokens returning and replies
// to its own fetches, and when it announces FINI its process has ended and
// none of those is outstanding, so it starts no search and sends no fetch
// again. Every message a monitor must still handle belongs to some
// monitor's outstanding work — a token to its parent's search, a fetch and its
// reply to the requester — and is sent and handled before that monitor can be
// quiescent, so before its FINI, so before the root's FINI, which the root
// sends only after hearing every FINI. The root's FINI therefore reaches a
// peer causally after everything the peer must handle. What can still be
// queued when it leaves is a floor announcement, which only lets a peer
// collect history, and the session is over. (Such a message is counted as
// sent and never as handled, which is why the snapshot barrier also accepts a
// fleet whose monitors have all exited: Session.awaitQuiescence.)
//
// The routing is checked, not trusted: a report or a FINI that reaches a
// non-root monitor from anyone but the root, a vector that reaches the root or
// is not n wide, a second report from one process and a root FINI before a
// peer's own all fail the session. The record a snapshot keeps is unchanged:
// peerDone[j] means j's total is known here, peerFini[j] that j's FINI is, and
// the root's broadcasts need no flag of their own because each happens in the
// handler that completes its condition.

import (
	"fmt"

	"decentmon/internal/vclock"
	"decentmon/internal/wire"
)

// root is the monitor the termination wave is gathered at and sent from.
const root = 0

// handshake is the termination protocol's state: what this monitor knows of
// every process having ended (localDone/localTotal for its own, peerDone for
// all), whether it has finalized and announced FINI, and whose FINI it has
// heard. The run loop ends when finished() holds.
type handshake struct {
	localDone  bool
	localTotal int
	peerDone   []bool
	peerFini   []bool
	finiSent   bool
	finalized  bool
	finalizing bool // the fetch to the final cut is in flight
}

func newHandshake(n int) handshake {
	return handshake{peerDone: make([]bool, n), peerFini: make([]bool, n)}
}

func (m *Monitor) handleLocalTermination(total int) {
	m.floors.inputSeq++
	m.handshake.localDone = true
	m.handshake.localTotal = total
	m.noteTotal(m.index, total)
	if m.index != root {
		m.send(root, &wireMsg{Kind: msgTerm, Term: &termWire{Proc: m.index, Total: total}})
	}
	m.serveWaiters()
}

// noteTotal records that process p ended after total events. At the root,
// the total that completes the set sends every peer the vector of all of them.
func (m *Monitor) noteTotal(p, total int) {
	hs := &m.handshake
	m.know.markDone(p, total)
	hs.peerDone[p] = true
	if m.index != root || !allSet(hs.peerDone) {
		return
	}
	totals := make([]int, m.cfg.N)
	copy(totals, m.know.final)
	// One broadcast, not n−1 sends of one envelope: deliver writes the
	// envelope's Floor, which must not change once a peer holds it.
	m.broadcast(&wireMsg{Kind: msgTerm, Term: &termWire{Proc: root, Total: hs.localTotal, Totals: totals}})
}

// handleTerm takes a term message: at the root a peer's own total, at a peer
// the root's vector of every total.
func (m *Monitor) handleTerm(t *termWire) {
	hs, n := &m.handshake, m.cfg.N
	switch {
	case m.index == root && len(t.Totals) > 0:
		m.fail(fmt.Errorf("core: monitor %d: a totals vector reached the root", m.index))
	case m.index == root && (t.Proc <= root || t.Proc >= n || hs.peerDone[t.Proc]):
		m.fail(fmt.Errorf("core: monitor %d: unexpected term from process %d", m.index, t.Proc))
	case m.index == root:
		m.noteTotal(t.Proc, t.Total)
	case t.Proc != root:
		m.fail(fmt.Errorf("core: monitor %d: term from monitor %d, which is not the root", m.index, t.Proc))
	case len(t.Totals) != n:
		m.fail(fmt.Errorf("core: monitor %d: totals vector of width %d, want %d", m.index, len(t.Totals), n))
	case !hs.localDone || t.Totals[m.index] != hs.localTotal:
		m.fail(fmt.Errorf("core: monitor %d: totals vector disagrees with its own termination", m.index))
	default:
		for p, total := range t.Totals {
			m.noteTotal(p, total)
		}
	}
}

// maybeFinalize extends every surviving view — and every retained residual —
// to the global final cut once everything has terminated and all searches are
// resolved, so the monitor's verdict set covers the paths it traced
// end-to-end, including inconclusive interleavings whose chained prefix was
// absorbed by a conclusive step. Inconclusive final states report the
// originating view's (or residual's) cut — the last verified consistent cut
// of the path, meaningful provenance — rather than the global final cut.
func (m *Monitor) maybeFinalize() {
	hs := &m.handshake
	if m.cfg.SkipFinalize || hs.finalized {
		return
	}
	if !m.quiescent() {
		return
	}
	// With no surviving views and no residuals there is nothing to extend:
	// finalize without fetching. (Also a GC invariant: such a monitor has
	// reported an infinite need-floor, so peers may already have collected
	// the history a blanket fetch-to-final would request. Residual cuts are
	// folded into needFloor, so the symmetric argument keeps the fetches
	// below safe.)
	if len(m.views.gvs) == 0 && len(m.views.residuals) == 0 {
		hs.finalized = true
		return
	}
	final, ok := m.know.finalCut()
	if !ok {
		return
	}
	if !m.know.covers(final) {
		hs.finalizing = true
		m.requestKnowledge(final)
		return
	}
	hs.finalizing = false
	extend := func(states stateset, cut vclock.VC) bool {
		box, err := m.explore(states, cut, final)
		if err != nil {
			m.fail(err)
			return false
		}
		for _, c := range box.conclusive {
			m.recordVerdictState(c.q, c.cut)
		}
		for _, q := range box.finalStates {
			if m.mon.Final(q) {
				m.recordVerdictState(q, final)
			} else {
				m.recordVerdictState(q, cut)
			}
		}
		return true
	}
	for _, key := range m.gvKeys() {
		gv := m.views.gvs[key]
		if !extend(gv.states, gv.cut) {
			return
		}
	}
	for _, key := range m.residualKeys() {
		r := m.views.residuals[key]
		if !extend(r.states, r.cut) {
			return
		}
	}
	m.views.residuals = map[string]*residualView{}
	hs.finalized = true
}

// quiescent reports whether this monitor has no pending work of its own.
func (m *Monitor) quiescent() bool {
	return m.handshake.localDone && len(m.searches.table) == 0 && len(m.searches.inflightFetch) == 0 &&
		allSet(m.handshake.peerDone)
}

func (m *Monitor) maybeFini() {
	hs := &m.handshake
	if hs.finiSent || !m.quiescent() {
		return
	}
	if !m.cfg.SkipFinalize && !hs.finalized {
		return
	}
	// Without finalization, a surviving inconclusive view means some traced
	// path never concluded: report '?' (through recordVerdictState so
	// verdict subscribers see it too).
	if m.cfg.SkipFinalize {
		for _, key := range m.gvKeys() {
			gv := m.views.gvs[key]
			for _, q := range gv.states.members(m.mon.NumStates()) {
				m.recordVerdictState(q, gv.cut)
			}
		}
	}
	hs.finiSent = true
	hs.peerFini[m.index] = true
	if m.index == root {
		m.maybeAnnounceFini()
	} else {
		m.send(root, &wireMsg{Kind: msgFini, Fini: m.index})
	}
}

// handleFini takes a FINI: at the root a peer's, at a peer the root's, which
// stands for every monitor's.
func (m *Monitor) handleFini(from int) {
	hs := &m.handshake
	switch {
	case m.index == root && from > root && from < m.cfg.N && !hs.peerFini[from]:
		hs.peerFini[from] = true
		m.maybeAnnounceFini()
	case m.index != root && from == root && hs.finiSent:
		for j := range hs.peerFini {
			hs.peerFini[j] = true
		}
	default:
		m.fail(fmt.Errorf("core: monitor %d: unexpected fini from monitor %d", m.index, from))
	}
}

// maybeAnnounceFini sends the root's FINI to every peer once it has announced
// its own and heard every peer's; the root then exits.
func (m *Monitor) maybeAnnounceFini() {
	if m.finished() {
		m.broadcast(&wireMsg{Kind: msgFini, Fini: root})
	}
}

func allSet(bs []bool) bool {
	for _, b := range bs {
		if !b {
			return false
		}
	}
	return true
}

func (m *Monitor) finished() bool {
	return m.handshake.finiSent && allSet(m.handshake.peerFini)
}

// --- snapshot record ---

func (h *handshake) appendTo(b []byte) []byte {
	var flags byte
	for i, set := range []bool{h.localDone, h.finiSent, h.finalized, h.finalizing} {
		if set {
			flags |= 1 << i
		}
	}
	b = wire.AppendInts(append(b, flags), h.localTotal)
	return appendBools(appendBools(b, h.peerDone), h.peerFini)
}

func (h *handshake) restore(d *wire.Cursor, _ *Monitor) error {
	flags := d.Byte()
	h.localDone = flags&(1<<0) != 0
	h.finiSent = flags&(1<<1) != 0
	h.finalized = flags&(1<<2) != 0
	h.finalizing = flags&(1<<3) != 0
	h.localTotal = d.Int()
	readBools(d, h.peerDone)
	readBools(d, h.peerFini)
	if d.Err() == nil && flags>>4 != 0 {
		return fmt.Errorf("handshake flags %#x out of range", flags)
	}
	return d.Err()
}
