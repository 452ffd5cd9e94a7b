package core

import (
	"fmt"

	"decentmon/internal/vclock"
	"decentmon/internal/wire"
)

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
	m.know.markDone(m.cfg.Index, total)
	m.handshake.peerDone[m.cfg.Index] = true
	m.broadcast(&wireMsg{Kind: msgTerm, Term: &termWire{Proc: m.cfg.Index, Total: total}})
	m.serveWaiters()
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
	if !m.cfg.FinalizeFull || hs.finalized {
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
	if !m.handshake.localDone || len(m.searches.table) > 0 || len(m.searches.inflightFetch) > 0 {
		return false
	}
	for _, d := range m.handshake.peerDone {
		if !d {
			return false
		}
	}
	return true
}

func (m *Monitor) maybeFini() {
	hs := &m.handshake
	if hs.finiSent || !m.quiescent() {
		return
	}
	if m.cfg.FinalizeFull && !hs.finalized {
		return
	}
	// Without finalization, a surviving inconclusive view means some traced
	// path never concluded: report '?' (through recordVerdictState so
	// verdict subscribers see it too).
	if !m.cfg.FinalizeFull {
		for _, key := range m.gvKeys() {
			gv := m.views.gvs[key]
			for _, q := range gv.states.members(m.mon.NumStates()) {
				m.recordVerdictState(q, gv.cut)
			}
		}
	}
	hs.finiSent = true
	hs.peerFini[m.cfg.Index] = true
	m.broadcast(&wireMsg{Kind: msgFini, Fini: m.cfg.Index})
}

func (m *Monitor) finished() bool {
	if !m.handshake.finiSent {
		return false
	}
	for _, f := range m.handshake.peerFini {
		if !f {
			return false
		}
	}
	return true
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
