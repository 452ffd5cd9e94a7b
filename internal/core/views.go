package core

import (
	"fmt"
	"math/bits"

	"decentmon/internal/dist"
	"decentmon/internal/vclock"
	"decentmon/internal/wire"
)

// globalView is one point of the exploration: the set of automaton states
// reachable at the consistent cut via verified lattice paths (§4.2). Keeping
// a *set* per cut — rather than one view per state — is what realizes the
// paper's bound that live views stay proportional to the automaton width
// ("the monitor process maintains a set of possible evaluation verdicts"):
// views at the same cut always merge (MergeSimilarGlobalViews).
type globalView struct {
	states  stateset
	cut     vclock.VC
	gstate  dist.GlobalState
	letter  uint32    // cached monitor letter at gstate (letterTable-maintained)
	lastSig string    // §4.3.2: last possibly-enabled-transition signature
	blocked vclock.VC // non-nil: awaiting knowledge covering this cut
}

func gvKey(cut vclock.VC) string { return cut.Key() }

// residualView is the pre-absorption remnant of a global view: the states
// that concluded at cut by this monitor's own chain, kept so finalization can
// re-explore their *other* extensions (which may stay inconclusive to the
// final cut). Both fields are owned clones, never aliased into a live view.
type residualView struct {
	states stateset
	cut    vclock.VC
}

// views is the exploration frontier, both maps keyed by cut.
type views struct {
	gvs map[string]*globalView

	// residuals retain, per cut, the automaton states that stepped into a
	// conclusive (absorbing) state there. A conclusive step ends the *view's*
	// path, but other interleavings extending the same prefix may avoid the
	// conclusion entirely; finalization explores each residual to the global
	// final cut so those inconclusive paths still report (the finalization-?
	// completeness gap surfaced by the PR 5 gauntlet: property D, ring, n=5,
	// seed 2015). Residual cuts join the need-floor so GC keeps the history
	// the finalize-time exploration will walk.
	residuals map[string]*residualView
}

func newViews() views {
	return views{gvs: map[string]*globalView{}, residuals: map[string]*residualView{}}
}

// addGV inserts a global view, implementing MergeSimilarGlobalViews
// (Algorithm 2): views at the same cut merge by unioning their state sets.
// counted controls whether the view increments the Fig. 5.8 fork metric.
func (m *Monitor) addGV(states stateset, cut vclock.VC, gstate dist.GlobalState, counted bool) *globalView {
	sc := &m.scratch
	sc.keyBuf = cut.AppendKey(sc.keyBuf[:0])
	if gv, ok := m.views.gvs[string(sc.keyBuf)]; ok { // allocation-free probe
		if gv.states.or(states) {
			gv.lastSig = "" // the enabled-set signature may have changed
			if counted {
				m.metrics.GlobalViewsCreated++
			}
		}
		return gv
	}
	gv := &globalView{states: states, cut: cut, gstate: gstate, letter: m.lt.letter(gstate)}
	m.views.gvs[string(sc.keyBuf)] = gv // insertion materializes the key
	if counted {
		m.metrics.GlobalViewsCreated++
	}
	return gv
}

// gvKeys snapshots the live view keys in deterministic order. The returned
// slice is the monitor's scratch.keys: valid until the next gvKeys or
// residualKeys call, which is fine for its callers (each finishes iterating
// before calling again, and advanceGV never calls either).
func (m *Monitor) gvKeys() []string {
	m.scratch.keys = sortedKeys(m.scratch.keys, m.views.gvs)
	return m.scratch.keys
}

// residualKeys is gvKeys for the residual cuts, on the same scratch.
func (m *Monitor) residualKeys() []string {
	m.scratch.keys = sortedKeys(m.scratch.keys, m.views.residuals)
	return m.scratch.keys
}

// advanceGV applies pending local events to one view (ProcessEvent,
// Algorithm 2): consistent events step every state of the view exactly; a
// receive whose clock outruns the cut triggers exploration of its causal
// closure. After every advance the view (re-)launches outgoing-transition
// searches.
func (m *Monitor) advanceGV(key string, gv *globalView) bool {
	i := m.cfg.Index
	sc := &m.scratch
	if gv.blocked != nil {
		if !m.know.covers(gv.blocked) {
			return false
		}
		gv.blocked = nil
	}
	changed := false
	for {
		next := gv.cut[i] + 1
		if next > m.know.len(i) {
			break
		}
		if m.know.consistentStep(gv.cut, i) {
			e := m.know.event(i, next)
			delete(m.views.gvs, key)
			gv.cut[i] = next
			gv.gstate[i] = e.State
			gv.letter = m.lt.update(gv.letter, i, e.State)
			// Step every state of the view word-wise into the recycled
			// scratch set; the view's old set becomes the next scratch.
			ns := sc.states
			ns.clear()
			var absorbed stateset
			for w, word := range gv.states {
				for word != 0 {
					q := w*64 + bits.TrailingZeros64(word)
					word &= word - 1
					nq := m.mon.Step(q, gv.letter)
					if m.mon.Final(nq) {
						m.recordVerdictState(nq, gv.cut)
						// Conclusive states are absorbing: stop tracing this
						// chain. Other interleavings from q's cut may avoid
						// the conclusion entirely; keep q as a residual so
						// finalization re-explores them.
						if m.cfg.FinalizeFull {
							if absorbed == nil {
								absorbed = newStateset(m.mon.NumStates())
							}
							absorbed.set(q)
						}
						continue
					}
					ns.set(nq)
				}
			}
			if absorbed != nil {
				pre := gv.cut.Clone()
				pre[i] = next - 1
				m.retainResidual(absorbed, pre)
			}
			if ns.empty() {
				return true // every chained path concluded; residuals keep the rest
			}
			sc.states = gv.states
			gv.states = ns
			sc.keyBuf = gv.cut.AppendKey(sc.keyBuf[:0])
			if other, dup := m.views.gvs[string(sc.keyBuf)]; dup && other != gv {
				other.states.or(gv.states) // merge into the resident view
				return true
			}
			key = string(sc.keyBuf) // insertion materializes the key
			m.views.gvs[key] = gv
			changed = true
			m.maybeLaunchSearches(gv)
			continue
		}
		// Receive gap: the event's causal history includes unseen peer
		// events. Absorb the whole closure at once via a box exploration.
		e := m.know.event(i, next)
		target := vclock.Max(gv.cut, e.VC)
		if !m.know.covers(target) {
			m.requestKnowledge(target)
			gv.blocked = target
			return changed
		}
		box, err := m.explore(gv.states, gv.cut, target)
		if err != nil {
			m.fail(err)
			return changed
		}
		delete(m.views.gvs, key)
		m.integrateBox(box, gv.states, target)
		return true
	}
	return changed
}

// retainResidual records states absorbed by a conclusive step at cut, for
// finalize-time re-exploration; residuals at the same cut merge like views
// (MergeSimilarGlobalViews). The caller must own both arguments: they are
// retained verbatim and the cut joins the need-floor, so aliasing a live
// view's storage here would corrupt the GC argument.
func (m *Monitor) retainResidual(states stateset, cut vclock.VC) {
	sc := &m.scratch
	sc.keyBuf = cut.AppendKey(sc.keyBuf[:0])
	if r, ok := m.views.residuals[string(sc.keyBuf)]; ok { // allocation-free probe
		r.states.or(states)
		return
	}
	m.views.residuals[string(sc.keyBuf)] = &residualView{states: states, cut: cut}
}

// cutInWindow reports whether a restored cut can be explored from: within
// every process's knowledge window (at or above the GC base so states are
// readable, at or below the frontier so events exist).
func (m *Monitor) cutInWindow(cut vclock.VC) bool {
	for p := 0; p < m.cfg.N; p++ {
		if cut[p] < m.know.floor(p) || cut[p] > m.know.len(p) {
			return false
		}
	}
	return true
}

// --- snapshot record ---

// appendTo writes the live views, then the residuals, each sorted by cut key.
func (v *views) appendTo(b []byte, sc *snapScratch) []byte {
	b = wire.AppendUvarint(b, uint64(len(v.gvs)))
	sc.keys = sortedKeys(sc.keys, v.gvs)
	for _, key := range sc.keys {
		gv := v.gvs[key]
		b = wire.AppendClock(b, gv.cut)
		b = appendStateset(b, gv.states)
		for _, st := range gv.gstate {
			b = wire.AppendUvarint(b, uint64(st))
		}
		b = wire.AppendString(b, gv.lastSig)
		b = wire.AppendClock(b, gv.blocked)
	}
	b = wire.AppendUvarint(b, uint64(len(v.residuals)))
	sc.keys = sortedKeys(sc.keys, v.residuals)
	for _, key := range sc.keys {
		r := v.residuals[key]
		b = appendStateset(wire.AppendClock(b, r.cut), r.states)
	}
	return b
}

// restore reads the record back for monitor m, whose knowledge has already
// been restored: every cut must be explorable from.
func (v *views) restore(d *wire.Cursor, m *Monitor) error {
	n, numStates := m.cfg.N, m.mon.NumStates()
	for k := d.Count(4); k > 0 && d.Err() == nil; k-- { // cut, states, signature, blocked cut
		cut := clockOf(d, n)
		states := decodeStateset(d, numStates)
		gstate := make(dist.GlobalState, n)
		for p := range gstate {
			gstate[p] = dist.DecodeLocalState(d)
		}
		sig := d.String()
		blocked := clockOrNil(d, n)
		if d.Err() != nil {
			break
		}
		if !m.cutInWindow(cut) {
			return fmt.Errorf("global view cut %v outside the knowledge window", cut)
		}
		v.gvs[gvKey(cut)] = &globalView{states: states, cut: cut, gstate: gstate,
			letter: m.lt.letter(gstate), lastSig: sig, blocked: blocked}
	}
	for k := d.Count(2); k > 0 && d.Err() == nil; k-- {
		cut := clockOf(d, n)
		states := decodeStateset(d, numStates)
		if d.Err() != nil {
			break
		}
		if !m.cutInWindow(cut) {
			return fmt.Errorf("residual cut %v outside the knowledge window", cut)
		}
		v.residuals[gvKey(cut)] = &residualView{states: states, cut: cut}
	}
	return d.Err()
}
