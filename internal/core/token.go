package core

// This file implements the per-process service of a token: scanning local
// events for the first position satisfying each transition's local conjunct,
// repairing cut inconsistencies via the Depend clock, and deciding where the
// token travels next (the SendToNextProcess rules of §4.2.0.6).
//
// A transition search inside a token computes the *least* consistent cut at
// or above the token's Origin at which the transition's conjunctive guard
// holds — the join-irreducible element of computation slicing (§4.1). The
// search is the classic distributed weak-conjunctive-predicate detection
// loop: each participating process advances its own component to the first
// satisfying position, merging the chosen event's vector clock into Depend;
// any component below Depend is inconsistent and must be re-advanced.

// serveToken lets monitor m (the process the token currently visits) make
// as much progress as possible on every transition of the token. Whether it
// must then wait here for future local events is routeToken's rule 2.
func (m *Monitor) serveToken(t *tokenWire) {
	for _, tr := range t.Trans {
		if tr.Eval == evalUnset {
			m.serveTrans(t, tr)
		}
	}
}

// transNeedsProcess reports whether process j must act next for the
// transition: either j's conjunct is unsatisfied at the current candidate
// position, or j's component is below the Depend clock.
func (m *Monitor) transNeedsProcess(tr *transWire, j int) bool {
	if tr.Gcut[j] < tr.Depend[j] {
		return true
	}
	return tr.ConjEval[j] != evalTrue
}

// serveTrans advances the transition's search using the local history of
// this monitor's process. All scanned events are folded into the token's
// segments so the parent can replay the traversed region exactly.
func (m *Monitor) serveTrans(t *tokenWire, tr *transWire) {
	i := m.cfg.Index
	for {
		if !m.transNeedsProcess(tr, i) {
			break
		}
		// The next candidate position: at least the consistency floor, and
		// strictly beyond the current position when the conjunct is not
		// satisfied there.
		lo := tr.Gcut[i]
		if tr.ConjEval[i] != evalTrue {
			lo++
		}
		if tr.Depend[i] > lo {
			lo = tr.Depend[i]
		}
		guard := m.gt.guard(tr.ID, i)
		pos, found := -1, false
		for sn := tr.Gcut[i] + 1; sn <= m.know.len(i); sn++ {
			e := m.know.event(i, sn)
			t.addSegment(e)
			if sn < lo {
				continue
			}
			if !guard.nonEmpty || guard.sat(e.State) {
				pos, found = sn, true
				break
			}
		}
		if !found {
			if m.handshake.localDone {
				// No future events can satisfy the conjunct: the search is
				// dead (§4.2 TERMINATE flushes waiting tokens with false).
				tr.Eval = evalFalse
				return
			}
			// Wait for future local events.
			tr.NextTargetProcess = i
			tr.NextTargetEvent = max(lo, m.know.len(i)+1)
			return
		}
		e := m.know.event(i, pos)
		tr.Gcut[i] = pos
		tr.Depend.Merge(e.VC)
		tr.ConjEval[i] = evalTrue
		// Advancing our position may have invalidated other components via
		// Depend; re-check them below. Re-loop in case Depend now forces us
		// further too (possible when our chosen event causally depends on a
		// peer event that in turn depends on a later event of ours — it
		// cannot, VCs are monotone — but re-checking is cheap and safe).
	}
	m.finishTrans(tr)
}

// finishTrans recomputes the transition's overall evaluation and its next
// target after local service.
func (m *Monitor) finishTrans(tr *transWire) {
	if tr.Eval != evalUnset {
		return
	}
	for j := 0; j < m.cfg.N; j++ {
		if m.transNeedsProcess(tr, j) {
			tr.NextTargetProcess = j
			tr.NextTargetEvent = max(tr.Gcut[j], tr.Depend[j]-1) + 1
			return
		}
	}
	// Every conjunct holds and the cut dominates Depend: the guard holds at
	// the consistent cut Gcut.
	tr.Eval = evalTrue
}

// routeToken applies the SendToNextProcess priority rules (§4.2.0.6) and
// dispatches the token. It returns true if the token was sent somewhere and
// false if it must wait at this monitor.
//
// Rules, in order:
//  1. some transition evaluated true (or all resolved) → return to parent;
//  2. some unresolved transition targets this process → stay (wait);
//  3. some unresolved transition targets a third process → send there;
//  4. otherwise → return to parent.
func (m *Monitor) routeToken(t *tokenWire) bool {
	i := m.cfg.Index
	anyTrue, allResolved := false, true
	for _, tr := range t.Trans {
		if tr.Eval == evalTrue {
			anyTrue = true
		}
		if tr.Eval == evalUnset {
			allResolved = false
		}
	}
	if anyTrue || allResolved {
		m.sendToken(t, t.Parent)
		return true
	}
	for _, tr := range t.Trans {
		if tr.Eval == evalUnset && tr.NextTargetProcess == i {
			return false // rule 2: wait here
		}
	}
	for _, tr := range t.Trans {
		if tr.Eval == evalUnset && tr.NextTargetProcess != t.Parent {
			m.sendToken(t, tr.NextTargetProcess)
			return true
		}
	}
	m.sendToken(t, t.Parent)
	return true
}

// sendToken transmits the token; sending to self is served inline (a parent
// can be its own next target after an inconsistency repair points back at
// it).
func (m *Monitor) sendToken(t *tokenWire, to int) {
	t.NextTargetProcess = to
	if to == m.cfg.Index {
		m.handleToken(t)
		return
	}
	m.metrics.TokenHops++
	m.send(to, &wireMsg{Kind: msgToken, Token: t})
}
