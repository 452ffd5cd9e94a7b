package core

import (
	"fmt"
	"math/bits"
	"strconv"

	"decentmon/internal/dist"
	"decentmon/internal/vclock"
	"decentmon/internal/wire"
)

// search is one outstanding token search: the signature it was launched under
// ("q|ids", for §4.3.2 suppression) and the cut it was launched from, which
// pins the knowledge-GC floor until the search closes.
type search struct {
	sig    string
	origin vclock.VC
}

// searches is everything a monitor has in flight or parked on behalf of the
// token protocol. An outstanding search lives in table and nowhere else;
// bySig indexes the table by signature for launchSearch's allocation-free
// probe and is derived from it (never serialized, rebuilt on restore).
type searches struct {
	seq   int64 // last search sequence number issued
	done  int64 // searches fully resolved, for the progress gauge
	table map[int64]search
	bySig map[string]int64

	launched      map[string]bool // launch dedupe ledger: signatures@cutKey
	inflightFetch map[int]int     // proc -> highest SN already requested
	waitTokens    []*tokenWire    // tokens waiting for future local events
	waitFetches   []pendingFetch
}

type pendingFetch struct {
	from int
	req  *fetchWire
}

func newSearches() searches {
	return searches{
		table:         map[int64]search{},
		bySig:         map[string]int64{},
		launched:      map[string]bool{},
		inflightFetch: map[int]int{},
	}
}

// stateSearch is one automaton state's possibly-enabled outgoing-transition
// set during maybeLaunchSearches; ids live in scratch.ids[lo:hi] and the
// state's signature in scratch.sigBuf[sigLo:sigHi].
type stateSearch struct{ q, lo, hi, sigLo, sigHi int }

// maybeLaunchSearches implements CheckOutgoingTransitions (Algorithm 3) with
// the §4.3.2 duplicate-avoidance: a token is created only when the set of
// possibly-enabled outgoing transitions changed since the view's previous
// event, and only once per (state, cut).
func (m *Monitor) maybeLaunchSearches(gv *globalView) {
	if m.cfg.N == 1 {
		return
	}
	i := m.index
	// Per automaton state in the view, the possibly-enabled outgoing
	// transitions (those whose local conjunct Pi does not forbid,
	// Algorithm 3 line 7). Ids, signatures and the search records all build
	// into reused scratch; strings materialize only past the dedup checks.
	sc := &m.scratch
	found := sc.perState[:0]
	ids := sc.ids[:0]
	sb := sc.sigBuf[:0]
	for w, word := range gv.states {
		for word != 0 {
			q := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			lo := len(ids)
			for _, tr := range m.mon.Out(q) {
				if tr.SelfLoop() {
					continue
				}
				g := m.gt.guard(tr.ID, i)
				if g.nonEmpty && !g.sat(gv.gstate[i]) {
					continue
				}
				ids = append(ids, tr.ID)
			}
			if len(ids) == lo {
				continue
			}
			sigLo := len(sb)
			sb = strconv.AppendInt(sb, int64(q), 10)
			sb = append(sb, '|')
			for k := lo; k < len(ids); k++ {
				if k > lo {
					sb = append(sb, ',')
				}
				sb = strconv.AppendInt(sb, int64(ids[k]), 10)
			}
			found = append(found, stateSearch{q: q, lo: lo, hi: len(ids), sigLo: sigLo, sigHi: len(sb)})
			sb = append(sb, ';')
		}
	}
	sc.perState, sc.ids, sc.sigBuf = found, ids, sb
	if len(found) == 0 {
		gv.lastSig = ""
		return
	}
	if string(sb) == gv.lastSig { // comparison does not materialize
		return // §4.3.2: same possibly-enabled set as the previous event
	}
	gv.lastSig = string(sb)
	sb = append(sb, '@')
	sb = gv.cut.AppendKey(sb)
	sc.sigBuf = sb
	if m.searches.launched[string(sb)] { // allocation-free probe
		return
	}
	m.searches.launched[string(sb)] = true
	for _, s := range found {
		m.launchSearch(gv, s.q, ids[s.lo:s.hi], sb[s.sigLo:s.sigHi])
	}
}

// launchSearch creates and routes one token (CheckOutgoingTransitions,
// Algorithm 3) for a single automaton state of the view, unless an
// equivalent search is already in flight (§4.3.2 suppression). sigBytes is
// the state's "q|ids" signature, scratch-backed: it is only materialized to
// a string once the search actually launches.
func (m *Monitor) launchSearch(gv *globalView, q int, ids []int, sigBytes []byte) {
	i := m.index
	if _, active := m.searches.bySig[string(sigBytes)]; active { // allocation-free probe
		// An equivalent search (same automaton state, same set of possibly
		// enabled outgoing transitions) is still in flight; its result
		// covers this view's obligations.
		return
	}
	m.searches.seq++
	t := &tokenWire{
		Parent:   i,
		SearchID: int64(i)<<32 | m.searches.seq,
		Q:        q,
		Origin:   gv.cut.Clone(),
	}
	for _, id := range ids {
		tr := &transWire{
			ID:       id,
			Gcut:     gv.cut.Clone(),
			Depend:   gv.cut.Clone(),
			ConjEval: make([]evalState, m.cfg.N),
			Eval:     evalUnset,
		}
		for j := 0; j < m.cfg.N; j++ {
			g := m.gt.guard(id, j)
			if !g.nonEmpty || g.sat(gv.gstate[j]) {
				tr.ConjEval[j] = evalTrue
			}
		}
		m.finishTrans(tr)
		// Transitions already true at the origin cannot occur (the automaton
		// is deterministic: the view's own letter chose a different
		// transition), but guard against them for safety.
		if tr.Eval == evalUnset {
			t.Trans = append(t.Trans, tr)
		}
	}
	if len(t.Trans) == 0 {
		return
	}
	// The search may return a token whose enabled cuts are explored from
	// t.Origin; the table entry pins the knowledge-GC floor there until the
	// search closes (needFloor).
	sig := string(sigBytes)
	m.searches.table[t.SearchID] = search{sig: sig, origin: t.Origin}
	m.searches.bySig[sig] = t.SearchID
	m.metrics.SearchesLaunched++
	m.routeOrPark(t)
}

// closeSearch retires a fully resolved search.
func (m *Monitor) closeSearch(id int64) {
	m.searches.done++
	if s, ok := m.searches.table[id]; ok {
		delete(m.searches.table, id)
		delete(m.searches.bySig, s.sig)
	}
}

// routeOrPark sends the token where SendToNextProcess says, or holds it in
// w_tokens when it must wait here for future local events.
func (m *Monitor) routeOrPark(t *tokenWire) {
	if !m.routeToken(t) {
		m.searches.waitTokens = append(m.searches.waitTokens, t)
	}
}

// serveWaiters re-serves tokens and fetches waiting for local events.
func (m *Monitor) serveWaiters() {
	if pending := m.searches.waitTokens; len(pending) > 0 {
		m.searches.waitTokens = nil
		for _, t := range pending {
			m.handleToken(t)
		}
	}
	if pending := m.searches.waitFetches; len(pending) > 0 {
		m.searches.waitFetches = nil
		for _, f := range pending {
			m.serveFetch(f.from, f.req)
		}
	}
}

// --- fetches ---

// serveFetch answers a fetch with everything from FromSN to the current
// history end, not just the requested range: receive bursts then cost one
// fetch per sender instead of one per causal gap (channels are FIFO, so
// replies keep the requester's prefix contiguous).
func (m *Monitor) serveFetch(from int, f *fetchWire) {
	i := m.index
	if f.ToSN > m.know.len(i) && !m.handshake.localDone {
		m.searches.waitFetches = append(m.searches.waitFetches, pendingFetch{from, f})
		return
	}
	// The reply carries a copy of the window's pointer slice (messages.go):
	// the window itself is rewritten by truncate and grow while a handed-over
	// reply may still be queued at the requester.
	m.metrics.FetchRepliesSent++
	m.send(from, &wireMsg{Kind: msgFetchReply, FetchReply: &fetchReplyWire{
		Proc: i, Events: append([]*dist.Event(nil), m.know.from(i, f.FromSN)...),
		Done: m.handshake.localDone, Total: m.handshake.localTotal,
	}})
}

func (m *Monitor) handleFetchReply(r *fetchReplyWire) {
	if err := m.know.merge(r.Proc, r.Events); err != nil {
		m.fail(err)
		return
	}
	if r.Done {
		m.know.markDone(r.Proc, r.Total)
	}
	delete(m.searches.inflightFetch, r.Proc)
}

// requestKnowledge fetches the segments needed to cover the target cut.
func (m *Monitor) requestKnowledge(target vclock.VC) {
	for j := 0; j < m.cfg.N; j++ {
		if j == m.index || target[j] <= m.know.len(j) {
			continue
		}
		if m.searches.inflightFetch[j] >= target[j] {
			continue // an equal-or-wider request is already in flight
		}
		m.searches.inflightFetch[j] = target[j]
		m.metrics.FetchesSent++
		if m.handshake.finalizing {
			m.metrics.FinalizeFetches++
		}
		m.send(j, &wireMsg{Kind: msgFetch, Fetch: &fetchWire{
			Requester: m.index,
			FromSN:    m.know.len(j) + 1,
			ToSN:      target[j],
		}})
	}
}

// --- snapshot record ---

// appendTo writes the component's record: counters, the search table sorted
// by id, the launch ledger, in-flight fetches, then the parked work.
func (s *searches) appendTo(b []byte, sc *snapScratch) []byte {
	b = wire.AppendUvarint(wire.AppendUvarint(b, uint64(s.seq)), uint64(s.done))
	b = wire.AppendUvarint(b, uint64(len(s.table)))
	sc.ids = sortedKeys(sc.ids, s.table)
	for _, id := range sc.ids {
		e := s.table[id]
		b = wire.AppendClock(wire.AppendString(wire.AppendUvarint(b, uint64(id)), e.sig), e.origin)
	}
	b = wire.AppendUvarint(b, uint64(len(s.launched)))
	sc.keys = sortedKeys(sc.keys, s.launched)
	for _, key := range sc.keys {
		b = wire.AppendString(b, key)
	}
	b = wire.AppendUvarint(b, uint64(len(s.inflightFetch)))
	sc.ints = sortedKeys(sc.ints, s.inflightFetch)
	for _, p := range sc.ints {
		b = wire.AppendInts(b, p, s.inflightFetch[p])
	}
	b = wire.AppendUvarint(b, uint64(len(s.waitTokens)))
	for _, t := range s.waitTokens {
		b = appendToken(b, t)
	}
	b = wire.AppendUvarint(b, uint64(len(s.waitFetches)))
	for _, f := range s.waitFetches {
		b = appendFetch(wire.AppendInts(b, f.from), f.req)
	}
	return b
}

// restore reads the record back into a fresh component of monitor m, whose
// knowledge has already been restored: a search must be explorable from its
// origin and alone under its signature, or it would pin the GC floor, or
// suppress every later search of that signature, for good.
func (s *searches) restore(d *wire.Cursor, m *Monitor) error {
	n := m.cfg.N
	s.seq, s.done = int64(d.Int()), int64(d.Int())
	for k := d.Count(3); k > 0 && d.Err() == nil; k-- { // id, signature, origin
		id, sig, origin := int64(d.Int()), d.String(), clockOf(d, n)
		if d.Err() != nil {
			break
		}
		if _, dup := s.bySig[sig]; dup {
			return fmt.Errorf("two outstanding searches under signature %q", sig)
		}
		if !m.cutInWindow(origin) {
			return fmt.Errorf("search origin %v outside the knowledge window", origin)
		}
		s.table[id] = search{sig: sig, origin: origin}
		s.bySig[sig] = id
	}
	for k := d.Count(1); k > 0 && d.Err() == nil; k-- {
		s.launched[d.String()] = true
	}
	for k := d.Count(2); k > 0 && d.Err() == nil; k-- {
		p, sn := d.Int(), d.Int()
		if p >= n {
			return fmt.Errorf("inflight fetch names process %d", p)
		}
		s.inflightFetch[p] = sn
	}
	for k := d.Count(4); k > 0 && d.Err() == nil; k-- {
		t := decodeToken(d, n)
		if t == nil {
			break
		}
		if err := validateToken(t, n); err != nil {
			return err
		}
		s.waitTokens = append(s.waitTokens, t)
	}
	for k := d.Count(4); k > 0 && d.Err() == nil; k-- {
		from, req := d.Int(), decodeFetch(d)
		if d.Err() != nil {
			break
		}
		if from >= n || req.Requester >= n {
			return fmt.Errorf("parked fetch names invalid process")
		}
		if req.FromSN <= m.know.floor(m.index) {
			return fmt.Errorf("parked fetch reaches below the GC floor")
		}
		s.waitFetches = append(s.waitFetches, pendingFetch{from: from, req: req})
	}
	return d.Err()
}

// validateToken bounds-checks a parked token so serving it later cannot
// index out of range.
func validateToken(t *tokenWire, n int) error {
	if t.Parent < 0 || t.Parent >= n || len(t.Origin) != n {
		return fmt.Errorf("parked token header out of range")
	}
	for _, tr := range t.Trans {
		if len(tr.Gcut) != n || len(tr.Depend) != n || len(tr.ConjEval) != n {
			return fmt.Errorf("parked token transition out of range")
		}
		if tr.NextTargetProcess >= n {
			return fmt.Errorf("parked token targets process %d", tr.NextTargetProcess)
		}
	}
	for _, s := range t.Segs {
		if s.Proc < 0 || s.Proc >= n {
			return fmt.Errorf("parked token segment names process %d", s.Proc)
		}
		for _, e := range s.Events {
			if e == nil || e.Proc != s.Proc || len(e.VC) != n {
				return fmt.Errorf("parked token segment event malformed")
			}
		}
	}
	return nil
}
