package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/transport"
	"decentmon/internal/vclock"
	"decentmon/internal/wire"
)

// program is what every monitor of a session reads of the property and never
// writes: the per-process conjuncts of each transition's guard, the map from
// local states to letter bits, and the sorted list of processes box
// explorations project the lattice onto (boxdp.go; automaton.Monitor.Support
// picks them). It depends on (Automaton, Props, N) alone, so the session
// compiles it once for its n monitors. Nobody writes it, or anything it points
// to, after compile returns: it is read from n goroutines with no
// synchronization.
type program struct {
	gt      *guardTable
	lt      *letterTable
	support []int
}

// compile binds the automaton's propositions to the process space by name
// (dist.PropMap.Restrict) and builds the program over that binding. It fails
// when the automaton reads a proposition Props does not declare, or one owned
// by a process outside the N.
func compile(cfg *SessionConfig) (*program, error) {
	letters, err := cfg.Props.Restrict(cfg.Automaton.Props)
	if err != nil {
		return nil, err
	}
	for i, o := range letters.Owner {
		if o >= cfg.N {
			return nil, fmt.Errorf("core: proposition %q owned by process %d, session has %d", letters.Names[i], o, cfg.N)
		}
	}
	return &program{
		gt:      newGuardTable(cfg.Automaton, letters, cfg.N),
		lt:      newLetterTable(letters, cfg.N),
		support: cfg.Automaton.Support(letters.Owner, cfg.N),
	}, nil
}

// Metrics counts the overhead quantities reported in Chapter 5, plus the
// knowledge-store footprint of the streaming path.
type Metrics struct {
	EventsProcessed    int // local events delivered by the program
	GlobalViewsCreated int // Fig 5.8: memory overhead proxy
	SearchesLaunched   int // CheckOutgoingTransitions invocations that sent a token
	TokenHops          int // token transmissions by this monitor (Figs 5.4/5.5)
	FetchesSent        int // causal-gap segment requests
	FetchRepliesSent   int
	FinalizeFetches    int // fetches sent during finalization only
	BoxExplorations    int
	BoxNodes           int // total lattice nodes expanded locally
	DelaySamples       int // samples of the delayed-event queue (Fig 5.7)
	DelayedEventsSum   int
	MessagesSent       int // all monitor messages, any kind
	// KnowledgePeak is the high-water mark of events simultaneously retained
	// in this monitor's knowledge store; on collectible workloads it stays
	// bounded as the trace grows, which is what makes dlmon -stream
	// memory-bounded.
	KnowledgePeak int
	// KnowledgeCollected is the total number of events garbage-collected
	// below the global minimal cut.
	KnowledgeCollected int
}

// fields lists the counters a snapshot persists, in record order
// (KnowledgePeak and KnowledgeCollected live on the knowledge store). An
// array, so that neither the encoder nor restore allocates for it.
func (mt *Metrics) fields() [12]*int {
	return [12]*int{
		&mt.EventsProcessed, &mt.GlobalViewsCreated, &mt.SearchesLaunched, &mt.TokenHops,
		&mt.FetchesSent, &mt.FetchRepliesSent, &mt.FinalizeFetches, &mt.BoxExplorations,
		&mt.BoxNodes, &mt.DelaySamples, &mt.DelayedEventsSum, &mt.MessagesSent,
	}
}

// feedItem is one message from the composed program process to its monitor:
// a single event, a batch of consecutive events (batched feeding amortizes
// the channel transfer), or the termination marker.
type feedItem struct {
	event *dist.Event
	batch []*dist.Event
	term  bool
	total int
}

// pumpBatch bounds how many already-queued inputs one run-loop round absorbs
// before pumping. Batching is protocol-equivalent to pumping after every
// input: handlers only update monitor state (knowledge, parked tokens,
// served fetches — serveWaiters runs inside them), and pump is an idempotent
// fixpoint driver, so deferring it across a bounded batch delays detections
// by at most the batch, never changes what is detected. The drain is strictly
// non-blocking, so responsiveness to cancellation is unchanged.
const pumpBatch = 32

// Monitor is one decentralized monitor process Mi. Its reactive state is held
// in components that each live beside the code that mutates them and own
// their snapshot record: know (knowledge.go), views (views.go), searches
// (searches.go), floors (floors.go), handshake (handshake.go).
type Monitor struct {
	// cfg is the session's configuration, shared read-only by its n
	// monitors; index is i, the program process this monitor is composed
	// with.
	cfg   *SessionConfig
	index int
	ep    transport.Endpoint
	// hand is ep when the endpoint can deliver a value in memory (its peers
	// share this process), nil when messages must cross as bytes; deliver asks
	// nothing else to choose between the two.
	hand transport.ValueSender
	mon  *automaton.Monitor
	*program
	// sess is the session the monitor belongs to: recordVerdictState reports
	// to it and roundDone its snapshot coordinator.
	sess    *Session
	feed    chan feedItem
	scratch *scratch

	know      knowledge
	views     views
	searches  searches
	floors    floors
	handshake handshake

	// verdictStates are the automaton states this monitor's paths reached
	// (conclusive detections plus, after finalization, final-cut states; in
	// no-finalize mode, the states of views surviving at FINI) and verdicts
	// their verdicts, read by Session.collect once the run loop has returned.
	verdictStates stateset
	verdicts      verdictFlags

	// initCut and initState are where INIT puts the initial view's cut and
	// global state, cut from the session's slabs.
	initCut   vclock.VC
	initState dist.GlobalState

	metrics Metrics

	// lagGauge publishes know.retained after every pump (publishLag), for
	// Session.RetainedEvents to read without touching monitor state.
	lagGauge atomic.Int64

	// Snapshot quiescence accounting (snapshot.go): outSent counts monitor
	// messages enqueued to peers, incremented BEFORE the transport send so
	// that handled ≤ sent holds at every instant; inHandled counts inputs
	// whose full handling round — handlers plus pump — has completed. With
	// feeds paused, sum(inHandled) catching up to the input baseline plus
	// sum(outSent) proves stable global quiescence (Session.awaitQuiescence);
	// roundDone wakes a coordinator waiting on exactly that.
	outSent   atomic.Int64
	inHandled atomic.Int64

	// restored marks a monitor rebuilt from a snapshot: start() then skips
	// INIT, whose effects the restored state already contains.
	restored bool

	err error
}

// scratch is the hot path's reusable storage, touched only by the monitor's
// own goroutine. Map probes go through keyBuf/sigBuf via the
// m[string(buf)] idiom so lookups never allocate; keys and states recycle the
// per-pump key slice and the per-step state set (PERFORMANCE.md); perState
// and ids back maybeLaunchSearches; trunc is collectKnowledge's truncation
// cut; box is the sweep kernel's, touched by explore alone.
//
// Lifetime. A scratch outlives its monitor: newMonitor takes one from
// scratchPool and run puts it back when it returns, so a session starts from
// arenas and buffers an earlier one grew, whatever the shapes of the two
// (every user sizes what it takes: states to the automaton, the box arenas
// and table per exploration, the buffers by reslicing to zero). That is
// sound because nothing escapes it. Everything a handler keeps is copied
// out: map keys, signatures and lastSig materialize as strings, cuts a box
// reports are fresh (its conclusive list, the scratch's, is read before the
// next exploration), truncate only reads trunc. The one exchange is states,
// which advanceGV swaps with the view it steps; the set it hands back is the
// view's old one, which nothing else holds. What the buffers still point to
// when run returns is the keys' strings and the last conclusive cuts, cleared
// by release; the rest is bytes, integers and bitsets.
type scratch struct {
	keyBuf   []byte
	sigBuf   []byte
	keys     []string
	states   stateset
	perState []stateSearch
	ids      []int
	trunc    vclock.VC
	box      boxScratch
}

// scratchPool holds the scratch of monitors whose run has returned.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// release clears what sc retains and returns it to scratchPool.
func (sc *scratch) release() {
	clear(sc.keys[:cap(sc.keys)])
	sc.keys = sc.keys[:0]
	clear(sc.box.hits[:cap(sc.box.hits)])
	scratchPool.Put(sc)
}

// newMonitor sets up m as monitor i of session s, running the session's
// compiled program and attached to the endpoint of the same index, with its
// n-wide arrays cut from the session's slabs. The endpoint is checked: a
// network supplied by the caller (SessionConfig.Network) could number its
// endpoints otherwise.
func newMonitor(m *Monitor, s *Session, i int, prog *program, ep transport.Endpoint, sl *fleetSlabs) error {
	if ep.ID() != i {
		return fmt.Errorf("core: endpoint id %d != index %d", ep.ID(), i)
	}
	cfg := &s.cfg
	m.cfg, m.index, m.ep, m.mon, m.program, m.sess = cfg, i, ep, cfg.Automaton, prog, s
	m.hand, _ = ep.(transport.ValueSender)
	m.feed = make(chan feedItem, feedQueue)
	m.know.carve(sl, cfg.N, cfg.Init)
	m.views = newViews()
	m.searches.inflightFetch = take(&sl.ints, cfg.N)
	m.floors.carve(sl, cfg.N)
	m.handshake.carve(sl, cfg.N)
	m.initCut, m.initState = take(&sl.ints, cfg.N), take(&sl.states, cfg.N)
	words := statesetWords(cfg.Automaton.NumStates())
	m.verdictStates = take(&sl.words, words)
	m.scratch = scratchPool.Get().(*scratch)
	if len(m.scratch.states) != words {
		m.scratch.states = make(stateset, words)
	}
	return nil
}

// maxBoxNodes bounds a single box exploration: visiting more lattice nodes
// (projected nodes, when the box is sliced) is an error, not an unbounded
// sweep.
const maxBoxNodes = 1 << 21

// explore runs one box exploration over the monitor's support and accounts
// the exploration metrics.
func (m *Monitor) explore(init stateset, lo, hi vclock.VC) (boxResult, error) {
	box, err := m.scratch.box.explore(m.mon, &m.know, m.lt, init, lo, hi, maxBoxNodes, m.support)
	if err != nil {
		return box, err
	}
	m.metrics.BoxExplorations++
	m.metrics.BoxNodes += box.nodes
	return box, nil
}

// enqueue puts one item on the monitor's feed queue (safe to call from another
// goroutine, under the process's feed lock: Session.enqueue), giving up when
// ctx is cancelled instead of blocking on a full queue (e.g. after the monitor
// exited on error). It tries a plain send first: only a full queue waits
// beside ctx.Done(), so the hand-off of a queue with room locks no channel
// but the monitor's own. The monitor takes ownership of a batch slice and of
// every event; callers must not reuse either after a successful enqueue.
func (m *Monitor) enqueue(ctx context.Context, it feedItem) error {
	select {
	case m.feed <- it:
		return nil
	default:
	}
	select {
	case m.feed <- it:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// verdictFlags is a set of automaton verdicts: flag v for Verdict v.
type verdictFlags [automaton.Bottom + 1]bool

// Metrics returns the overhead counters after the run loop has returned.
func (m *Monitor) Metrics() Metrics {
	mt := m.metrics
	mt.KnowledgePeak = m.know.peak
	mt.KnowledgeCollected = m.know.collected
	return mt
}

// run is the monitor's one reactive loop (Algorithm 1): INIT, then block for
// an input and run a round on it, until the termination handshake completes
// or the session is cancelled. Every round runs here, on the goroutine the
// input arrived at, which is the only one that touches the monitor's state.
// It blocks on its own two channels and nothing the fleet shares:
// cancellation arrives as the feed queue closing (Session.stopMonitors), and
// the stopped flag, set before that, ends the loop between inputs. Either way
// it returns the session context's error.
func (m *Monitor) run() error {
	defer func() {
		m.scratch.release()
		m.scratch = nil // nothing may touch it once it is back in the pool
	}()
	m.start()
	m.roundDone(1) // the INIT round (counted even when restored skips it)
	inbox := m.ep.Inbox()
	for !m.finished() && m.err == nil {
		if m.sess.stopped.Load() {
			return m.sess.ctx.Err()
		}
		select {
		case item, ok := <-m.feed:
			if !ok {
				return m.sess.ctx.Err()
			}
			m.handleFeed(item)
		case msg, open := <-inbox:
			m.handleInbox(msg, open)
		}
		m.round(inbox)
	}
	return m.err
}

// round finishes the round the loop opened by handling the input it blocked
// for: it absorbs whatever else is already queued — without blocking — and
// pays for one pump (see pumpBatch). Protocol messages drain before new local
// events: an aging token keeps its candidate cuts drifting away from the
// search origin as local history grows, inflating the exact region explored
// on its return, so in-flight traffic is always served ahead of fresh
// admissions. Inputs are handled as they are dequeued. A closed feed queue
// ends the drain; the pump and the loop then see the session stopped.
func (m *Monitor) round(inbox <-chan transport.Message) {
	handled := int64(1) // the input run blocked for
drain:
	for ; handled < pumpBatch && m.err == nil; handled++ {
		select {
		case msg, open := <-inbox:
			m.handleInbox(msg, open)
			continue
		default:
		}
		select {
		case item, ok := <-m.feed:
			if !ok {
				break drain
			}
			m.handleFeed(item)
		default:
			break drain
		}
	}
	m.pump()
	m.roundDone(handled) // handlers and pump both ran
}

// roundDone accounts k inputs whose full handling round has completed and
// wakes a snapshot coordinator waiting for the fleet to drain. The order —
// count first, then look at the flag — is what makes the wake-up impossible
// to lose (snapshot.go). Off a snapshot this is one atomic add and one
// atomic load on a struct the session's monitors share.
func (m *Monitor) roundDone(k int64) {
	m.inHandled.Add(k)
	if q := &m.sess.quiesce; q.waiting.Load() {
		q.notify()
	}
}

// start performs INIT (§4.2.0.2) and the first pump: the initial global view
// consumes the initial global state.
func (m *Monitor) start() {
	if m.restored {
		// INIT already ran in the execution this state was captured from;
		// re-running it would duplicate the initial view and its verdicts.
		return
	}
	q0 := m.initialState()
	if m.mon.Final(q0) {
		m.recordVerdictState(q0, m.initCut)
	} else {
		init := newStateset(m.mon.NumStates())
		init.set(q0)
		copy(m.initState, m.cfg.Init)
		m.addGV(init, m.initCut, m.initState, true)
	}
	m.pump()
}

// initialState is the automaton state the initial global state leads to: the
// one INIT starts the initial view in.
func (m *Monitor) initialState() int {
	return m.mon.Step(m.mon.Initial(), m.lt.letter(m.cfg.Init))
}

// handleFeed dispatches one feed-queue item.
func (m *Monitor) handleFeed(item feedItem) {
	switch {
	case item.term:
		m.handleLocalTermination(item.total)
	case item.batch != nil:
		for _, e := range item.batch {
			m.handleLocalEvent(e)
			if m.err != nil {
				return
			}
		}
	default:
		m.handleLocalEvent(item.event)
	}
}

// fail records the first error; the run loop exits on it.
func (m *Monitor) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// --- local events ---

func (m *Monitor) handleLocalEvent(e *dist.Event) {
	m.floors.inputSeq++
	if err := m.know.append(e); err != nil {
		m.fail(err)
		return
	}
	m.metrics.EventsProcessed++
	m.serveWaiters()
	// Fig 5.7 metric: local events not yet absorbed by global views.
	queued := 0
	for _, gv := range m.views.gvs {
		queued += m.know.len(m.index) - gv.cut[m.index]
	}
	m.metrics.DelaySamples++
	m.metrics.DelayedEventsSum += queued
}

// --- network messages ---

// handleInbox takes one receive from the inbox: a message, or the news that
// the network closed before the handshake completed.
func (m *Monitor) handleInbox(msg transport.Message, open bool) {
	if !open {
		m.fail(fmt.Errorf("core: monitor %d: network closed before termination", m.index))
		return
	}
	m.handleMessage(msg)
}

// handleMessage dispatches one peer message, whichever way it travelled: a
// value handed over by a peer in this process (read-only here, except a token,
// which is now ours — messages.go), or bytes to decode.
func (m *Monitor) handleMessage(raw transport.Message) {
	m.floors.inputSeq++
	msg, handed := raw.Value.(*wireMsg)
	if !handed {
		var err error
		if msg, err = decodeMsg(raw.Payload, m.cfg.N); err != nil {
			m.fail(err)
			return
		}
	}
	m.noteFloor(raw.From, msg.Floor)
	switch msg.Kind {
	case msgToken:
		m.handleToken(msg.Token)
	case msgFetch:
		m.serveFetch(raw.From, msg.Fetch)
	case msgFetchReply:
		m.handleFetchReply(msg.FetchReply)
	case msgTerm:
		m.handleTerm(msg.Term)
	case msgFini:
		m.handleFini(msg.Fini)
	case msgFloor:
		// The envelope's Floor was all the payload.
	default:
		m.fail(fmt.Errorf("core: monitor %d: unknown message kind %v", m.index, msg.Kind))
	}
}

// handleToken implements ReceiveToken (Algorithm 3): tokens visiting this
// monitor are served against local history; tokens returning to their
// parent integrate their findings into the global-view set.
func (m *Monitor) handleToken(t *tokenWire) {
	if err := m.checkToken(t); err != nil {
		m.fail(fmt.Errorf("core: monitor %d: %w", m.index, err))
		return
	}
	if t.Parent == m.index {
		m.handleReturn(t)
		return
	}
	m.serveToken(t)
	m.routeOrPark(t)
}

// checkToken checks a token against the automaton: its state is one, and each
// of its transitions leaves that state. (validateToken has checked it against
// the fleet.) A token decoded off the wire is where this can fail.
func (m *Monitor) checkToken(t *tokenWire) error {
	if t.Q < 0 || t.Q >= m.mon.NumStates() {
		return fmt.Errorf("token of search %#x in state %d, the automaton has %d", t.SearchID, t.Q, m.mon.NumStates())
	}
	all := m.mon.Transitions()
	for _, tr := range t.Trans {
		if tr.ID < 0 || tr.ID >= len(all) || all[tr.ID].Src != t.Q {
			return fmt.Errorf("token of search %#x searches transition %d, not one out of state %d", t.SearchID, tr.ID, t.Q)
		}
	}
	return nil
}

// handleReturn processes a token back at its parent: absorb the collected
// segments, expand the lattice region up to each enabled transition's cut
// (forking global views at every pivot), and re-dispatch any transitions
// still unresolved.
func (m *Monitor) handleReturn(t *tokenWire) {
	for _, seg := range t.Segs {
		if err := m.know.merge(seg.Proc, seg.Events); err != nil {
			m.fail(err)
			return
		}
	}
	var unresolved []*transWire
	for _, tr := range t.Trans {
		switch tr.Eval {
		case evalTrue:
			m.integrateEnabled(t, tr)
		case evalFalse:
			// Disabled: the guard can never hold from this origin.
		default:
			unresolved = append(unresolved, tr)
		}
	}
	if len(unresolved) == 0 {
		m.closeSearch(t.SearchID)
		return
	}
	// Serve the unresolved transitions against our own history (the parent
	// may itself be the inconsistent process), then route onward.
	t.Trans = unresolved
	m.serveToken(t)
	still := t.Trans[:0]
	for _, tr := range t.Trans {
		if tr.Eval == evalTrue {
			m.integrateEnabled(t, tr)
		} else if tr.Eval != evalFalse {
			still = append(still, tr)
		}
	}
	t.Trans = still
	if len(t.Trans) == 0 {
		m.closeSearch(t.SearchID)
		return
	}
	m.routeOrPark(t)
}

// integrateEnabled handles a transition found enabled at the consistent cut
// tr.Gcut: explore the region between the search origin and that cut,
// forking a global view at every pivot global state discovered.
func (m *Monitor) integrateEnabled(t *tokenWire, tr *transWire) {
	if !m.know.covers(tr.Gcut) {
		m.fail(fmt.Errorf("core: monitor %d: enabled cut %v not covered by token segments", m.index, tr.Gcut))
		return
	}
	origin := newStateset(m.mon.NumStates())
	origin.set(t.Q)
	box, err := m.explore(origin, t.Origin, tr.Gcut)
	if err != nil {
		m.fail(err)
		return
	}
	m.integrateBox(&box, origin, nil)
}

// integrateBox records conclusive hits and forks global views at pivots; if
// continueAt is non-nil, the non-conclusive states reachable at the box's
// top also continue there (used when a view absorbs a receive event's
// causal closure). origin is the state set the box was explored from: a
// continuation that introduces no new state is the same view advancing, not
// a fork, and is not counted in the global-view metric (Fig. 5.8 counts
// forked paths, §4.4.2.2).
//
// Pivot forks are restricted to the *minimal* cuts per discovered state —
// the join-irreducible elements of the satisfying sub-lattice (§4.1); later
// pivots of the same state are reachable from them or from the continuation.
//
// Conclusive states come from box.conclusive alone, which omits only those
// in the box's initial set: a view's states, a token's origin state or (in
// maybeFinalize) a residual's, none ever conclusive. A view drops a state that
// steps into one (advanceGV), searches start from view states, and residuals
// hold the states before such a step.
func (m *Monitor) integrateBox(box *boxResult, origin stateset, continueAt vclock.VC) {
	for _, c := range box.conclusive {
		m.recordVerdictState(c.q, c.cut)
	}
	minimal := map[int][]pivot{}
	for _, p := range box.pivots {
		keep := minimal[p.q][:0]
		dominated := false
		for _, other := range minimal[p.q] {
			if other.cut.LessEq(p.cut) {
				dominated = true
			}
			if !p.cut.LessEq(other.cut) {
				keep = append(keep, other)
			}
		}
		if !dominated {
			minimal[p.q] = append(keep, p)
		}
	}
	for q, ps := range minimal {
		for _, p := range ps {
			s := newStateset(m.mon.NumStates())
			s.set(q)
			m.addGV(s, p.cut, m.know.stateAt(p.cut), true)
		}
	}
	if continueAt != nil {
		cont := newStateset(m.mon.NumStates())
		fresh := false
		for _, q := range box.finalStates {
			if m.mon.Final(q) {
				m.recordVerdictState(q, continueAt)
				continue
			}
			cont.set(q)
			if !origin.has(q) {
				fresh = true
			}
		}
		if !cont.empty() {
			m.addGV(cont, continueAt.Clone(), m.know.stateAt(continueAt), fresh)
		}
	}
}

// pump drives all deferred work after each input: advancing views,
// launching searches, finalization and the FINI handshake. A stopped session
// (Session.stopMonitors) aborts the view-advancement loop between iterations
// so long explorations do not delay shutdown; the flag is one atomic load,
// where the context's Err takes its mutex.
func (m *Monitor) pump() {
	defer m.publishLag()
	if m.err != nil {
		return
	}
	for {
		if m.sess.stopped.Load() {
			return
		}
		progressed := false
		for _, key := range m.gvKeys() {
			gv, ok := m.views.gvs[key]
			if !ok {
				continue
			}
			if m.advanceGV(key, gv) {
				progressed = true
			}
			if m.err != nil {
				return
			}
		}
		if !progressed {
			break
		}
	}
	m.maybeFinalize()
	m.collectKnowledge()
	m.maybeFini()
}

// publishLag exposes the knowledge backlog to Session.RetainedEvents.
func (m *Monitor) publishLag() { m.lagGauge.Store(int64(m.know.retained)) }

// --- verdicts, finalization, termination ---

// recordVerdictState records a newly reached automaton verdict state; cut is
// the consistent cut where it was detected, when a single one is known.
func (m *Monitor) recordVerdictState(q int, cut vclock.VC) {
	if m.verdictStates.has(q) {
		return
	}
	m.verdictStates.set(q)
	v := m.mon.VerdictOf(q)
	m.verdicts[v] = true
	if cut != nil {
		cut = cut.Clone()
	}
	m.sess.emitVerdict(m.index, q, v, cut)
}

// --- plumbing ---

func (m *Monitor) send(to int, msg *wireMsg) { m.deliver(msg, to, to+1) }

// broadcast sends one message to every peer.
func (m *Monitor) broadcast(msg *wireMsg) { m.deliver(msg, 0, m.cfg.N) }

// deliver is the one way a message leaves the monitor: to every peer in
// [lo, hi). Every message carries the sender's current
// need-floor, so the global minimal cut advances with ordinary protocol
// traffic (tokens, fetch replies, termination) at no extra message cost.
// The message is handed over as it is when the endpoint can take it and
// encoded otherwise — once, whatever the number of recipients: the floor is set
// before either and is the same for all of them, and neither the envelope nor
// the payload bytes are written again by anyone (messages.go). Either way
// the transport accounts the encoded size.
func (m *Monitor) deliver(msg *wireMsg, lo, hi int) {
	if m.floors.curFloor != nil {
		msg.Floor = m.floors.curFloor
	}
	var payload []byte
	size := 0
	if m.hand != nil {
		size = msgSize(msg)
	} else {
		var err error
		if payload, err = encodeMsg(msg); err != nil {
			m.fail(err)
			return
		}
	}
	for j := lo; j < hi; j++ {
		if j == m.index {
			continue
		}
		if msg.Floor != nil {
			m.floors.sentTo[j] = m.floors.curFloor[j]
		}
		m.metrics.MessagesSent++
		m.outSent.Add(1) // before the transport send: handled can never outrun sent
		var err error
		if m.hand != nil {
			err = m.hand.SendValue(j, msg, size)
		} else {
			err = m.ep.Send(j, payload)
		}
		if err != nil {
			m.fail(err)
			return
		}
	}
}

// --- snapshot record ---

// appendState serializes the monitor's complete reactive state as a fixed
// sequence of component records (each next to its component). The caller
// guarantees the monitor is parked at quiescence, so every field is stable.
// Map iteration is sorted throughout, making serialization deterministic:
// snapshot(restore(snapshot(s))) is byte-identical, which the round-trip
// tests pin. The sort buffers come from sc.
func (m *Monitor) appendState(b []byte, sc *snapScratch) []byte {
	b = wire.AppendInts(b, m.index, m.initialState())
	b = m.handshake.appendTo(b)
	b = m.floors.appendTo(b)
	b = m.know.appendTo(b)
	b = m.views.appendTo(b, sc)
	b = m.searches.appendTo(b, sc)
	// Verdict states reached (the verdict set and the gauges are derivable).
	sc.ints = m.verdictStates.list(sc.ints[:0])
	b = wire.AppendClock(b, sc.ints)
	for _, f := range m.metrics.fields() {
		b = wire.AppendInts(b, *f)
	}
	return b
}

// restoreState loads a serialized monitor state into a freshly built monitor
// (the index has already been consumed from d by the caller), in appendState's
// order: knowledge before the components whose cuts are checked against its
// window. Every component validates its record against the monitor's
// configuration before a handler can touch it, so a corrupt-but-checksummed
// blob is rejected with an error — never a panic at restore time or later in
// the run. Clocks, cuts and events are materialized fresh by the decoder;
// nothing aliases the snapshot buffer.
func (m *Monitor) restoreState(d *wire.Cursor) error {
	if m.restored {
		return fmt.Errorf("already restored")
	}
	numStates := m.mon.NumStates()
	if q0 := d.Int(); d.Err() == nil && q0 != m.initialState() {
		return fmt.Errorf("initial state %d, the configuration starts in %d", q0, m.initialState())
	}
	for _, c := range []interface {
		restore(*wire.Cursor, *Monitor) error
	}{&m.handshake, &m.floors, &m.know, &m.views, &m.searches} {
		if err := c.restore(d, m); err != nil {
			return err
		}
	}
	// Verdict states; the verdict set is derived through the automaton.
	for _, q := range d.Clock() {
		if q >= numStates {
			return fmt.Errorf("verdict state %d out of range", q)
		}
		m.verdictStates.set(q)
		m.verdicts[m.mon.VerdictOf(q)] = true
	}
	for _, f := range m.metrics.fields() {
		*f = d.Int()
	}
	if err := d.Done("monitor record"); err != nil {
		return err
	}
	m.restored = true
	// Publish the restored backlog, so RetainedEvents reads it before the
	// monitor's first round.
	m.publishLag()
	return nil
}
