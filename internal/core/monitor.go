package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/transport"
	"decentmon/internal/vclock"
	"decentmon/internal/wire"
)

// Config parameterizes one monitor process Mi.
type Config struct {
	// Index is i: the program process this monitor is composed with.
	Index int
	// N is the number of processes.
	N int
	// Automaton is the (shared, identical) LTL3 monitor automaton.
	Automaton *automaton.Monitor
	// Props binds the automaton's propositions to processes.
	Props *dist.PropMap
	// Init is the initial global state (an input of Algorithm 1).
	Init dist.GlobalState
	// FinalizeFull makes the monitor extend every surviving global view to
	// the global final cut at termination, so that its verdict set also
	// reflects inconclusive paths. Without it the monitor reports only the
	// conclusive verdicts it detected (plus ? if any path remains open).
	FinalizeFull bool
	// MaxBoxNodes bounds a single lattice-region exploration (default 2^21).
	MaxBoxNodes int
	// ExactBoxes forces the full-width exact DP for every box exploration.
	// By default a ○-free property is explored *sliced*: the region is
	// projected onto the processes owning its propositions before sweeping,
	// which is verdict-exact for stutter-invariant properties and keeps
	// dense-broadcast workloads tractable (see boxdp.go). Properties with ○
	// are always explored exactly.
	ExactBoxes bool
	// FeedBuffer is the capacity of the program→monitor feed queue
	// (default 1024). Sessions with backpressure use a small buffer so the
	// retained-knowledge gauge reflects what the feeder actually injected.
	FeedBuffer int

	// program is the property compiled for this process space, when the
	// caller — a session — built it once for all n monitors; nil has New
	// compile the monitor's own.
	program *program
}

// program is what every monitor of a session reads of the property and never
// writes: the per-process conjuncts of each transition's guard, the map from
// local states to letter bits, and the sorted list of processes box
// explorations project the lattice onto (boxdp.go): the owners of the
// propositions the formula reads, or every process when only the exact
// full-width DP is sound. It depends on (Automaton, Props, N, ExactBoxes)
// alone, so the n monitors of a session share one. Nobody writes it, or
// anything it points to, after compile returns: it is read from n goroutines
// with no synchronization.
type program struct {
	gt      *guardTable
	lt      *letterTable
	support []int
}

func compile(cfg Config) *program {
	return &program{
		gt:      newGuardTable(cfg.Automaton, cfg.Props, cfg.N),
		lt:      newLetterTable(cfg.Props, cfg.N),
		support: boxSupport(cfg),
	}
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
	cfg Config
	ep  transport.Endpoint
	// hand is ep when the endpoint can deliver a value in memory (its peers
	// share this process), nil when messages must cross as bytes; deliver asks
	// nothing else to choose between the two.
	hand transport.ValueSender
	mon  *automaton.Monitor
	*program
	feed    chan feedItem
	scratch scratch

	know      *knowledge
	views     views
	searches  searches
	floors    floors
	handshake handshake

	verdictStates map[int]bool
	verdicts      map[automaton.Verdict]bool

	metrics Metrics
	// OnVerdict, if set, is called (from the monitor's goroutine) the
	// first time each automaton verdict state is recorded, with the consistent
	// cut at which it was detected when a single one is known (nil when the
	// detection site has no unique cut, e.g. a box-interior hit).
	OnVerdict func(state int, v automaton.Verdict, cut vclock.VC)

	// ctx is the session context; the run loop and the pump check it so a
	// cancelled session returns promptly mid-exploration.
	ctx context.Context

	// lagGauge publishes know.retained and progressGauge the monotone sum
	// of collected events and closed searches, both after every pump, for
	// the session's feeder-side backpressure gate (session.go). onProgress
	// is the session's relief hook, invoked whenever progressGauge advances.
	lagGauge      atomic.Int64
	progressGauge atomic.Int64
	onProgress    func()

	// Snapshot quiescence accounting (snapshot.go): outSent counts monitor
	// messages enqueued to peers, incremented BEFORE the transport send so
	// that handled ≤ sent holds at every instant; inHandled counts inputs
	// whose full handling round — handlers plus pump — has completed. With
	// feeds paused, sum(inHandled) catching up to the input baseline plus
	// sum(outSent) proves stable global quiescence (Session.awaitQuiescence).
	// quiesce is the session's wake-up for a coordinator waiting on exactly
	// that (nil for a monitor run outside a session).
	outSent   atomic.Int64
	inHandled atomic.Int64
	quiesce   *quiesceSignal

	// restored marks a monitor rebuilt from a snapshot: start() then skips
	// INIT, whose effects the restored state already contains.
	restored bool

	err error
}

// scratch is the hot path's reusable storage, touched only by the monitor's
// own goroutine. Map probes go through keyBuf/sigBuf via the
// m[string(buf)] idiom so lookups never allocate; keys and states recycle the
// per-pump key slice and the per-step state set (PERFORMANCE.md); perState
// and ids back maybeLaunchSearches; box is the sweep kernel's, touched by
// explore alone.
type scratch struct {
	keyBuf   []byte
	sigBuf   []byte
	keys     []string
	states   stateset
	perState []stateSearch
	ids      []int
	box      boxScratch
}

// New creates a monitor attached to the given transport endpoint. The
// endpoint's ID must equal cfg.Index.
func New(cfg Config, ep transport.Endpoint) (*Monitor, error) {
	if cfg.N < 1 || cfg.Index < 0 || cfg.Index >= cfg.N {
		return nil, fmt.Errorf("core: invalid index %d of %d", cfg.Index, cfg.N)
	}
	if ep.ID() != cfg.Index {
		return nil, fmt.Errorf("core: endpoint id %d != index %d", ep.ID(), cfg.Index)
	}
	if len(cfg.Init) != cfg.N {
		return nil, fmt.Errorf("core: initial state has %d entries, want %d", len(cfg.Init), cfg.N)
	}
	if cfg.MaxBoxNodes == 0 {
		cfg.MaxBoxNodes = 1 << 21
	}
	if cfg.FeedBuffer <= 0 {
		cfg.FeedBuffer = 1024
	}
	if cfg.program == nil {
		cfg.program = compile(cfg)
	}
	m := &Monitor{
		cfg:           cfg,
		ep:            ep,
		mon:           cfg.Automaton,
		program:       cfg.program,
		feed:          make(chan feedItem, cfg.FeedBuffer),
		know:          newKnowledge(cfg.N, cfg.Init),
		views:         newViews(),
		searches:      newSearches(),
		floors:        newFloors(cfg.N),
		handshake:     newHandshake(cfg.N),
		verdictStates: map[int]bool{},
		verdicts:      map[automaton.Verdict]bool{},
	}
	m.hand, _ = ep.(transport.ValueSender)
	m.scratch.states = newStateset(cfg.Automaton.NumStates())
	return m, nil
}

// boxSupport computes the processes a monitor's box explorations are
// projected onto. Slicing to the owners of the formula's propositions is
// verdict-exact only for ○-free (stutter-invariant) properties and needs the
// formula attached to the automaton; otherwise — and under Config.ExactBoxes —
// the support is every process, which makes the sweep the exact full-width
// DP. (The owner lookup mirrors lattice.SupportProcesses; duplicated to keep
// internal packages decoupled, like the stateset type.)
func boxSupport(cfg Config) []int {
	all := make([]int, cfg.N)
	for p := range all {
		all[p] = p
	}
	if cfg.ExactBoxes || cfg.Automaton == nil || cfg.Props == nil || cfg.Automaton.Formula == nil || cfg.Automaton.Formula.HasNext() {
		return all
	}
	owner := make(map[string]int, cfg.Props.Len())
	for i, name := range cfg.Props.Names {
		owner[name] = cfg.Props.Owner[i]
	}
	seen := map[int]bool{}
	var procs []int
	for _, name := range cfg.Automaton.Formula.Props() {
		o, ok := owner[name]
		if !ok {
			return all // unbound proposition: fall back to the exact DP
		}
		if !seen[o] {
			seen[o] = true
			procs = append(procs, o)
		}
	}
	if len(procs) == 0 {
		return all
	}
	sort.Ints(procs)
	return procs
}

// explore runs one box exploration over the monitor's support and accounts
// the exploration metrics.
func (m *Monitor) explore(init stateset, lo, hi vclock.VC) (*boxResult, error) {
	box, err := m.scratch.box.explore(m.mon, m.know, m.lt, init, lo, hi, m.cfg.MaxBoxNodes, m.support)
	if err != nil {
		return nil, err
	}
	m.metrics.BoxExplorations++
	m.metrics.BoxNodes += box.nodes
	return box, nil
}

// enqueue puts one item on the monitor's feed queue (safe to call from another
// goroutine), giving up when ctx is cancelled instead of blocking on a full
// queue (e.g. after the monitor exited on error). The monitor takes ownership
// of a batch slice and of every event; callers must not reuse either after a
// successful enqueue.
func (m *Monitor) enqueue(ctx context.Context, it feedItem) error {
	select {
	case m.feed <- it:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Verdicts returns the verdict set after the run loop has returned.
func (m *Monitor) Verdicts() map[automaton.Verdict]bool {
	out := map[automaton.Verdict]bool{}
	for v := range m.verdicts {
		out[v] = true
	}
	return out
}

// FinalStates returns the automaton states this monitor's paths reached
// (conclusive detections plus, after finalization, final-cut states; in
// no-finalize mode, the states of views surviving at FINI).
func (m *Monitor) FinalStates() []int {
	var out []int
	for s := range m.verdictStates {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Metrics returns the overhead counters after the run loop has returned.
func (m *Monitor) Metrics() Metrics {
	mt := m.metrics
	mt.KnowledgePeak = m.know.peak
	mt.KnowledgeCollected = m.know.collected
	return mt
}

// run is the monitor's one reactive loop (Algorithm 1): INIT, then block for
// an input and run a round on it, until the termination handshake completes
// or ctx is cancelled. Every round runs here, on the goroutine the input
// arrived at, which is the only one that touches the monitor's state.
func (m *Monitor) run(ctx context.Context) error {
	m.start(ctx)
	m.roundDone(1) // the INIT round (counted even when restored skips it)
	inbox := m.ep.Inbox()
	for !m.finished() && m.err == nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		select {
		case item := <-m.feed:
			m.handleFeed(item)
		case msg, open := <-inbox:
			m.handleInbox(msg, open)
		case <-ctx.Done():
			return ctx.Err()
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
// admissions. Inputs are handled as they are dequeued.
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
		case item := <-m.feed:
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
	if q := m.quiesce; q != nil && q.waiting.Load() {
		q.notify()
	}
}

// start performs INIT (§4.2.0.2) and the first pump: the initial global view
// consumes the initial global state.
func (m *Monitor) start(ctx context.Context) {
	m.ctx = ctx
	if m.restored {
		// INIT already ran in the execution this state was captured from;
		// re-running it would duplicate the initial view and its verdicts.
		return
	}
	q0 := m.initialState()
	if m.mon.Final(q0) {
		m.recordVerdictState(q0, vclock.New(m.cfg.N))
	} else {
		init := newStateset(m.mon.NumStates())
		init.set(q0)
		m.addGV(init, vclock.New(m.cfg.N), m.cfg.Init.Clone(), true)
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
		queued += m.know.len(m.cfg.Index) - gv.cut[m.cfg.Index]
	}
	m.metrics.DelaySamples++
	m.metrics.DelayedEventsSum += queued
}

// --- network messages ---

// handleInbox takes one receive from the inbox: a message, or the news that
// the network closed before the handshake completed.
func (m *Monitor) handleInbox(msg transport.Message, open bool) {
	if !open {
		m.fail(fmt.Errorf("core: monitor %d: network closed before termination", m.cfg.Index))
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
		m.know.markDone(msg.Term.Proc, msg.Term.Total)
		m.handshake.peerDone[msg.Term.Proc] = true
	case msgFini:
		m.handshake.peerFini[msg.Fini] = true
	case msgFloor:
		// The envelope's Floor was all the payload.
	default:
		m.fail(fmt.Errorf("core: monitor %d: unknown message kind %v", m.cfg.Index, msg.Kind))
	}
}

// handleToken implements ReceiveToken (Algorithm 3): tokens visiting this
// monitor are served against local history; tokens returning to their
// parent integrate their findings into the global-view set.
func (m *Monitor) handleToken(t *tokenWire) {
	if t.Parent == m.cfg.Index {
		m.handleReturn(t)
		return
	}
	m.serveToken(t)
	m.routeOrPark(t)
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
		m.fail(fmt.Errorf("core: monitor %d: enabled cut %v not covered by token segments", m.cfg.Index, tr.Gcut))
		return
	}
	origin := newStateset(m.mon.NumStates())
	origin.set(t.Q)
	box, err := m.explore(origin, t.Origin, tr.Gcut)
	if err != nil {
		m.fail(err)
		return
	}
	m.integrateBox(box, origin, nil)
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
func (m *Monitor) integrateBox(box *boxResult, origin stateset, continueAt vclock.VC) {
	for _, c := range box.conclusive {
		m.recordVerdictState(c.q, c.cut)
	}
	minimal := map[int][]pivot{}
	for _, p := range box.pivots {
		if m.mon.Final(p.q) {
			m.recordVerdictState(p.q, p.cut)
			continue
		}
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
// launching searches, finalization and the FINI handshake. A cancelled
// session context aborts the view-advancement loop between iterations so
// long explorations do not delay shutdown.
func (m *Monitor) pump() {
	defer m.publishGauges()
	if m.err != nil {
		return
	}
	for {
		if m.ctx != nil && m.ctx.Err() != nil {
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

// publishGauges exposes the knowledge backlog and the monotone progress sum
// (collected events + resolved searches) to the session's backpressure gate,
// signalling its relief hook whenever progress advanced.
func (m *Monitor) publishGauges() {
	m.lagGauge.Store(int64(m.know.retained))
	prog := int64(m.know.collected) + m.searches.done
	if prog != m.progressGauge.Load() {
		m.progressGauge.Store(prog)
		if m.onProgress != nil {
			m.onProgress()
		}
	}
}

// --- verdicts, finalization, termination ---

// recordVerdictState records a newly reached automaton verdict state; cut is
// the consistent cut where it was detected, when a single one is known.
func (m *Monitor) recordVerdictState(q int, cut vclock.VC) {
	if m.verdictStates[q] {
		return
	}
	m.verdictStates[q] = true
	v := m.mon.VerdictOf(q)
	m.verdicts[v] = true
	if m.OnVerdict != nil {
		if cut != nil {
			cut = cut.Clone()
		}
		m.OnVerdict(q, v, cut)
	}
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
		if j == m.cfg.Index {
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

// DebugString renders the monitor's exploration state (tests and the dlmon
// tool use it).
func (m *Monitor) DebugString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "monitor %d: %d views, %d searches outstanding, verdicts ", m.cfg.Index, len(m.views.gvs), len(m.searches.table))
	var vs []string
	for v := range m.verdicts {
		vs = append(vs, v.String())
	}
	sort.Strings(vs)
	fmt.Fprintf(&b, "{%s}", strings.Join(vs, ","))
	return b.String()
}

// --- snapshot record ---

// appendState serializes the monitor's complete reactive state as a fixed
// sequence of component records (each next to its component). The caller
// guarantees the monitor is parked at quiescence, so every field is stable.
// Map iteration is sorted throughout, making serialization deterministic:
// snapshot(restore(snapshot(s))) is byte-identical, which the round-trip
// tests pin. The sort buffers come from sc.
func (m *Monitor) appendState(b []byte, sc *snapScratch) []byte {
	b = wire.AppendInts(b, m.cfg.Index, m.initialState())
	b = m.handshake.appendTo(b)
	b = m.floors.appendTo(b)
	b = m.know.appendTo(b)
	b = m.views.appendTo(b, sc)
	b = m.searches.appendTo(b, sc)
	// Verdict states reached (the verdict set and the gauges are derivable).
	sc.ints = sortedKeys(sc.ints, m.verdictStates)
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
	}{&m.handshake, &m.floors, m.know, &m.views, &m.searches} {
		if err := c.restore(d, m); err != nil {
			return err
		}
	}
	// Verdict states; the verdict set is derived through the automaton.
	for _, q := range d.Clock() {
		if q >= numStates {
			return fmt.Errorf("verdict state %d out of range", q)
		}
		m.verdictStates[q] = true
		m.verdicts[m.mon.VerdictOf(q)] = true
	}
	for _, f := range m.metrics.fields() {
		*f = d.Int()
	}
	if err := d.Done("monitor record"); err != nil {
		return err
	}
	m.restored = true
	// Publish the restored gauges so the backpressure gate starts from the
	// captured backlog instead of a zero it would mistake for free headroom.
	m.publishGauges()
	return nil
}
