package core

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/transport"
	"decentmon/internal/vclock"
)

// Mode selects the exploration strategy.
type Mode int

const (
	// ModeDecentralized is the paper's algorithm: global views advance on
	// local events, tokens detect predicates of possibly-enabled outgoing
	// transitions, and the monitor explores only lattice regions that can
	// change the automaton state.
	ModeDecentralized Mode = iota
	// ModeReplicated is the exhaustive baseline: every monitor broadcasts
	// every local event and evaluates the full lattice at termination. It
	// is verdict-set-equal to the oracle by construction, at the cost of
	// n·(n−1)·|E| messages — the ablation benchmarks compare both modes.
	ModeReplicated
)

func (m Mode) String() string {
	if m == ModeReplicated {
		return "replicated"
	}
	return "decentralized"
}

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
	// Mode selects decentralized (default) or replicated exploration.
	Mode Mode
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

// stateSearch is one automaton state's possibly-enabled outgoing-transition
// set during maybeLaunchSearches; ids live in idScratch[lo:hi] and the
// state's signature in sigBuf[sigLo:sigHi] (both scratch-backed).
type stateSearch struct{ q, lo, hi, sigLo, sigHi int }

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

// Monitor is one decentralized monitor process Mi.
type Monitor struct {
	cfg Config
	ep  transport.Endpoint
	// hand is ep when the endpoint can deliver a value in memory (its peers
	// share this process), nil when messages must cross as bytes; deliver asks
	// nothing else to choose between the two.
	hand transport.ValueSender
	mon  *automaton.Monitor
	pm   *dist.PropMap
	gt   *guardTable
	lt   *letterTable

	know *knowledge
	feed chan feedItem

	// support is the sorted list of processes box explorations project the
	// lattice onto (boxdp.go): the owners of the propositions the formula
	// reads, or every process when only the exact full-width DP is sound.
	// box is the kernel's scratch, touched by explore alone.
	support []int
	box     boxScratch

	// Hot-path scratch (single-goroutine use only: the run loop owns them).
	// Map probes go through keyBuf/sigBuf via the m[string(buf)] idiom so
	// lookups never allocate; keyScratch and ssScratch recycle the per-pump
	// key slice and the per-step state set (PERFORMANCE.md).
	keyBuf        []byte
	sigBuf        []byte
	keyScratch    []string
	ssScratch     stateset
	searchScratch []stateSearch
	idScratch     []int

	gvs      map[string]*globalView
	launched map[string]bool // search dedupe: q|cutKey

	// residuals retain, per cut, the automaton states that stepped into a
	// conclusive (absorbing) state there. A conclusive step ends the *view's*
	// path, but other interleavings extending the same prefix may avoid the
	// conclusion entirely; finalization explores each residual to the global
	// final cut so those inconclusive paths still report (the finalization-?
	// completeness gap surfaced by the PR 5 gauntlet: property D, ring, n=5,
	// seed 2015). Residual cuts join the need-floor so GC keeps the history
	// the finalize-time exploration will walk.
	residuals map[string]*residualView

	searchSeq     int64
	outstanding   map[int64]bool   // searches awaiting full resolution
	searchSig     map[int64]string // searchID -> signature, for suppression
	activeSig     map[string]int   // outstanding searches per signature
	searchOrigin  map[int64]vclock.VC
	inflightFetch map[int]int // proc -> highest SN already requested
	waitTokens    []*tokenWire
	waitFetches   []pendingFetch

	// Knowledge GC (§ below): curFloor is this monitor's need-floor — the
	// pointwise minimum cut any of its future explorations or searches can
	// start from. peerFloor[j] is the latest floor peer j reported;
	// sentFloor[j] the floor last announced to j (piggybacked or dedicated).
	curFloor  vclock.VC
	peerFloor []vclock.VC
	sentFloor []vclock.VC
	inputSeq  uint64 // inputs handled, for gcCollectEveryInputs amortization
	lastGC    uint64 // inputSeq at the last collectKnowledge run

	localDone  bool
	localTotal int
	peerDone   []bool
	peerFini   []bool
	finiSent   bool
	finalized  bool
	finalizing bool

	verdictStates map[int]bool
	verdicts      map[automaton.Verdict]bool
	initialQ      int

	metrics Metrics
	// OnVerdict, if set, is called (from the monitor goroutine) the first
	// time each automaton verdict state is recorded, with the consistent
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
	searchesDone  int64

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
	m := &Monitor{
		cfg:           cfg,
		ep:            ep,
		mon:           cfg.Automaton,
		pm:            cfg.Props,
		gt:            newGuardTable(cfg.Automaton, cfg.Props, cfg.N),
		lt:            newLetterTable(cfg.Props, cfg.N),
		know:          newKnowledge(cfg.N, cfg.Init),
		feed:          make(chan feedItem, cfg.FeedBuffer),
		gvs:           map[string]*globalView{},
		launched:      map[string]bool{},
		residuals:     map[string]*residualView{},
		outstanding:   map[int64]bool{},
		searchSig:     map[int64]string{},
		activeSig:     map[string]int{},
		searchOrigin:  map[int64]vclock.VC{},
		inflightFetch: map[int]int{},
		peerDone:      make([]bool, cfg.N),
		peerFini:      make([]bool, cfg.N),
		verdictStates: map[int]bool{},
		verdicts:      map[automaton.Verdict]bool{},
		peerFloor:     make([]vclock.VC, cfg.N),
		sentFloor:     make([]vclock.VC, cfg.N),
	}
	for j := 0; j < cfg.N; j++ {
		m.peerFloor[j] = vclock.New(cfg.N)
		m.sentFloor[j] = vclock.New(cfg.N)
	}
	m.hand, _ = ep.(transport.ValueSender)
	m.ssScratch = newStateset(cfg.Automaton.NumStates())
	m.support = boxSupport(cfg)
	return m, nil
}

// boxSupport computes the processes the monitor's box explorations are
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
	box, err := m.box.explore(m.mon, m.know, m.lt, init, lo, hi, m.cfg.MaxBoxNodes, m.support)
	if err != nil {
		return nil, err
	}
	m.metrics.BoxExplorations++
	m.metrics.BoxNodes += box.nodes
	return box, nil
}

// DeliverContext feeds one local event of the composed program process
// (safe to call from another goroutine), giving up when ctx is cancelled
// instead of blocking on a full feed queue (e.g. after the monitor exited
// on error).
func (m *Monitor) DeliverContext(ctx context.Context, e *dist.Event) error {
	select {
	case m.feed <- feedItem{event: e}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// DeliverBatchContext feeds a batch of consecutive local events in one
// channel transfer. The monitor takes ownership of the slice and its events;
// callers must not reuse either after a successful delivery.
func (m *Monitor) DeliverBatchContext(ctx context.Context, events []*dist.Event) error {
	select {
	case m.feed <- feedItem{batch: events}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// EndTraceContext signals that the program process terminated after total
// events, with cancellation like DeliverContext.
func (m *Monitor) EndTraceContext(ctx context.Context, total int) error {
	select {
	case m.feed <- feedItem{term: true, total: total}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Verdicts returns the verdict set after Run has returned.
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

// Metrics returns the overhead counters after Run has returned.
func (m *Monitor) Metrics() Metrics {
	mt := m.metrics
	mt.KnowledgePeak = m.know.peak
	mt.KnowledgeCollected = m.know.collected
	return mt
}

// Run executes the monitor until global termination (all processes done,
// all searches resolved, FINI exchanged) or until ctx is cancelled. It
// returns the first internal error, or the context's error on cancellation.
func (m *Monitor) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	m.start(ctx)
	m.roundDone(1) // the INIT round (counted even when restored skips it)
	inbox := m.ep.Inbox()
	for !m.finished() && m.err == nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		handled := int64(1)
		select {
		case item := <-m.feed:
			m.handleFeed(item)
		case msg, ok := <-inbox:
			if !ok {
				return fmt.Errorf("core: monitor %d: network closed before termination", m.cfg.Index)
			}
			m.handleMessage(msg)
		case <-ctx.Done():
			return ctx.Err()
		}
		// Batched round: absorb whatever else is already queued — without
		// blocking — before paying for one pump (see pumpBatch). Protocol
		// messages drain before new local events: an aging token keeps its
		// candidate cuts drifting away from the search origin as local
		// history grows, inflating the exact region explored on its return,
		// so in-flight traffic is always served ahead of fresh admissions.
	drain:
		for k := 1; k < pumpBatch && m.err == nil; k++ {
			select {
			case msg, ok := <-inbox:
				if !ok {
					return fmt.Errorf("core: monitor %d: network closed before termination", m.cfg.Index)
				}
				m.handleMessage(msg)
				handled++
				continue
			default:
			}
			select {
			case item := <-m.feed:
				m.handleFeed(item)
				handled++
			default:
				break drain
			}
		}
		m.pump()
		m.roundDone(handled) // handlers and pump both ran
	}
	return m.err
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
// consumes the initial global state. Shared by Run and RunSharded.
func (m *Monitor) start(ctx context.Context) {
	m.ctx = ctx
	if m.restored {
		// INIT already ran in the execution this state was captured from;
		// re-running it would duplicate the initial view and its verdicts.
		return
	}
	q0 := m.mon.Step(m.mon.Initial(), m.pm.Letter(m.cfg.Init))
	if m.mon.Final(q0) {
		m.recordVerdictState(q0, vclock.New(m.cfg.N))
	}
	if m.cfg.Mode == ModeDecentralized && !m.mon.Final(q0) {
		init := newStateset(m.mon.NumStates())
		init.set(q0)
		m.addGV(init, vclock.New(m.cfg.N), m.cfg.Init.Clone(), true)
	}
	m.initialQ = q0
	m.pump()
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
	m.inputSeq++
	if err := m.know.append(e); err != nil {
		m.fail(err)
		return
	}
	m.metrics.EventsProcessed++
	if m.cfg.Mode == ModeReplicated {
		m.broadcast(&wireMsg{Kind: msgEvent, Event: e})
	}
	m.serveWaiters()
	// Fig 5.7 metric: local events not yet absorbed by global views.
	if m.cfg.Mode == ModeDecentralized {
		queued := 0
		for _, gv := range m.gvs {
			queued += m.know.len(m.cfg.Index) - gv.cut[m.cfg.Index]
		}
		m.metrics.DelaySamples++
		m.metrics.DelayedEventsSum += queued
	}
}

func (m *Monitor) handleLocalTermination(total int) {
	m.inputSeq++
	m.localDone = true
	m.localTotal = total
	m.know.markDone(m.cfg.Index, total)
	m.peerDone[m.cfg.Index] = true
	m.broadcast(&wireMsg{Kind: msgTerm, Term: &termWire{Proc: m.cfg.Index, Total: total}})
	m.serveWaiters()
}

// serveWaiters re-serves tokens and fetches waiting for local events.
func (m *Monitor) serveWaiters() {
	if len(m.waitTokens) > 0 {
		pending := m.waitTokens
		m.waitTokens = nil
		for _, t := range pending {
			m.handleToken(t)
		}
	}
	if len(m.waitFetches) > 0 {
		pending := m.waitFetches
		m.waitFetches = nil
		for _, f := range pending {
			m.serveFetch(f.from, f.req)
		}
	}
}

type pendingFetch struct {
	from int
	req  *fetchWire
}

// --- network messages ---

// handleMessage dispatches one peer message, whichever way it travelled: a
// value handed over by a peer in this process (read-only here, except a token,
// which is now ours — messages.go), or bytes to decode.
func (m *Monitor) handleMessage(raw transport.Message) {
	m.inputSeq++
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
		m.peerDone[msg.Term.Proc] = true
	case msgFini:
		m.peerFini[msg.Fini] = true
	case msgEvent:
		if err := m.know.merge(msg.Event.Proc, []*dist.Event{msg.Event}); err != nil {
			m.fail(err)
		}
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
	waiting := m.serveToken(t)
	if waiting {
		// Rule 2 of SendToNextProcess: an unresolved transition targets our
		// future events; hold the token in w_tokens.
		if !m.routeToken(t) {
			m.waitTokens = append(m.waitTokens, t)
		}
		return
	}
	if !m.routeToken(t) {
		m.waitTokens = append(m.waitTokens, t)
	}
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
	waiting := m.serveToken(t)
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
	if waiting {
		if !m.routeToken(t) {
			m.waitTokens = append(m.waitTokens, t)
		}
		return
	}
	if !m.routeToken(t) {
		m.waitTokens = append(m.waitTokens, t)
	}
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

// --- fetches ---

// serveFetch answers a fetch with everything from FromSN to the current
// history end, not just the requested range: receive bursts then cost one
// fetch per sender instead of one per causal gap (channels are FIFO, so
// replies keep the requester's prefix contiguous).
func (m *Monitor) serveFetch(from int, f *fetchWire) {
	i := m.cfg.Index
	if f.ToSN > m.know.len(i) && !m.localDone {
		m.waitFetches = append(m.waitFetches, pendingFetch{from, f})
		return
	}
	// The reply carries a copy of the window's pointer slice (messages.go):
	// the window itself is rewritten by truncate and grow while a handed-over
	// reply may still be queued at the requester.
	m.metrics.FetchRepliesSent++
	m.send(from, &wireMsg{Kind: msgFetchReply, FetchReply: &fetchReplyWire{
		Proc: i, Events: append([]*dist.Event(nil), m.know.from(i, f.FromSN)...), Done: m.localDone, Total: m.localTotal,
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
	delete(m.inflightFetch, r.Proc)
}

// requestKnowledge fetches the segments needed to cover the target cut.
func (m *Monitor) requestKnowledge(target vclock.VC) {
	for j := 0; j < m.cfg.N; j++ {
		if j == m.cfg.Index || target[j] <= m.know.len(j) {
			continue
		}
		if m.inflightFetch[j] >= target[j] {
			continue // an equal-or-wider request is already in flight
		}
		m.inflightFetch[j] = target[j]
		m.metrics.FetchesSent++
		if m.finalizing {
			m.metrics.FinalizeFetches++
		}
		m.send(j, &wireMsg{Kind: msgFetch, Fetch: &fetchWire{
			Requester: m.cfg.Index,
			FromSN:    m.know.len(j) + 1,
			ToSN:      target[j],
		}})
	}
}

// --- global-view advancement ---

// addGV inserts a global view, implementing MergeSimilarGlobalViews
// (Algorithm 2): views at the same cut merge by unioning their state sets.
// counted controls whether the view increments the Fig. 5.8 fork metric.
func (m *Monitor) addGV(states stateset, cut vclock.VC, gstate dist.GlobalState, counted bool) *globalView {
	m.keyBuf = cut.AppendKey(m.keyBuf[:0])
	if gv, ok := m.gvs[string(m.keyBuf)]; ok { // allocation-free probe
		if gv.states.or(states) {
			gv.lastSig = "" // the enabled-set signature may have changed
			if counted {
				m.metrics.GlobalViewsCreated++
			}
		}
		return gv
	}
	gv := &globalView{states: states, cut: cut, gstate: gstate, letter: m.lt.letter(gstate)}
	m.gvs[string(m.keyBuf)] = gv // insertion materializes the key
	if counted {
		m.metrics.GlobalViewsCreated++
	}
	return gv
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
	if m.cfg.Mode == ModeReplicated {
		m.maybeFinalizeReplicated()
		m.maybeFini()
		return
	}
	for {
		if m.ctx != nil && m.ctx.Err() != nil {
			return
		}
		progressed := false
		for _, key := range m.gvKeys() {
			gv, ok := m.gvs[key]
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
	prog := int64(m.know.collected) + m.searchesDone
	if prog != m.progressGauge.Load() {
		m.progressGauge.Store(prog)
		if m.onProgress != nil {
			m.onProgress()
		}
	}
}

// gvKeys snapshots the live view keys in deterministic order. The returned
// slice is the monitor's keyScratch: valid until the next gvKeys call, which
// is fine for its callers (each finishes iterating before calling again, and
// advanceGV never calls gvKeys).
func (m *Monitor) gvKeys() []string {
	keys := m.keyScratch[:0]
	for k := range m.gvs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	m.keyScratch = keys
	return keys
}

// advanceGV applies pending local events to one view (ProcessEvent,
// Algorithm 2): consistent events step every state of the view exactly; a
// receive whose clock outruns the cut triggers exploration of its causal
// closure. After every advance the view (re-)launches outgoing-transition
// searches.
func (m *Monitor) advanceGV(key string, gv *globalView) bool {
	i := m.cfg.Index
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
			delete(m.gvs, key)
			gv.cut[i] = next
			gv.gstate[i] = e.State
			gv.letter = m.lt.update(gv.letter, i, e.State)
			// Step every state of the view word-wise into the recycled
			// scratch set; the view's old set becomes the next scratch.
			ns := m.ssScratch
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
			m.ssScratch = gv.states
			gv.states = ns
			m.keyBuf = gv.cut.AppendKey(m.keyBuf[:0])
			if other, dup := m.gvs[string(m.keyBuf)]; dup && other != gv {
				other.states.or(gv.states) // merge into the resident view
				return true
			}
			key = string(m.keyBuf) // insertion materializes the key
			m.gvs[key] = gv
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
		delete(m.gvs, key)
		m.integrateBox(box, gv.states, target)
		return true
	}
	return changed
}

// maybeLaunchSearches implements CheckOutgoingTransitions (Algorithm 3) with
// the §4.3.2 duplicate-avoidance: a token is created only when the set of
// possibly-enabled outgoing transitions changed since the view's previous
// event, and only once per (state, cut).
func (m *Monitor) maybeLaunchSearches(gv *globalView) {
	if m.cfg.N == 1 {
		return
	}
	i := m.cfg.Index
	// Per automaton state in the view, the possibly-enabled outgoing
	// transitions (those whose local conjunct Pi does not forbid,
	// Algorithm 3 line 7). Ids, signatures and the search records all build
	// into reused scratch; strings materialize only past the dedup checks.
	searches := m.searchScratch[:0]
	ids := m.idScratch[:0]
	sb := m.sigBuf[:0]
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
			searches = append(searches, stateSearch{q: q, lo: lo, hi: len(ids), sigLo: sigLo, sigHi: len(sb)})
			sb = append(sb, ';')
		}
	}
	m.searchScratch, m.idScratch, m.sigBuf = searches, ids, sb
	if len(searches) == 0 {
		gv.lastSig = ""
		return
	}
	if string(sb) == gv.lastSig { // comparison does not materialize
		return // §4.3.2: same possibly-enabled set as the previous event
	}
	gv.lastSig = string(sb)
	sb = append(sb, '@')
	sb = gv.cut.AppendKey(sb)
	m.sigBuf = sb
	if m.launched[string(sb)] { // allocation-free probe
		return
	}
	m.launched[string(sb)] = true
	for _, s := range searches {
		m.launchSearch(gv, s.q, ids[s.lo:s.hi], sb[s.sigLo:s.sigHi])
	}
}

// launchSearch creates and routes one token (CheckOutgoingTransitions,
// Algorithm 3) for a single automaton state of the view, unless an
// equivalent search is already in flight (§4.3.2 suppression). sigBytes is
// the state's "q|ids" signature, scratch-backed: it is only materialized to
// a string once the search actually launches.
func (m *Monitor) launchSearch(gv *globalView, q int, ids []int, sigBytes []byte) {
	i := m.cfg.Index
	if m.activeSig[string(sigBytes)] > 0 { // allocation-free probe
		// An equivalent search (same automaton state, same set of possibly
		// enabled outgoing transitions) is still in flight; its result
		// covers this view's obligations.
		return
	}
	sig := string(sigBytes)
	m.searchSeq++
	t := &tokenWire{
		Parent:   i,
		SearchID: int64(i)<<32 | m.searchSeq,
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
		t.Trans = append(t.Trans, tr)
	}
	// Transitions already true at the origin cannot occur (the automaton is
	// deterministic: the view's own letter chose a different transition),
	// but guard against them for safety.
	live := t.Trans[:0]
	for _, tr := range t.Trans {
		if tr.Eval == evalUnset {
			live = append(live, tr)
		}
	}
	t.Trans = live
	if len(t.Trans) == 0 {
		return
	}
	m.outstanding[t.SearchID] = true
	m.searchSig[t.SearchID] = sig
	m.activeSig[sig]++
	// The search may return a token whose enabled cuts are explored from
	// t.Origin; the origin pins the knowledge-GC floor until the search
	// closes.
	m.searchOrigin[t.SearchID] = t.Origin
	m.metrics.SearchesLaunched++
	if !m.routeToken(t) {
		m.waitTokens = append(m.waitTokens, t)
	}
}

// closeSearch retires a fully resolved search.
func (m *Monitor) closeSearch(id int64) {
	delete(m.outstanding, id)
	delete(m.searchOrigin, id)
	m.searchesDone++
	if sig, ok := m.searchSig[id]; ok {
		delete(m.searchSig, id)
		if m.activeSig[sig] > 0 {
			m.activeSig[sig]--
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

// retainResidual records states absorbed by a conclusive step at cut, for
// finalize-time re-exploration; residuals at the same cut merge like views
// (MergeSimilarGlobalViews). The caller must own both arguments: they are
// retained verbatim and the cut joins the need-floor, so aliasing a live
// view's storage here would corrupt the GC argument.
func (m *Monitor) retainResidual(states stateset, cut vclock.VC) {
	m.keyBuf = cut.AppendKey(m.keyBuf[:0])
	if r, ok := m.residuals[string(m.keyBuf)]; ok { // allocation-free probe
		r.states.or(states)
		return
	}
	m.residuals[string(m.keyBuf)] = &residualView{states: states, cut: cut}
}

// residualKeys snapshots the residual cut keys in deterministic order,
// sharing gvKeys' keyScratch discipline (callers finish iterating before any
// other scratch user runs).
func (m *Monitor) residualKeys() []string {
	keys := m.keyScratch[:0]
	for k := range m.residuals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	m.keyScratch = keys
	return keys
}

// maybeFinalize extends every surviving view — and every retained residual —
// to the global final cut once everything has terminated and all searches are
// resolved, so the monitor's verdict set covers the paths it traced
// end-to-end, including inconclusive interleavings whose chained prefix was
// absorbed by a conclusive step. Inconclusive final states report the
// originating view's (or residual's) cut — the last verified consistent cut
// of the path, meaningful provenance — rather than the global final cut.
func (m *Monitor) maybeFinalize() {
	if !m.cfg.FinalizeFull || m.finalized {
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
	if len(m.gvs) == 0 && len(m.residuals) == 0 {
		m.finalized = true
		return
	}
	final, ok := m.know.finalCut()
	if !ok {
		return
	}
	if !m.know.covers(final) {
		m.finalizing = true
		m.requestKnowledge(final)
		return
	}
	m.finalizing = false
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
		gv := m.gvs[key]
		if !extend(gv.states, gv.cut) {
			return
		}
	}
	for _, key := range m.residualKeys() {
		r := m.residuals[key]
		if !extend(r.states, r.cut) {
			return
		}
	}
	m.residuals = map[string]*residualView{}
	m.finalized = true
}

// maybeFinalizeReplicated evaluates the full lattice once every process's
// complete trace has been broadcast.
func (m *Monitor) maybeFinalizeReplicated() {
	if m.finalized || !m.localDone {
		return
	}
	final, ok := m.know.finalCut()
	if !ok || !m.know.covers(final) {
		return
	}
	init := newStateset(m.mon.NumStates())
	init.set(m.initialQ)
	box, err := m.explore(init, vclock.New(m.cfg.N), final)
	if err != nil {
		m.fail(err)
		return
	}
	if m.mon.Final(m.initialQ) {
		m.recordVerdictState(m.initialQ, vclock.New(m.cfg.N))
	}
	for _, c := range box.conclusive {
		m.recordVerdictState(c.q, c.cut)
	}
	for _, q := range box.finalStates {
		m.recordVerdictState(q, final)
	}
	m.finalized = true
}

// quiescent reports whether this monitor has no pending work of its own.
func (m *Monitor) quiescent() bool {
	if !m.localDone || len(m.outstanding) > 0 || len(m.inflightFetch) > 0 {
		return false
	}
	for _, d := range m.peerDone {
		if !d {
			return false
		}
	}
	return true
}

func (m *Monitor) maybeFini() {
	if m.finiSent || !m.quiescent() {
		return
	}
	if m.cfg.FinalizeFull && !m.finalized {
		return
	}
	if m.cfg.Mode == ModeReplicated && !m.finalized {
		return
	}
	// Without finalization, a surviving inconclusive view means some traced
	// path never concluded: report '?' (through recordVerdictState so
	// verdict subscribers see it too).
	if !m.cfg.FinalizeFull && m.cfg.Mode == ModeDecentralized {
		for _, key := range m.gvKeys() {
			gv := m.gvs[key]
			for _, q := range gv.states.members(m.mon.NumStates()) {
				m.recordVerdictState(q, gv.cut)
			}
		}
	}
	m.finiSent = true
	m.peerFini[m.cfg.Index] = true
	m.broadcast(&wireMsg{Kind: msgFini, Fini: m.cfg.Index})
}

func (m *Monitor) finished() bool {
	if !m.finiSent {
		return false
	}
	for _, f := range m.peerFini {
		if !f {
			return false
		}
	}
	return true
}

// --- knowledge garbage collection ---
//
// A monitor may discard an event once no future computation can touch it:
//
//   - its own explorations start at a global-view cut or at the origin of an
//     outstanding search, and only ever walk upward — the pointwise minimum
//     over those cuts is this monitor's *need-floor*;
//   - peers read this monitor's history through tokens (scanning from the
//     token's candidate cut, which dominates the parent's search origin) and
//     fetches (starting past the requester's knowledge frontier, which
//     dominates its need-floor) — so events of process i below *every*
//     monitor's need-floor for component i are unreachable globally.
//
// Every message therefore piggybacks the sender's need-floor, each monitor
// folds the reports into its view of the global minimal cut (conservative:
// reports lag, and need-floors only advance), and truncates its knowledge
// strictly below the pointwise minimum. Per-pair FIFO delivery makes the
// in-flight cases safe: a token's cut always dominates its parent's
// reported floor while the search is outstanding, and a parked fetch pins
// the requester's floor below the requested range until it is served.

// floorInf is the need-floor component of a monitor that will never again
// start an exploration from (or below) any cut: nothing pins its peers.
const floorInf = 1 << 30

// floorAnnounceEvery is how far (in events of one peer's process) this
// monitor's need-floor may advance beyond what that peer last heard before
// a dedicated floor message is sent. Piggybacking on ordinary traffic does
// the work on chatty workloads; the announcement is the backstop that keeps
// quiet peers collecting too.
const floorAnnounceEvery = 256

// gcCollectEveryInputs amortizes the floor recomputation: collectKnowledge
// runs once per this many handled inputs (local events or messages) rather
// than on every pump, so the hot path pays the O(views × n) scan a fraction
// of the time. The cadence is measured in inputs, not pumps, so batched pump
// rounds (pumpBatch) do not stretch the collection interval. A stale floor
// is strictly lower than the current one (floors are monotone), so skipped
// runs only delay collection, never over-collect.
const gcCollectEveryInputs = 16

// noteFloor folds a peer's reported need-floor into our view of the global
// minimal cut. Floors only ever advance, so a stale report merges away.
func (m *Monitor) noteFloor(from int, f vclock.VC) {
	if f == nil || from < 0 || from >= m.cfg.N || from == m.cfg.Index {
		return
	}
	if len(f) != m.cfg.N {
		m.fail(fmt.Errorf("core: monitor %d: peer %d reported a %d-entry floor, want %d", m.cfg.Index, from, len(f), m.cfg.N))
		return
	}
	m.peerFloor[from].Merge(f)
}

// needFloor computes this monitor's need-floor: the pointwise minimum cut
// any of its future explorations can start from (global views, including
// blocked ones, plus the origins of outstanding searches). All-floorInf
// when the monitor has concluded every path it will ever trace.
func (m *Monitor) needFloor() vclock.VC {
	f := make(vclock.VC, m.cfg.N)
	for p := range f {
		f[p] = floorInf
	}
	lower := func(cut vclock.VC) {
		for p, x := range cut {
			if x < f[p] {
				f[p] = x
			}
		}
	}
	for _, gv := range m.gvs {
		lower(gv.cut)
	}
	for _, origin := range m.searchOrigin {
		lower(origin)
	}
	// Residual cuts pin the history finalization will re-explore; without
	// them GC would truncate below a retained pre-absorption cut and the
	// finalize-time walk would read collected state (a hard panic in
	// knowledge.state).
	for _, r := range m.residuals {
		lower(r.cut)
	}
	return f
}

// collectKnowledge truncates the knowledge store below the global minimal
// cut: peer events below our own need-floor, and our own events below the
// minimum of our need-floor and every peer's reported need for them. It
// runs at the end of every pump, so the store tracks the resolved frontier.
func (m *Monitor) collectKnowledge() {
	if m.cfg.Mode != ModeDecentralized {
		// The replicated baseline evaluates the full lattice from the
		// initial cut at termination; nothing is ever collectible.
		return
	}
	if m.curFloor != nil && m.inputSeq-m.lastGC < gcCollectEveryInputs {
		return
	}
	m.lastGC = m.inputSeq
	m.curFloor = m.needFloor()
	trunc := m.curFloor.Clone()
	i := m.cfg.Index
	for j := 0; j < m.cfg.N; j++ {
		if j == i {
			continue
		}
		if pf := m.peerFloor[j][i]; pf < trunc[i] {
			trunc[i] = pf
		}
	}
	m.know.truncate(trunc)
	m.announceFloors()
}

// announceFloors sends a dedicated floor message to any peer that could
// collect substantially more of its own history than it last heard from us.
func (m *Monitor) announceFloors() {
	if m.finiSent {
		return
	}
	for j := 0; j < m.cfg.N; j++ {
		if j == m.cfg.Index {
			continue
		}
		cur, sent := m.curFloor[j], m.sentFloor[j][j]
		if cur-sent >= floorAnnounceEvery || (cur > sent && cur >= floorInf) {
			m.send(j, &wireMsg{Kind: msgFloor})
		}
	}
}

// --- plumbing ---

func (m *Monitor) send(to int, msg *wireMsg) { m.deliver(msg, to, to+1) }

// broadcast sends one message to every peer.
func (m *Monitor) broadcast(msg *wireMsg) { m.deliver(msg, 0, m.cfg.N) }

// deliver is the one way a message leaves the monitor: to every peer in
// [lo, hi). Every decentralized-mode message carries the sender's current
// need-floor, so the global minimal cut advances with ordinary protocol
// traffic (tokens, fetch replies, termination) at no extra message cost.
// The message is handed over as it is when the endpoint can take it and
// encoded otherwise — once, whatever the number of recipients: the floor is set
// before either and is the same for all of them, and neither the envelope nor
// the payload bytes are written again by anyone (messages.go). Either way
// the transport accounts the encoded size.
func (m *Monitor) deliver(msg *wireMsg, lo, hi int) {
	if m.cfg.Mode == ModeDecentralized && m.curFloor != nil {
		msg.Floor = m.curFloor
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
			m.sentFloor[j] = m.curFloor
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
	fmt.Fprintf(&b, "monitor %d: %d views, %d searches outstanding, verdicts ", m.cfg.Index, len(m.gvs), len(m.outstanding))
	var vs []string
	for v := range m.verdicts {
		vs = append(vs, v.String())
	}
	sort.Strings(vs)
	fmt.Fprintf(&b, "{%s}", strings.Join(vs, ","))
	return b.String()
}
