package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/transport"
	"decentmon/internal/vclock"
)

// feedQueue is the capacity of each monitor's feed queue, and the session's
// whole backpressure: a Feed for a process whose monitor has feedQueue items
// still unread blocks until the monitor takes one (or the session is
// cancelled), so a feeder can run at most feedQueue windows ahead of it.
const feedQueue = 16

// SessionConfig parameterizes an online monitoring session.
type SessionConfig struct {
	// N is the number of monitored processes.
	N int
	// Automaton is the LTL3 monitor replicated at every process.
	Automaton *automaton.Monitor
	// Props binds the automaton's propositions to processes.
	Props *dist.PropMap
	// Init is the initial global state.
	Init dist.GlobalState
	// SkipFinalize disables extending surviving views to the final cut.
	SkipFinalize bool
	// Network supplies the transport; if nil an in-memory network is
	// created. The session closes the network either way.
	Network transport.Network
	// Shards is ignored: every round runs on its monitor's own goroutine.
	// The field survives only because the benchmark harness (bench/) still
	// sets it for its pool cell; it goes with the next change to bench/.
	Shards int
}

// VerdictEvent is one incremental verdict detection, delivered on
// Session.Verdicts as the execution unfolds.
type VerdictEvent struct {
	// Monitor is the index of the monitor process that detected it.
	Monitor int
	// Verdict is the three-valued evaluation result.
	Verdict automaton.Verdict
	// State is the automaton state reached.
	State int
	// Cut is the consistent cut (events per process) at which the state
	// was detected, when a single one is known; nil otherwise.
	Cut []int
	// Conclusive reports whether the state is absorbing (⊤ or ⊥ on every
	// extension). An inconclusive event appears when a path settles in the
	// state (automaton.Monitor.Settled: every extension keeps '?'), which may
	// be at INIT, and otherwise during finalization.
	Conclusive bool
}

// Session is an online decentralized monitoring run: n monitors wired over a
// network, fed incrementally, reporting verdicts as they are detected.
//
// Feed (and End) may be called concurrently for different processes, but
// events of one process must be fed in sequence-number order from a single
// goroutine at a time; that is the whole ordering contract, and what lets
// FeedRun hand a mixed window to the monitors one process at a time. Every
// monitor runs its rounds on its own goroutine, where its inputs arrive.
// Verdicts delivers every detection; its buffer is sized so monitors never
// block on a slow subscriber, and it is closed by Close. Close ends every
// process still open, waits for the monitors to finalize, and returns the
// terminal RunResult. Cancelling the context passed to NewSession makes Feed,
// End and Close return promptly.
type Session struct {
	cfg      SessionConfig
	ctx      context.Context
	cancel   context.CancelFunc
	nw       transport.Network
	monitors []*Monitor
	verdicts chan VerdictEvent

	wg   sync.WaitGroup
	errs []error

	start      time.Time
	conclOnce  sync.Once
	firstConcl time.Duration

	// feedMu[p] serializes Feed(p) against End(p): End snapshots the fed
	// count as the process's terminal total, so no Feed may be in flight
	// past the ended check when it does. Within one process the lock is
	// uncontended (Feed is single-goroutine per process by contract);
	// across processes the locks are independent.
	feedMu []sync.Mutex

	// closeMu serializes Close callers: a second Close blocks until the
	// first finishes, then returns the same cached outcome. Snapshot also
	// holds it, so a snapshot and a close cannot interleave.
	closeMu sync.Mutex

	// feedItems counts feed-queue items enqueued across all monitors
	// (single events, batches and End markers alike), incremented before
	// the channel send so the snapshot quiescence invariant handled ≤ sent
	// holds at every instant (see awaitQuiescence).
	feedItems atomic.Int64

	// quiesce wakes the snapshot coordinator when a monitor completes a round
	// (snapshot.go); every monitor of the session points at it.
	quiesce quiesceSignal
	// exited counts monitor goroutines that have returned, incremented before
	// the quiesce flag is read (launch): a fleet that has all exited is
	// quiescent whatever its inboxes still hold (handshake.go).
	exited atomic.Int64

	// snap is the snapshot encoder's reusable scratch and fp the automaton
	// fingerprint it writes into every blob (snapshot.go). closeMu guards snap.
	snap   snapScratch
	fpOnce sync.Once
	fp     uint64

	// emitted logs every VerdictEvent delivered to subscribers, persisted in
	// snapshots so a restored session replays the history to its own
	// subscribers. Bounded by N × NumStates (recordVerdictState dedupes per
	// (monitor, state)), the same bound that sizes the verdicts buffer.
	emitMu  sync.Mutex
	emitted []VerdictEvent

	mu          sync.Mutex
	fed         []int
	ended       []bool
	endedCount  int
	programWall time.Duration
	closed      bool
	result      *RunResult
	closeErr    error
}

// NewSession wires up the monitors and starts them. The session owns the
// network (a default in-memory one when cfg.Network is nil) and closes it
// with Close.
func NewSession(ctx context.Context, cfg SessionConfig) (*Session, error) {
	s, err := buildSession(ctx, cfg)
	if err != nil {
		return nil, err
	}
	s.launch()
	return s, nil
}

// buildSession constructs a session — network, monitors, channels — without
// starting the monitor goroutines, so RestoreSession can load captured state
// into the monitors first (a restored monitor must not run a single round
// before its state is in place).
func buildSession(ctx context.Context, cfg SessionConfig) (*Session, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("core: session needs at least one process")
	}
	if cfg.Automaton == nil {
		return nil, fmt.Errorf("core: session needs a monitor automaton")
	}
	if cfg.Props == nil {
		return nil, fmt.Errorf("core: session needs a proposition map")
	}
	if len(cfg.Init) != cfg.N {
		return nil, fmt.Errorf("core: initial state has %d entries, want %d", len(cfg.Init), cfg.N)
	}
	nw := cfg.Network
	if nw == nil {
		nw = transport.NewChanNetwork(cfg.N)
	}
	if nw.N() != cfg.N {
		nw.Close() // the session owns the network on every path, error paths included
		return nil, fmt.Errorf("core: network has %d endpoints, traces have %d processes", nw.N(), cfg.N)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &Session{
		cfg:    cfg,
		ctx:    sctx,
		cancel: cancel,
		nw:     nw,
		// recordVerdictState fires at most once per (monitor, automaton
		// state), so this buffer can never fill: monitors never block on
		// the subscription channel.
		verdicts: make(chan VerdictEvent, cfg.N*cfg.Automaton.NumStates()),
		quiesce:  quiesceSignal{wake: make(chan struct{}, 1)},
		errs:     make([]error, cfg.N),
		feedMu:   make([]sync.Mutex, cfg.N),
		fed:      make([]int, cfg.N),
		ended:    make([]bool, cfg.N),
		start:    time.Now(),
	}
	prog, err := compile(&s.cfg) // once, for the n monitors to share
	if err != nil {
		cancel()
		nw.Close()
		return nil, err
	}
	fleet := make([]Monitor, cfg.N)
	s.monitors = make([]*Monitor, cfg.N)
	sl := newFleetSlabs(cfg.N, statesetWords(cfg.Automaton.NumStates()))
	for i := range fleet {
		if err := newMonitor(&fleet[i], s, i, prog, nw.Endpoint(i), sl); err != nil {
			cancel()
			nw.Close()
			return nil, err
		}
		s.monitors[i] = &fleet[i]
	}
	return s, nil
}

// fleetSlabs is the storage a session's n monitors cut their n-wide arrays
// from, one allocation per element type for the whole fleet instead of a
// dozen per monitor: per monitor, six int arrays (the knowledge window's
// bases and final totals, the floors' peerNeed and sentTo, the in-flight
// fetches, the initial view's cut), three bool arrays (termination marks and
// the handshake's peerDone and peerFini), two state arrays (the floor states
// and the initial view's global state), the window headers, and the
// verdict-state set. The arrays live as long as the session; restore fills
// them in place or, for the floors, replaces them whole.
type fleetSlabs struct {
	ints    []int
	bools   []bool
	states  []dist.LocalState
	windows [][]*dist.Event
	words   []uint64
}

func newFleetSlabs(n, stateWords int) *fleetSlabs {
	return &fleetSlabs{
		ints:    make([]int, 6*n*n),
		bools:   make([]bool, 3*n*n),
		states:  make([]dist.LocalState, 2*n*n),
		windows: make([][]*dist.Event, n*n),
		words:   make([]uint64, n*stateWords),
	}
}

// take cuts the next k elements off *slab, with no capacity past them: an
// append to one monitor's array can never write into the next one's.
func take[T any](slab *[]T, k int) []T {
	s := (*slab)[:k:k]
	*slab = (*slab)[k:]
	return s
}

// launch starts the monitor goroutines of a built session, one loop each.
func (s *Session) launch() {
	for i, m := range s.monitors {
		s.wg.Add(1)
		go func(i int, m *Monitor) {
			defer s.wg.Done()
			err := m.run(s.ctx)
			s.errs[i] = err
			if err != nil {
				// A dead monitor dooms the run: cancel so feeders and the
				// remaining monitors unwind instead of wedging.
				s.cancel()
			}
			s.exited.Add(1)
			if s.quiesce.waiting.Load() {
				s.quiesce.notify()
			}
		}(i, m)
	}
}

func (s *Session) emitVerdict(monitor, state int, v automaton.Verdict, cut vclock.VC) {
	conclusive := s.cfg.Automaton.Final(state)
	if conclusive {
		s.conclOnce.Do(func() { s.firstConcl = time.Since(s.start) })
	}
	ev := VerdictEvent{Monitor: monitor, Verdict: v, State: state, Conclusive: conclusive}
	if cut != nil {
		ev.Cut = []int(cut)
	}
	s.emitMu.Lock()
	s.emitted = append(s.emitted, ev)
	s.emitMu.Unlock()
	select {
	case s.verdicts <- ev:
	default:
		// Unreachable by construction (buffer covers every possible event);
		// dropping beats blocking a monitor goroutine if it ever regresses.
	}
}

// Verdicts returns the subscription channel: one VerdictEvent per newly
// detected (monitor, automaton state) pair, closed by Close after the
// terminal result is complete.
func (s *Session) Verdicts() <-chan VerdictEvent { return s.verdicts }

// RetainedEvents reports the total retained-knowledge backlog summed over
// all monitors — the number of events whose full vector clocks the session
// currently holds. Observability surfaces (dlmond's knowledge gauge) read
// it off the monitors' published gauges without touching monitor state.
func (s *Session) RetainedEvents() int64 {
	var sum int64
	for _, m := range s.monitors {
		sum += m.lagGauge.Load()
	}
	return sum
}

// checkEvent is the engine's admission check, and the reason the event record
// (dist.AppendEventRecord) can do without a clock count, a sequence number and
// a way to say "unknown kind": no event it could not carry gets in.
func (s *Session) checkEvent(e *dist.Event) error {
	switch {
	case e == nil:
		return fmt.Errorf("core: session fed a nil event")
	case e.Proc < 0 || e.Proc >= s.cfg.N:
		return fmt.Errorf("core: stream event of nonexistent process %d", e.Proc)
	case len(e.VC) != s.cfg.N:
		return fmt.Errorf("core: event %d of process %d has a %d-entry clock, session has %d processes", e.SN, e.Proc, len(e.VC), s.cfg.N)
	case e.VC[e.Proc] != e.SN:
		return fmt.Errorf("core: event %d of process %d disagrees with its clock %v", e.SN, e.Proc, e.VC)
	case e.Type < dist.Internal || e.Type > dist.Recv:
		return fmt.Errorf("core: event %d of process %d has unknown type %d", e.SN, e.Proc, int(e.Type))
	}
	return nil
}

// enqueue hands one item to process p's monitor. It is counted before the
// channel send, so that handled ≤ sent holds at every instant (quiescence
// accounting), and uncounted again if it was never enqueued.
func (s *Session) enqueue(p int, it feedItem) error {
	s.feedItems.Add(1)
	err := s.monitors[p].enqueue(s.ctx, it)
	if err != nil {
		s.feedItems.Add(-1)
	}
	return err
}

// feed is Feed and FeedRun after validation: one feed item carrying k events
// of process p. It holds the process's feed lock across check→enqueue→count,
// so a concurrent End (possibly from Close) cannot
// snapshot the terminal total with these events still in flight.
func (s *Session) feed(p, k int, it feedItem) error {
	s.feedMu[p].Lock()
	defer s.feedMu[p].Unlock()
	s.mu.Lock()
	closed, ended := s.closed, s.ended[p]
	s.mu.Unlock()
	switch {
	case closed:
		return fmt.Errorf("core: session closed")
	case ended:
		return fmt.Errorf("core: process %d already ended", p)
	}
	// enqueue's select may pick a free queue slot over a done context, so a
	// cancelled session is refused here, before it.
	if err := s.ctx.Err(); err != nil {
		return err
	}
	if err := s.enqueue(p, it); err != nil {
		return err
	}
	s.mu.Lock()
	s.fed[p] += k
	s.mu.Unlock()
	return nil
}

// Feed delivers one pre-stamped event to its process's monitor, blocking
// while that monitor's feed queue is full (feedQueue) and returning promptly
// with the context's error if the session is cancelled. Events of one process
// must arrive in sequence-number order. The event is shared from here on, by
// pointer, with every monitor that learns of it (messages.go): the session
// never writes it and the caller must not either.
func (s *Session) Feed(e *dist.Event) error {
	if err := s.checkEvent(e); err != nil {
		return err
	}
	return s.feed(e.Proc, 1, feedItem{event: e})
}

// FeedScratch is what one feeder reuses from one FeedRun to the next: a
// counter per process. The zero value is ready; a feeder keeps its own.
type FeedScratch struct {
	ends []int
}

// FeedRun delivers a window of events of any processes, in the order a single
// source produced them: every event is checked first, so a refused window
// feeds nothing, and then each process's events go to its monitor as one batch
// — one hand-off per process the window has events of. A process's events keep their order; events of different processes may
// reach their monitors in another order than the window's, as they may from
// two feeders running side by side, which is all the Feed contract orders.
// The session takes ownership of the events, not of run. After a failure part
// of the window may have been fed. A window of one process is its own group
// and leaves fs untouched.
func (s *Session) FeedRun(fs *FeedScratch, run []*dist.Event) error {
	single := true
	for _, e := range run {
		if err := s.checkEvent(e); err != nil {
			return err
		}
		single = single && e.Proc == run[0].Proc
	}
	switch {
	case len(run) == 0:
		return nil
	case len(run) == 1:
		return s.feed(run[0].Proc, 1, feedItem{event: run[0]})
	case single:
		return s.feed(run[0].Proc, len(run), feedItem{batch: slices.Clone(run)})
	}
	// Sort the window by process into one array (a counting sort: ends[p] is
	// first where process p's group starts, then where it ends) and hand each
	// monitor its group as a batch with no capacity past it. The monitors own
	// the array from here; each reads its own part.
	if len(fs.ends) < s.cfg.N {
		fs.ends = make([]int, s.cfg.N)
	}
	ends := fs.ends[:s.cfg.N]
	clear(ends)
	for _, e := range run {
		ends[e.Proc]++
	}
	at := 0
	for p, k := range ends {
		ends[p], at = at, at+k
	}
	grouped := make([]*dist.Event, len(run))
	for _, e := range run {
		grouped[ends[e.Proc]] = e
		ends[e.Proc]++
	}
	lo := 0
	for p, hi := range ends {
		var err error
		switch hi - lo {
		case 0:
		case 1:
			err = s.feed(p, 1, feedItem{event: grouped[lo]})
		default:
			err = s.feed(p, hi-lo, feedItem{batch: grouped[lo:hi:hi]})
		}
		if err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// End marks one process as terminated; its monitor then knows no further
// local events will arrive. Idempotent per process.
func (s *Session) End(p int) error {
	if p < 0 || p >= s.cfg.N {
		return fmt.Errorf("core: ending nonexistent process %d", p)
	}
	s.feedMu[p].Lock()
	defer s.feedMu[p].Unlock()
	s.mu.Lock()
	if s.ended[p] {
		s.mu.Unlock()
		return nil
	}
	s.ended[p] = true
	s.endedCount++
	total := s.fed[p]
	if s.endedCount == s.cfg.N {
		s.programWall = time.Since(s.start)
	}
	s.mu.Unlock()
	return s.enqueue(p, feedItem{term: true, total: total})
}

// Close ends every process still open, waits for the monitors to reach
// global termination (running finalization), closes the network and the
// verdict channel, and returns the terminal RunResult. It is idempotent; a
// cancelled session context makes it return the context's error promptly.
func (s *Session) Close() (*RunResult, error) {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return s.result, s.closeErr
	}
	s.closed = true
	s.mu.Unlock()
	for p := 0; p < s.cfg.N; p++ {
		s.End(p) // a cancelled context is surfaced below, not here
	}
	s.wg.Wait() // every monitor goroutine returned: collect reads their state race-free
	s.nw.Close()
	res, err := s.collect()
	s.cancel()
	s.mu.Lock()
	s.result, s.closeErr = res, err
	s.mu.Unlock()
	close(s.verdicts)
	return res, err
}

// collect builds the terminal RunResult from the finished monitors.
func (s *Session) collect() (*RunResult, error) {
	wall := time.Since(s.start)
	var ctxErr error
	for i, err := range s.errs {
		if err == nil {
			continue
		}
		if err == context.Canceled || err == context.DeadlineExceeded {
			// Cancellation came from outside (or from another monitor's
			// failure, reported on its own index by this loop).
			if ctxErr == nil {
				ctxErr = err
			}
			continue
		}
		return nil, fmt.Errorf("core: monitor %d failed: %w", i, err)
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	s.mu.Lock()
	programWall := s.programWall
	s.mu.Unlock()
	res := &RunResult{
		Verdicts:        map[automaton.Verdict]bool{},
		FinalStates:     map[int]bool{},
		Metrics:         make([]Metrics, 0, len(s.monitors)),
		NetMessages:     s.nw.Stats().Messages(),
		NetBytes:        s.nw.Stats().Bytes(),
		FirstConclusive: s.firstConcl,
		Wall:            wall,
		ProgramWall:     programWall,
	}
	for _, m := range s.monitors {
		for v, reached := range m.verdicts {
			if reached {
				res.Verdicts[automaton.Verdict(v)] = true
			}
		}
		m.verdictStates.forEach(func(q int) { res.FinalStates[q] = true })
		res.Metrics = append(res.Metrics, m.Metrics())
	}
	return res, nil
}
