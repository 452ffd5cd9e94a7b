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

// maxLag is the retained-knowledge backlog (events per monitor) above which
// Session.Feed applies backpressure. It is deliberately small: on collectible
// workloads the backlog oscillates around it, which is what keeps an unpaced
// replay's KnowledgePeak bounded as the trace grows.
const maxLag = 256

// feedQueue is the capacity of each monitor's feed queue. It is shallow
// because events parked in the channel are invisible to the retained-knowledge
// gauge the backpressure gate reads: a deep queue would let a whole trace slip
// past it.
const feedQueue = 16

// feedGrace is how long a lagging Feed waits for the pipeline to make
// progress before concluding that the backlog is pinned by work that needs
// future events (e.g. an unresolved reachability search) and letting the
// event through anyway — blocking any longer would deadlock the replay.
const feedGrace = 2 * time.Millisecond

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
	// extension); inconclusive events only appear during finalization.
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

	// The backpressure gate (see admitN). relief is signalled by monitors
	// whenever their progress gauge advances.
	relief       chan struct{}
	gateMu       sync.Mutex
	lastProgress int64
	bypassLeft   int

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
		relief:   make(chan struct{}, 1),
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
	for i := 0; i < cfg.N; i++ {
		m, err := newMonitor(&s.cfg, i, prog, nw.Endpoint(i))
		if err != nil {
			cancel()
			nw.Close()
			return nil, err
		}
		idx := i
		m.OnVerdict = func(state int, v automaton.Verdict, cut vclock.VC) {
			s.emitVerdict(idx, state, v, cut)
		}
		m.onProgress = s.signalRelief
		m.quiesce = &s.quiesce
		s.monitors = append(s.monitors, m)
	}
	return s, nil
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
			s.signalRelief()
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

func (s *Session) signalRelief() {
	select {
	case s.relief <- struct{}{}:
	default:
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

// maxRetained is the largest retained-knowledge backlog across monitors.
func (s *Session) maxRetained() int64 {
	var worst int64
	for _, m := range s.monitors {
		if l := m.lagGauge.Load(); l > worst {
			worst = l
		}
	}
	return worst
}

// progress is the monotone sum of every monitor's collected events and
// resolved searches — the signal that monitor round trips are keeping up.
func (s *Session) progress() int64 {
	var sum int64
	for _, m := range s.monitors {
		sum += m.progressGauge.Load()
	}
	return sum
}

// admitN applies feeder-side backpressure to a batch of k events: while some
// monitor's retained knowledge is at or above the lag bound, each unit of
// pipeline progress (a knowledge event collected, a search resolved) buys one
// admission, so an unpaced replay is throttled to the monitors' round-trip
// and collection rate. When no progress happens within a grace window the
// backlog is pinned by work that needs future events (e.g. an unresolved
// reachability search), and the gate opens for a bounded batch — memory then
// grows as the workload inherently requires, but the replay never deadlocks.
// Credits are consumed batch-wise: a single gate pass admits the whole batch
// once enough progress (or bypass burst) has accrued, so batched feeding pays
// the gauge scan once per batch instead of once per event. Free admission
// below the lag bound covers the entire batch — the bound is a backlog
// threshold, not a rate, and a batch is bounded by the feeders' chunk size.
func (s *Session) admitN(k int) error {
	if k <= 0 {
		return s.ctx.Err()
	}
	s.gateMu.Lock()
	defer s.gateMu.Unlock()
	timer := (*time.Timer)(nil)
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for k > 0 {
		if err := s.ctx.Err(); err != nil {
			return err
		}
		prog := s.progress()
		if s.maxRetained() < int64(maxLag) {
			// Below the bound: free admission. Keep the credit baseline
			// current so progress made while unthrottled cannot later be
			// spent as a burst.
			s.lastProgress = prog
			s.bypassLeft = 0
			return nil
		}
		// Credits bank up to one lag bound, no further: progress overcounts
		// admissions (a fed event is collected once by every monitor that
		// fetched it), so on a healthy run the surplus grows without limit,
		// and a feeder could later pour all of it into a stalled pipeline.
		if floor := prog - int64(maxLag); s.lastProgress < floor {
			s.lastProgress = floor
		}
		if avail := prog - s.lastProgress; avail > 0 {
			if avail > int64(k) {
				avail = int64(k)
			}
			s.lastProgress += avail // consume credits
			k -= int(avail)
			s.bypassLeft = 0
			continue
		}
		if s.bypassLeft > 0 {
			take := s.bypassLeft
			if take > k {
				take = k
			}
			s.bypassLeft -= take
			k -= take
			continue
		}
		if timer == nil {
			timer = time.NewTimer(feedGrace)
		} else {
			timer.Reset(feedGrace)
		}
		select {
		case <-s.relief:
			if !timer.Stop() {
				//declint:ignore blockingsend Stop() returned false, so the timer already fired and timer.C holds exactly one value; this drain cannot block
				<-timer.C
			}
		case <-s.ctx.Done():
			return s.ctx.Err()
		case <-timer.C:
			// One grace window buys a burst no larger than the lag bound,
			// so a pinned backlog cannot flood the monitors unboundedly.
			s.bypassLeft = maxLag
		}
	}
	return nil
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
// of process p. It holds the process's feed lock across
// check→admit→enqueue→count, so a concurrent End (possibly from Close) cannot
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
	if err := s.admitN(k); err != nil {
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
// under backpressure (see admitN) and returning promptly with
// the context's error if the session is cancelled. Events of one process
// must arrive in sequence-number order. The event is shared from here on, by
// pointer, with every monitor that learns of it (messages.go): the session
// never writes it and the caller must not either.
func (s *Session) Feed(e *dist.Event) error {
	if err := s.checkEvent(e); err != nil {
		return err
	}
	return s.feed(e.Proc, 1, feedItem{event: e})
}

// FeedScratch is what one feeder reuses from one FeedRun to the next: the
// window in hand, grouped by process. The zero value is ready; a feeder keeps
// its own.
type FeedScratch struct {
	byProc [][]*dist.Event
}

// FeedRun delivers a window of events of any processes, in the order a single
// source produced them: every event is checked first, so a refused window
// feeds nothing, and then each process's events go to its monitor as one batch
// — one admission-gate pass and one hand-off per process the window has events
// of. A process's events keep their order; events of different processes may
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
	if single && len(run) > 0 {
		return s.feedGroup(run)
	}
	for len(fs.byProc) < s.cfg.N {
		fs.byProc = append(fs.byProc, nil)
	}
	for _, e := range run {
		fs.byProc[e.Proc] = append(fs.byProc[e.Proc], e)
	}
	var err error
	for p, group := range fs.byProc[:s.cfg.N] {
		if len(group) > 0 && err == nil {
			err = s.feedGroup(group)
		}
		clear(group) // the scratch must not keep events alive
		fs.byProc[p] = group[:0]
	}
	return err
}

// feedGroup feeds checked events of one process as one feed item: the event
// itself, or a copy of the slice.
func (s *Session) feedGroup(group []*dist.Event) error {
	if len(group) == 1 {
		return s.feed(group[0].Proc, 1, feedItem{event: group[0]})
	}
	return s.feed(group[0].Proc, len(group), feedItem{batch: slices.Clone(group)})
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
		NetMessages:     s.nw.Stats().Messages(),
		NetBytes:        s.nw.Stats().Bytes(),
		FirstConclusive: s.firstConcl,
		Wall:            wall,
		ProgramWall:     programWall,
	}
	for _, m := range s.monitors {
		vs := m.Verdicts()
		res.PerMonitor = append(res.PerMonitor, vs)
		for v := range vs {
			res.Verdicts[v] = true
		}
		for _, st := range m.FinalStates() {
			res.FinalStates[st] = true
		}
		res.Metrics = append(res.Metrics, m.Metrics())
	}
	return res, nil
}
