package core

// Session checkpoint/restore: quiescence, the container, the session record
// and the verdict log.
//
// A session snapshot is a dist snapshot blob ("DMSN" container,
// internal/dist/snapshot.go) holding one session record, one verdict-log
// record, and one record per monitor. A monitor record is a fixed sequence of
// component records (Monitor.appendState), each written and validated beside
// the component that owns the state: handshake.go, floors.go, knowledge.go,
// views.go, searches.go. Payloads use the same flat varint encoding as the
// monitor wire codec (wirecodec.go) — uvarints, zigzag varints for signed
// fields, count-prefixed slices — so the two byte surfaces share helpers and
// cannot drift apart.
//
// What a snapshot means: the *complete* reactive state of every monitor at a
// proven-quiescent instant — termination flags, need-floor state, knowledge
// window (with GC base offsets), global-view set and retained residuals, the
// table of outstanding searches with parked tokens and fetches, verdict
// states and metrics — plus the session's fed/ended bookkeeping and
// the verdict events already delivered to subscribers. Because the protocol
// is reactive (monitors act only on inputs) and the snapshot is taken at
// global quiescence (no input in flight anywhere), the transport carries
// nothing and needs no serialization: restore rebuilds the monitors, skips
// INIT, and the fleet simply continues when new events arrive.
//
// Quiescence detection is a termination-detection argument over two counter
// families. Every input source increments a "sent" counter BEFORE the input
// becomes receivable (Session.feedItems before the feed-channel send,
// Monitor.outSent before the transport send), and every monitor increments
// inHandled only AFTER a full handling round — handlers plus pump — so at
// every instant sum(inHandled) ≤ baseline + sum(sent), where the baseline
// counts each monitor's INIT round. awaitQuiescence reads the handled sum
// FIRST and the sent sum SECOND: observing handled == sent then proves the
// sent sum did not move between the reads, no input was in flight at the
// second read, and no monitor was mid-round. With feeds paused (Snapshot
// holds every feedMu), no new input can originate — sends only happen while
// handling — so the quiescence is stable and monitor state is frozen for
// the serializing goroutine to read.
//
// The coordinator does not poll: it sleeps on quiesceSignal.wake and the
// monitors wake it. No wake-up is lost, by the order of four sequentially
// consistent atomic operations. The coordinator STORES waiting=true and only
// then reads the counters; a monitor ADDS to inHandled and only then LOADS
// waiting (Monitor.roundDone). Take the round whose Add makes the sums equal.
// If its load sees waiting==true it posts a wake-up (or finds one already
// buffered, which the coordinator has yet to consume — and the counters it
// re-reads after consuming it include this Add, made before the failed send).
// If its load sees false, the load precedes the coordinator's store, so the
// Add precedes the coordinator's first counter read, which therefore already
// sees the sums equal and never sleeps. Every round signals — INIT included,
// or a snapshot of a session that has been fed nothing would wait for a
// round that never comes — and a signal from a round that did not reach
// equality only costs one more pair of reads. A token left in the channel by
// the previous snapshot does the same.

import (
	"cmp"
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"sync/atomic"
	"time"

	"decentmon/internal/automaton"
	"decentmon/internal/boolfn"
	"decentmon/internal/dist"
	"decentmon/internal/vclock"
	"decentmon/internal/wire"
)

// Record tags of the session snapshot container. Tag 0 is the container's
// end record (internal/dist/snapshot.go).
const (
	snapTagSession    = 1 // session header: config fingerprint + fed/ended
	snapTagVerdictLog = 2 // VerdictEvents already delivered to subscribers
	snapTagMonitor    = 3 // one full monitor state (repeated, one per index)
)

// quiesceSignal is the snapshot barrier's wake-up, one per session and shared
// by its monitors (see the package comment for the no-lost-wake-up argument).
type quiesceSignal struct {
	// waiting is raised by the coordinator before its first counter read and
	// lowered when it stops waiting. Monitors only load it, once per round.
	waiting atomic.Bool
	// wake has capacity 1: any number of rounds completing between two
	// coordinator re-reads collapse into one pending wake-up.
	wake chan struct{}
}

// notify posts a wake-up without ever blocking the monitor.
func (q *quiesceSignal) notify() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// snapScratch is the snapshot encoder's reusable state, guarded by
// Session.closeMu: one record payload buffer and the sort buffers the
// deterministic map walks need, so a warmed session allocates the blob and
// nothing per monitor.
type snapScratch struct {
	rec  []byte
	keys []string
	ids  []int64
	ints []int
	size int // length of the previous blob: the next one's presize hint
}

// SnapshotTiming splits the time one Snapshot call spent: waiting for the
// monitors to drain, and serializing their state.
type SnapshotTiming struct {
	Barrier time.Duration
	Encode  time.Duration
}

// Snapshot captures the session's complete monitoring state as a durable,
// self-verifying blob (see the package comment above for the format and the
// quiescence argument). It pauses feeding (Feed/FeedRun/End block for the
// duration), waits for every in-flight event and monitor message to be fully
// absorbed, serializes, and resumes. The session keeps running afterwards;
// ctx bounds only the wait for quiescence. RestoreSession rebuilds an
// equivalent session from the blob.
func (s *Session) Snapshot(ctx context.Context) ([]byte, error) {
	blob, _, err := s.SnapshotTimed(ctx)
	return blob, err
}

// SnapshotTimed is Snapshot reporting where its time went, for callers that
// account checkpoint cost per phase (dlmond's /metrics).
func (s *Session) SnapshotTimed(ctx context.Context) ([]byte, SnapshotTiming, error) {
	var tm SnapshotTiming
	if ctx == nil {
		ctx = context.Background()
	}
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, tm, fmt.Errorf("core: snapshot of a closed session")
	}
	for p := range s.feedMu {
		s.feedMu[p].Lock()
	}
	defer func() {
		for p := range s.feedMu {
			s.feedMu[p].Unlock()
		}
	}()
	start := time.Now()
	err := s.awaitQuiescence(ctx)
	quiet := time.Now()
	tm.Barrier = quiet.Sub(start)
	if err != nil {
		return nil, tm, err
	}
	// One pass into a buffer sized from the previous blob (plus an eighth:
	// the knowledge window breathes between checkpoints); every record goes
	// through the one reused payload buffer.
	sc := &s.snap
	b := dist.NewSnapshotBuilderSize(sc.size + sc.size/8 + 256)
	sc.rec = s.appendSessionRecord(sc.rec[:0])
	b.Record(snapTagSession, sc.rec)
	sc.rec = s.appendVerdictLog(sc.rec[:0])
	b.Record(snapTagVerdictLog, sc.rec)
	for _, m := range s.monitors {
		sc.rec = m.appendState(sc.rec[:0], sc)
		b.Record(snapTagMonitor, sc.rec)
	}
	blob := b.Finish()
	sc.size = len(blob)
	tm.Encode = time.Since(quiet)
	return blob, tm, nil
}

// awaitQuiescence blocks until every input ever sent has been fully handled
// (see the package comment for why the read order — handled first, sent
// second — makes the equality a proof of stable quiescence, and why sleeping
// on the wake-up channel cannot miss the round that establishes it), or until
// every monitor has exited, which is as motionless and which a message left
// unhandled in an exited monitor's inbox must not hold up (handshake.go). An
// exiting monitor counts itself before it looks at the flag, like a round. The
// caller must hold every feedMu. A cancelled session context (monitor
// failure or external cancellation) aborts the wait.
func (s *Session) awaitQuiescence(ctx context.Context) error {
	q := &s.quiesce
	q.waiting.Store(true) // before the first counter read
	defer q.waiting.Store(false)
	for {
		// Read before the context: a monitor that failed cancelled it
		// before counting itself out.
		exited := s.exited.Load() == int64(s.cfg.N)
		if err := s.ctx.Err(); err != nil {
			return fmt.Errorf("core: session no longer running: %w", err)
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: waiting for quiescence: %w", err)
		}
		var handled int64
		for _, m := range s.monitors {
			handled += m.inHandled.Load()
		}
		sent := int64(s.cfg.N) + s.feedItems.Load() // baseline: one INIT round each
		for _, m := range s.monitors {
			sent += m.outSent.Load()
		}
		if handled == sent || exited {
			return nil
		}
		select {
		case <-q.wake:
		case <-ctx.Done():
		case <-s.ctx.Done():
		}
	}
}

// --- session-level records ---

// automatonFingerprint hashes the exact machine the snapshot's state and
// letter indices refer to: its propositions, per-state verdicts and the full
// transition table. Restore refuses a config that builds a different machine
// — every serialized state index would silently mean something else under it.
func automatonFingerprint(mon *automaton.Monitor) uint64 {
	return fingerprintOver(mon, mon.Props)
}

// fingerprintOver is automatonFingerprint's text for mon read as a machine
// over the letters of names, a superset of mon.Props, counted upward: δ of
// such a letter is δ of the propositions mon reads in it. Over the declared
// alphabet it is the fingerprint builds wrote while monitors spanned it.
func fingerprintOver(mon *automaton.Monitor, names []string) uint64 {
	bits := make([]uint32, len(names)) // bit i of a names letter -> mon's bit
	for i, name := range names {
		if j := slices.Index(mon.Props, name); j >= 0 {
			bits[i] = 1 << j
		}
	}
	h := fnv.New64a()
	var scratch [wire.MaxUvarintLen]byte
	put := func(v uint64) { h.Write(wire.AppendUvarint(scratch[:0], v)) }
	put(uint64(mon.NumStates()))
	put(uint64(len(names)))
	for _, p := range names {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	for q := 0; q < mon.NumStates(); q++ {
		put(uint64(int64(mon.VerdictOf(q))))
		// The highest bit varies slowest.
		var walk func(i int, letter uint32)
		walk = func(i int, letter uint32) {
			if i < 0 {
				put(uint64(mon.Step(q, letter)))
				return
			}
			walk(i-1, letter)
			walk(i-1, letter|bits[i])
		}
		walk(len(names)-1, 0)
	}
	return h.Sum64()
}

// fingerprint is automatonFingerprint of the session's automaton, computed
// on first use and kept: the automaton is immutable, and hashing its whole
// δ-table is too much to repeat per checkpoint.
func (s *Session) fingerprint() uint64 {
	s.fpOnce.Do(func() { s.fp = automatonFingerprint(s.cfg.Automaton) })
	return s.fp
}

func (s *Session) appendSessionRecord(b []byte) []byte {
	b = wire.AppendInts(b, s.cfg.N, s.cfg.Automaton.NumStates())
	b = wire.AppendUvarint(b, s.fingerprint())
	// The byte before the finalization flag is reserved: always 0.
	b = wire.AppendBool(append(b, 0), !s.cfg.SkipFinalize)
	for _, st := range s.cfg.Init {
		b = wire.AppendUvarint(b, uint64(st))
	}
	s.mu.Lock()
	b = wire.AppendInts(b, s.fed...)
	b = appendBools(b, s.ended)
	s.mu.Unlock()
	return b
}

func (s *Session) appendVerdictLog(b []byte) []byte {
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	b = wire.AppendUvarint(b, uint64(len(s.emitted)))
	for _, ev := range s.emitted {
		b = wire.AppendClock(wire.AppendInts(b, ev.Monitor, ev.State), ev.Cut)
	}
	return b
}

// RestoreSession rebuilds a session from a Snapshot blob and starts it. The
// configuration must match the one the snapshot was taken under (process
// count, automaton shape, finalization); restored monitors skip INIT
// and continue exactly where the captured run was paused. Verdict events
// already delivered before the snapshot are re-delivered on the new
// session's subscription channel, in order, before any new detection.
// Feeding resumes per process at sequence number fed[p]+1, where fed is the
// snapshot's per-process count (retrievable via Fed after restore).
func RestoreSession(ctx context.Context, cfg SessionConfig, snap []byte) (*Session, error) {
	r, err := dist.OpenSnapshot(snap)
	if err != nil {
		return nil, err
	}
	s, err := buildSession(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.applySnapshot(r); err != nil {
		// Tear the half-built session down on every error path: the network
		// was created by buildSession and nothing runs yet.
		s.cancel()
		s.nw.Close()
		close(s.verdicts)
		return nil, err
	}
	s.launch()
	return s, nil
}

// Fed returns the number of events fed per process so far (for a restored
// session: including everything fed before the snapshot). Feeders resuming
// after a restore continue each process at Fed()[p]+1.
func (s *Session) Fed() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.fed...)
}

// Ended returns, per process, whether End was already called (for a restored
// session: including before the snapshot).
func (s *Session) Ended() []bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]bool(nil), s.ended...)
}

func (s *Session) applySnapshot(r *dist.SnapshotReader) error {
	n := s.cfg.N
	sawSession := false
	sawLog := false
	for {
		tag, payload, ok := r.Next()
		if !ok {
			break
		}
		switch tag {
		case snapTagSession:
			if sawSession {
				return fmt.Errorf("core: duplicate session record in snapshot")
			}
			sawSession = true
			if err := s.restoreSessionRecord(payload); err != nil {
				return err
			}
		case snapTagVerdictLog:
			if sawLog {
				return fmt.Errorf("core: duplicate verdict log in snapshot")
			}
			sawLog = true
			if err := s.restoreVerdictLog(payload); err != nil {
				return err
			}
		case snapTagMonitor:
			d := wire.NewCursor(payload)
			idx := d.Int()
			if d.Err() != nil || idx >= n {
				return fmt.Errorf("core: snapshot monitor record with bad index")
			}
			// restoreState refuses a second record for the same monitor.
			if err := s.monitors[idx].restoreState(&d); err != nil {
				return fmt.Errorf("core: restoring monitor %d: %w", idx, err)
			}
		default:
			// Forward compatibility: unknown record kinds are skippable by
			// the container's length framing.
		}
	}
	if !sawSession {
		return fmt.Errorf("core: snapshot has no session record")
	}
	for i, m := range s.monitors {
		if !m.restored {
			return fmt.Errorf("core: snapshot missing monitor %d", i)
		}
	}
	return nil
}

func (s *Session) restoreSessionRecord(payload []byte) error {
	d := wire.NewCursor(payload)
	n, states, fp := d.Int(), d.Int(), d.Uvarint()
	reserved, finalize := d.Byte(), d.Bool()
	if d.Err() != nil {
		return d.Done("core: session record")
	}
	switch {
	case n != s.cfg.N:
		return fmt.Errorf("core: snapshot of %d processes restored into %d", n, s.cfg.N)
	case states != s.cfg.Automaton.NumStates():
		return fmt.Errorf("core: snapshot automaton has %d states, config builds %d — property or compilation drift", states, s.cfg.Automaton.NumStates())
	case fp != s.fingerprint() && !s.declaredFingerprintIs(fp):
		return fmt.Errorf("core: snapshot automaton fingerprint mismatch — property or compilation drift")
	case reserved != 0:
		return fmt.Errorf("core: snapshot session record has reserved byte %d, want 0", reserved)
	case finalize == s.cfg.SkipFinalize:
		return fmt.Errorf("core: snapshot and config disagree on finalization")
	}
	for p := 0; p < n; p++ {
		if st := d.Uvarint(); d.Err() == nil && st != uint64(s.cfg.Init[p]) {
			return fmt.Errorf("core: snapshot initial state of process %d is %d, config says %d", p, st, s.cfg.Init[p])
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	d.Ints(s.fed)
	readBools(&d, s.ended)
	for _, e := range s.ended {
		if e {
			s.endedCount++
		}
	}
	return d.Done("core: session record")
}

// declaredFingerprintIs reports whether fp is the session automaton's
// fingerprint as builds whose monitors spanned the whole declared alphabet
// wrote it, so that their checkpoints still restore. Those builds refused
// more than boolfn.MaxVars declared propositions.
func (s *Session) declaredFingerprintIs(fp uint64) bool {
	declared := s.cfg.Props.Names
	return len(declared) <= boolfn.MaxVars && fp == fingerprintOver(s.cfg.Automaton, declared)
}

func (s *Session) restoreVerdictLog(payload []byte) error {
	d := wire.NewCursor(payload)
	count := d.Count(3) // monitor, state, cut count
	numStates := s.cfg.Automaton.NumStates()
	if count > s.cfg.N*numStates {
		return fmt.Errorf("core: verdict log of %d entries exceeds the %d bound", count, s.cfg.N*numStates)
	}
	for k := 0; k < count; k++ {
		mon, state, cut := d.Int(), d.Int(), d.Clock()
		if d.Err() != nil {
			break
		}
		if mon >= s.cfg.N || state >= numStates {
			return fmt.Errorf("core: verdict log entry out of range")
		}
		if cut != nil && len(cut) != s.cfg.N {
			return fmt.Errorf("core: verdict log cut has %d entries, want %d", len(cut), s.cfg.N)
		}
		ev := VerdictEvent{
			Monitor:    mon,
			Verdict:    s.cfg.Automaton.VerdictOf(state),
			State:      state,
			Conclusive: s.cfg.Automaton.Final(state),
			Cut:        cut,
		}
		s.emitted = append(s.emitted, ev)
		// Re-deliver to the new session's subscribers. The buffer is sized
		// N × NumStates and the log length was bounded above, so the send
		// cannot block; select/default keeps even a regression non-fatal.
		select {
		case s.verdicts <- ev:
		default:
		}
	}
	return d.Done("core: verdict log")
}

// --- small shared helpers ---

func appendBools(b []byte, vs []bool) []byte {
	for _, v := range vs {
		b = wire.AppendBool(b, v)
	}
	return b
}

func readBools(d *wire.Cursor, dst []bool) {
	for i := range dst {
		dst[i] = d.Bool()
	}
}

func appendStateset(b []byte, s stateset) []byte {
	b = wire.AppendUvarint(b, uint64(len(s)))
	for _, w := range s {
		b = wire.AppendUvarint(b, w)
	}
	return b
}

// clockOrNil reads a clock that must either be absent (count 0, read as nil)
// or have exactly n components; any other width fails d.
func clockOrNil(d *wire.Cursor, n int) vclock.VC {
	v := d.Clock()
	if v != nil && len(v) != n {
		d.Failf("clock of %d components, want %d", len(v), n)
		return nil
	}
	return v
}

// clockOf is clockOrNil for a clock that must be present.
func clockOf(d *wire.Cursor, n int) vclock.VC {
	v := clockOrNil(d, n)
	if v == nil {
		d.Failf("missing clock")
	}
	return v
}

// decodeStateset reads a bitset sized for numStates states, rejecting both a
// wrong word count and set bits beyond the automaton (stepping a phantom
// state would index out of the transition table).
func decodeStateset(d *wire.Cursor, numStates int) stateset {
	words := d.Count(1)
	if d.Err() == nil && words != (numStates+63)/64 {
		d.Failf("stateset of %d words for %d states", words, numStates)
	}
	if d.Err() != nil {
		return nil
	}
	s := make(stateset, words)
	for i := range s {
		s[i] = d.Uvarint()
	}
	if numStates%64 != 0 && words > 0 && s[words-1]&^(1<<(numStates%64)-1) != 0 {
		d.Failf("stateset names states beyond the automaton's %d", numStates)
		return nil
	}
	return s
}

// sortedKeys returns m's keys in ascending order, in dst's storage.
func sortedKeys[K cmp.Ordered, V any](dst []K, m map[K]V) []K {
	dst = dst[:0]
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}
