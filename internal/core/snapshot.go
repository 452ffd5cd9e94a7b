package core

// Monitor-state checkpoint/restore.
//
// A session snapshot is a dist snapshot blob ("DMSN" container,
// internal/dist/snapshot.go) holding one session record, one verdict-log
// record, and one record per monitor. Payloads use the same flat varint
// encoding as the monitor wire codec (wirecodec.go) — uvarints, zigzag
// varints for signed fields, count-prefixed slices — so the two byte
// surfaces share helpers and cannot drift apart.
//
// What a snapshot means: the *complete* reactive state of every monitor at a
// proven-quiescent instant — knowledge window (with GC base offsets),
// global-view set, retained residuals, outstanding searches and their
// origins, parked tokens and fetches, need-floor state, termination flags,
// verdict states and metrics — plus the session's fed/ended bookkeeping and
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
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sync/atomic"
	"time"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/vclock"
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
// quiescence argument). It pauses feeding (Feed/FeedBatch/End block for the
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
// on the wake-up channel cannot miss the round that establishes it). The
// caller must hold every feedMu. A cancelled session context (monitor
// failure or external cancellation) aborts the wait.
func (s *Session) awaitQuiescence(ctx context.Context) error {
	q := &s.quiesce
	q.waiting.Store(true) // before the first counter read
	defer q.waiting.Store(false)
	for {
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
		if handled == sent {
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
// letter indices refer to: the proposition binding, per-state verdicts and
// the full transition table. Restore refuses a config that builds a
// different machine — every serialized state index would silently mean
// something else under it.
func automatonFingerprint(mon *automaton.Monitor) uint64 {
	h := fnv.New64a()
	var scratch [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		k := binary.PutUvarint(scratch[:], v)
		h.Write(scratch[:k])
	}
	put(uint64(mon.NumStates()))
	put(uint64(len(mon.Props)))
	for _, p := range mon.Props {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	letters := uint32(1) << uint(len(mon.Props))
	for q := 0; q < mon.NumStates(); q++ {
		put(uint64(int64(mon.VerdictOf(q))))
		for a := uint32(0); a < letters; a++ {
			put(uint64(mon.Step(q, a)))
		}
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
	b = appendUvarints(b, uint64(s.cfg.N), uint64(s.cfg.Automaton.NumStates()),
		s.fingerprint())
	b = append(b, byte(s.cfg.Mode), boolByte(!s.cfg.SkipFinalize))
	for _, st := range s.cfg.Init {
		b = binary.AppendUvarint(b, uint64(st))
	}
	s.mu.Lock()
	for _, f := range s.fed {
		b = binary.AppendUvarint(b, uint64(f))
	}
	for _, e := range s.ended {
		b = append(b, boolByte(e))
	}
	s.mu.Unlock()
	return b
}

func (s *Session) appendVerdictLog(b []byte) []byte {
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	b = binary.AppendUvarint(b, uint64(len(s.emitted)))
	for _, ev := range s.emitted {
		b = appendUvarints(b, uint64(ev.Monitor), uint64(ev.State))
		b = appendVC(b, vclock.VC(ev.Cut))
	}
	return b
}

// RestoreSession rebuilds a session from a Snapshot blob and starts it. The
// configuration must match the one the snapshot was taken under (process
// count, automaton shape, mode, finalization); restored monitors skip INIT
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
		// and scheduler were created by buildSession and nothing runs yet.
		s.cancel()
		s.nw.Close()
		if s.sched != nil {
			s.sched.close()
		}
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
	restored := make([]bool, n)
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
			d := wireDecoder{buf: payload}
			idx := int(d.uvarint())
			if d.err != nil || idx < 0 || idx >= n {
				return fmt.Errorf("core: snapshot monitor record with bad index")
			}
			if restored[idx] {
				return fmt.Errorf("core: duplicate monitor %d in snapshot", idx)
			}
			restored[idx] = true
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
	for i, ok := range restored {
		if !ok {
			return fmt.Errorf("core: snapshot missing monitor %d", i)
		}
	}
	return nil
}

func (s *Session) restoreSessionRecord(payload []byte) error {
	d := wireDecoder{buf: payload}
	n := int(d.uvarint())
	states := int(d.uvarint())
	fp := d.uvarint()
	mode := Mode(d.byte())
	finalize := d.byte() != 0
	if d.err != nil {
		return fmt.Errorf("core: malformed session record: %w", d.err)
	}
	switch {
	case n != s.cfg.N:
		return fmt.Errorf("core: snapshot of %d processes restored into %d", n, s.cfg.N)
	case states != s.cfg.Automaton.NumStates():
		return fmt.Errorf("core: snapshot automaton has %d states, config builds %d — property or compilation drift", states, s.cfg.Automaton.NumStates())
	case fp != s.fingerprint():
		return fmt.Errorf("core: snapshot automaton fingerprint mismatch — property or compilation drift")
	case mode != s.cfg.Mode:
		return fmt.Errorf("core: snapshot mode %v restored into mode %v", mode, s.cfg.Mode)
	case finalize == s.cfg.SkipFinalize:
		return fmt.Errorf("core: snapshot and config disagree on finalization")
	}
	for p := 0; p < n; p++ {
		if st := dist.LocalState(d.uvarint()); d.err == nil && st != s.cfg.Init[p] {
			return fmt.Errorf("core: snapshot initial state of process %d is %d, config says %d", p, st, s.cfg.Init[p])
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for p := 0; p < n; p++ {
		s.fed[p] = int(d.uvarint())
	}
	for p := 0; p < n; p++ {
		if d.byte() != 0 {
			s.ended[p] = true
			s.endedCount++
		}
	}
	if d.err != nil {
		return fmt.Errorf("core: malformed session record: %w", d.err)
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("core: session record has %d trailing bytes", len(d.buf)-d.off)
	}
	return nil
}

func (s *Session) restoreVerdictLog(payload []byte) error {
	d := wireDecoder{buf: payload}
	count := d.count(2)
	if d.err != nil {
		return fmt.Errorf("core: malformed verdict log: %w", d.err)
	}
	numStates := s.cfg.Automaton.NumStates()
	if count > s.cfg.N*numStates {
		return fmt.Errorf("core: verdict log of %d entries exceeds the %d bound", count, s.cfg.N*numStates)
	}
	for k := 0; k < count; k++ {
		mon := int(d.uvarint())
		state := int(d.uvarint())
		cut := d.vc()
		if d.err != nil {
			return fmt.Errorf("core: malformed verdict log: %w", d.err)
		}
		if mon < 0 || mon >= s.cfg.N || state < 0 || state >= numStates {
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
		}
		if cut != nil {
			ev.Cut = []int(cut)
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
	if d.off != len(d.buf) {
		return fmt.Errorf("core: verdict log has %d trailing bytes", len(d.buf)-d.off)
	}
	return nil
}

// --- monitor state ---

// appendState serializes the monitor's complete reactive state. The caller
// guarantees the monitor is parked at quiescence, so every field is stable.
// Map iteration is sorted throughout, making serialization deterministic:
// snapshot(restore(snapshot(s))) is byte-identical, which the round-trip
// tests pin. The sort buffers come from sc.
func (m *Monitor) appendState(b []byte, sc *snapScratch) []byte {
	n := m.cfg.N
	b = appendUvarints(b, uint64(m.cfg.Index), uint64(m.initialQ))
	var flags byte
	if m.localDone {
		flags |= 1 << 0
	}
	if m.finiSent {
		flags |= 1 << 1
	}
	if m.finalized {
		flags |= 1 << 2
	}
	if m.finalizing {
		flags |= 1 << 3
	}
	b = append(b, flags)
	b = appendUvarints(b, uint64(m.localTotal), m.inputSeq, m.lastGC,
		uint64(m.searchSeq), uint64(m.searchesDone))
	b = appendVC(b, m.curFloor)
	for j := 0; j < n; j++ {
		b = append(b, boolByte(m.peerDone[j]))
	}
	for j := 0; j < n; j++ {
		b = append(b, boolByte(m.peerFini[j]))
	}
	for j := 0; j < n; j++ {
		b = appendVC(b, m.peerFloor[j])
	}
	for j := 0; j < n; j++ {
		b = appendVC(b, m.sentFloor[j])
	}
	// Knowledge window: base offsets, floor states, termination marks, then
	// the retained events per process (retained/peak are derivable).
	k := m.know
	for p := 0; p < n; p++ {
		b = binary.AppendUvarint(b, uint64(k.base[p]))
	}
	for p := 0; p < n; p++ {
		b = binary.AppendUvarint(b, uint64(k.bstate[p]))
	}
	for p := 0; p < n; p++ {
		b = append(b, boolByte(k.done[p]))
	}
	for p := 0; p < n; p++ {
		b = binary.AppendUvarint(b, uint64(k.final[p]))
	}
	b = appendUvarints(b, uint64(k.peak), uint64(k.collected))
	for p := 0; p < n; p++ {
		b = appendEvents(b, k.events[p])
	}
	// Global views, sorted by cut key.
	b = binary.AppendUvarint(b, uint64(len(m.gvs)))
	sc.keys = sortedKeys(sc.keys, m.gvs)
	for _, key := range sc.keys {
		gv := m.gvs[key]
		b = appendVC(b, gv.cut)
		b = appendStateset(b, gv.states)
		for p := 0; p < n; p++ {
			b = binary.AppendUvarint(b, uint64(gv.gstate[p]))
		}
		b = appendString(b, gv.lastSig)
		b = appendVC(b, gv.blocked)
	}
	// Search dedup ledger.
	b = binary.AppendUvarint(b, uint64(len(m.launched)))
	sc.keys = sortedKeys(sc.keys, m.launched)
	for _, key := range sc.keys {
		b = appendString(b, key)
	}
	// Residual views, sorted by cut key.
	b = binary.AppendUvarint(b, uint64(len(m.residuals)))
	sc.keys = sortedKeys(sc.keys, m.residuals)
	for _, key := range sc.keys {
		r := m.residuals[key]
		b = appendVC(b, r.cut)
		b = appendStateset(b, r.states)
	}
	// Outstanding searches and their bookkeeping, sorted by id.
	b = binary.AppendUvarint(b, uint64(len(m.outstanding)))
	sc.ids = sortedKeys(sc.ids, m.outstanding)
	for _, id := range sc.ids {
		b = binary.AppendUvarint(b, uint64(id))
	}
	b = binary.AppendUvarint(b, uint64(len(m.searchSig)))
	sc.ids = sortedKeys(sc.ids, m.searchSig)
	for _, id := range sc.ids {
		b = binary.AppendUvarint(b, uint64(id))
		b = appendString(b, m.searchSig[id])
	}
	b = binary.AppendUvarint(b, uint64(len(m.activeSig)))
	sc.keys = sortedKeys(sc.keys, m.activeSig)
	for _, sig := range sc.keys {
		b = appendString(b, sig)
		b = binary.AppendUvarint(b, uint64(m.activeSig[sig]))
	}
	b = binary.AppendUvarint(b, uint64(len(m.searchOrigin)))
	sc.ids = sortedKeys(sc.ids, m.searchOrigin)
	for _, id := range sc.ids {
		b = binary.AppendUvarint(b, uint64(id))
		b = appendVC(b, m.searchOrigin[id])
	}
	b = binary.AppendUvarint(b, uint64(len(m.inflightFetch)))
	sc.ints = sortedKeys(sc.ints, m.inflightFetch)
	for _, p := range sc.ints {
		b = appendUvarints(b, uint64(p), uint64(m.inflightFetch[p]))
	}
	// Parked protocol work.
	b = binary.AppendUvarint(b, uint64(len(m.waitTokens)))
	for _, t := range m.waitTokens {
		b = appendToken(b, t)
	}
	b = binary.AppendUvarint(b, uint64(len(m.waitFetches)))
	for _, f := range m.waitFetches {
		b = appendUvarints(b, uint64(f.from), uint64(f.req.Requester),
			uint64(f.req.FromSN), uint64(f.req.ToSN))
	}
	// Verdict states reached (verdict set and gauges are derivable).
	b = binary.AppendUvarint(b, uint64(len(m.verdictStates)))
	sc.ints = sortedKeys(sc.ints, m.verdictStates)
	for _, q := range sc.ints {
		b = binary.AppendUvarint(b, uint64(q))
	}
	// Metrics (KnowledgePeak/Collected live on the knowledge store).
	mt := &m.metrics
	b = appendUvarints(b,
		uint64(mt.EventsProcessed), uint64(mt.GlobalViewsCreated),
		uint64(mt.SearchesLaunched), uint64(mt.TokenHops),
		uint64(mt.FetchesSent), uint64(mt.FetchRepliesSent),
		uint64(mt.FinalizeFetches), uint64(mt.BoxExplorations),
		uint64(mt.BoxNodes), uint64(mt.DelaySamples),
		uint64(mt.DelayedEventsSum), uint64(mt.MessagesSent))
	return b
}

// restoreState loads a serialized monitor state into a freshly built monitor
// (the index has already been consumed from d by the caller). Every field is
// validated against the monitor's configuration before it can be touched by
// a handler, so a corrupt-but-checksummed blob is rejected with an error —
// never a panic at restore time or later in the run. Clocks, cuts and events
// are materialized fresh by the decoder; nothing aliases the snapshot buffer.
func (m *Monitor) restoreState(d *wireDecoder) error {
	if m.restored {
		return fmt.Errorf("already restored")
	}
	n := m.cfg.N
	numStates := m.mon.NumStates()
	m.initialQ = int(d.uvarint())
	flags := d.byte()
	m.localDone = flags&(1<<0) != 0
	m.finiSent = flags&(1<<1) != 0
	m.finalized = flags&(1<<2) != 0
	m.finalizing = flags&(1<<3) != 0
	m.localTotal = int(d.uvarint())
	m.inputSeq = d.uvarint()
	m.lastGC = d.uvarint()
	m.searchSeq = int64(d.uvarint())
	m.searchesDone = int64(d.uvarint())
	m.curFloor = d.vcLen(n)
	for j := 0; j < n; j++ {
		m.peerDone[j] = d.byte() != 0
	}
	for j := 0; j < n; j++ {
		m.peerFini[j] = d.byte() != 0
	}
	for j := 0; j < n; j++ {
		if floor := d.vcLen(n); floor != nil {
			m.peerFloor[j] = floor
		} else if d.err == nil {
			d.fail("peer floor")
		}
	}
	for j := 0; j < n; j++ {
		if floor := d.vcLen(n); floor != nil {
			m.sentFloor[j] = floor
		} else if d.err == nil {
			d.fail("sent floor")
		}
	}
	if d.err != nil {
		return d.err
	}
	if m.initialQ < 0 || m.initialQ >= numStates || m.localTotal < 0 {
		return fmt.Errorf("monitor header out of range")
	}
	// Knowledge window.
	k := m.know
	for p := 0; p < n; p++ {
		k.base[p] = int(d.uvarint())
	}
	for p := 0; p < n; p++ {
		k.bstate[p] = dist.LocalState(d.uvarint())
	}
	for p := 0; p < n; p++ {
		k.done[p] = d.byte() != 0
	}
	for p := 0; p < n; p++ {
		k.final[p] = int(d.uvarint())
	}
	k.peak = int(d.uvarint())
	k.collected = int(d.uvarint())
	for p := 0; p < n; p++ {
		evs := d.events()
		if d.err != nil {
			return d.err
		}
		for i, e := range evs {
			if e.Proc != p || e.SN != k.base[p]+i+1 || len(e.VC) != n {
				return fmt.Errorf("knowledge window of process %d broken at entry %d", p, i)
			}
		}
		k.events[p] = evs
		k.retained += len(evs)
	}
	if k.retained > k.peak {
		k.peak = k.retained
	}
	// Global views.
	nGV := d.count(2)
	for i := 0; i < nGV && d.err == nil; i++ {
		cut := d.vcLen(n)
		states := d.stateset(numStates)
		gstate := make(dist.GlobalState, n)
		for p := 0; p < n; p++ {
			gstate[p] = dist.LocalState(d.uvarint())
		}
		sig := d.str()
		blocked := d.vc()
		if d.err != nil {
			return d.err
		}
		if cut == nil || !m.cutInWindow(cut) {
			return fmt.Errorf("global view %d cut outside the knowledge window", i)
		}
		if blocked != nil && len(blocked) != n {
			return fmt.Errorf("global view %d blocked cut has %d entries", i, len(blocked))
		}
		gv := &globalView{states: states, cut: cut, gstate: gstate,
			letter: m.lt.letter(gstate), lastSig: sig, blocked: blocked}
		m.gvs[gvKey(cut)] = gv
	}
	// Search dedup ledger.
	nL := d.count(1)
	for i := 0; i < nL && d.err == nil; i++ {
		m.launched[d.str()] = true
	}
	// Residuals.
	nR := d.count(2)
	for i := 0; i < nR && d.err == nil; i++ {
		cut := d.vcLen(n)
		states := d.stateset(numStates)
		if d.err != nil {
			return d.err
		}
		if cut == nil || !m.cutInWindow(cut) {
			return fmt.Errorf("residual %d cut outside the knowledge window", i)
		}
		m.residuals[gvKey(cut)] = &residualView{states: states, cut: cut}
	}
	// Searches.
	nO := d.count(1)
	for i := 0; i < nO && d.err == nil; i++ {
		m.outstanding[int64(d.uvarint())] = true
	}
	nS := d.count(2)
	for i := 0; i < nS && d.err == nil; i++ {
		id := int64(d.uvarint())
		m.searchSig[id] = d.str()
	}
	nA := d.count(2)
	for i := 0; i < nA && d.err == nil; i++ {
		sig := d.str()
		m.activeSig[sig] = int(d.uvarint())
	}
	nOr := d.count(2)
	for i := 0; i < nOr && d.err == nil; i++ {
		id := int64(d.uvarint())
		origin := d.vcLen(n)
		if origin == nil {
			if d.err == nil {
				d.fail("search origin")
			}
			break
		}
		m.searchOrigin[id] = origin
	}
	nF := d.count(2)
	for i := 0; i < nF && d.err == nil; i++ {
		p := int(d.uvarint())
		sn := int(d.uvarint())
		if d.err == nil && (p < 0 || p >= n) {
			return fmt.Errorf("inflight fetch names process %d", p)
		}
		m.inflightFetch[p] = sn
	}
	// Parked protocol work.
	nT := d.count(4)
	for i := 0; i < nT && d.err == nil; i++ {
		t := d.token()
		if d.err != nil {
			break
		}
		if err := validateToken(t, n); err != nil {
			return err
		}
		m.waitTokens = append(m.waitTokens, t)
	}
	nW := d.count(4)
	for i := 0; i < nW && d.err == nil; i++ {
		from := int(d.uvarint())
		req := &fetchWire{
			Requester: int(d.uvarint()),
			FromSN:    int(d.uvarint()),
			ToSN:      int(d.uvarint()),
		}
		if d.err != nil {
			break
		}
		if from < 0 || from >= n || req.Requester < 0 || req.Requester >= n {
			return fmt.Errorf("parked fetch names invalid process")
		}
		if req.FromSN <= m.know.floor(m.cfg.Index) {
			return fmt.Errorf("parked fetch reaches below the GC floor")
		}
		m.waitFetches = append(m.waitFetches, pendingFetch{from: from, req: req})
	}
	// Verdict states; the verdict set is derived through the automaton.
	nV := d.count(1)
	for i := 0; i < nV && d.err == nil; i++ {
		q := int(d.uvarint())
		if d.err == nil && (q < 0 || q >= numStates) {
			return fmt.Errorf("verdict state %d out of range", q)
		}
		m.verdictStates[q] = true
		m.verdicts[m.mon.VerdictOf(q)] = true
	}
	mt := &m.metrics
	mt.EventsProcessed = int(d.uvarint())
	mt.GlobalViewsCreated = int(d.uvarint())
	mt.SearchesLaunched = int(d.uvarint())
	mt.TokenHops = int(d.uvarint())
	mt.FetchesSent = int(d.uvarint())
	mt.FetchRepliesSent = int(d.uvarint())
	mt.FinalizeFetches = int(d.uvarint())
	mt.BoxExplorations = int(d.uvarint())
	mt.BoxNodes = int(d.uvarint())
	mt.DelaySamples = int(d.uvarint())
	mt.DelayedEventsSum = int(d.uvarint())
	mt.MessagesSent = int(d.uvarint())
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%d trailing bytes in monitor record", len(d.buf)-d.off)
	}
	m.restored = true
	// Publish the restored gauges so the backpressure gate starts from the
	// captured backlog instead of a zero it would mistake for free headroom.
	m.publishGauges()
	return nil
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

// --- small shared helpers ---

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStateset(b []byte, s stateset) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for _, w := range s {
		b = binary.AppendUvarint(b, w)
	}
	return b
}

func (d *wireDecoder) str() string {
	nb := d.count(1)
	if d.err != nil {
		return ""
	}
	s := string(d.buf[d.off : d.off+nb])
	d.off += nb
	return s
}

// vcLen reads a vector clock that must either be nil (count 0) or have
// exactly n components; any other width is a decode error.
func (d *wireDecoder) vcLen(n int) vclock.VC {
	v := d.vc()
	if v != nil && len(v) != n && d.err == nil {
		d.fail("vector clock width")
		return nil
	}
	return v
}

// stateset reads a bitset sized for numStates states, rejecting both a
// wrong word count and set bits beyond the automaton (stepping a phantom
// state would index out of the transition table).
func (d *wireDecoder) stateset(numStates int) stateset {
	words := d.count(1)
	if d.err != nil {
		return nil
	}
	want := (numStates + 63) / 64
	if words != want {
		d.fail("stateset width")
		return nil
	}
	s := make(stateset, words)
	for i := range s {
		s[i] = d.uvarint()
	}
	if d.err == nil && numStates%64 != 0 && words > 0 {
		if s[words-1]&^(1<<(numStates%64)-1) != 0 {
			d.fail("stateset phantom states")
			return nil
		}
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
