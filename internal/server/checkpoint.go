package server

// Durable sessions: a dlmond started with Config.StateDir keeps each live
// session on disk as a base blob plus an input log.
//
//	session-<id>.dmsn        the base: a "DMSN" snapshot container
//	                         (internal/dist) holding the session record
//	                         (tenant, formula source, proposition space,
//	                         initial state, resume epoch), the embedded core
//	                         engine snapshot, and the generation of the log
//	                         that extends it (ckTagLog; a blob without one is
//	                         generation 0 with nothing logged)
//	session-<id>.<gen>.dmlg  the log: a "DMLG" file (dist/inputlog.go) of the
//	                         inputs the engine has absorbed since that base —
//	                         Ingest windows as the bytes they arrived in, End
//	                         marks — each record closed by its own CRC
//
// The verdict set is a function of the execution, not of the monitors'
// schedule, so the accepted inputs are the state: what the cadence
// (Config.CheckpointEvery) makes durable is a few kilobytes of records the read
// loop already holds, not a re-encoding of the engine.
//
// One lock and one semaphore order everything. session.inMu is the session's
// input lock: ingest holds it per window across feed → append the window's
// bytes to the pending buffer → count the cadence, end likewise, so the
// pending buffer is exactly what the engine absorbed, in the engine's order.
// session.ckpt, a semaphore of one, is held by whichever goroutine is writing
// the session's files. Every cadence events the
// holder of inMu takes ckpt, swaps the pending buffer for the spare and leaves
// it with a syncer goroutine (one write, one File.Sync, release): no
// quiescence barrier, no engine encode, no temp file, no rename. When the log
// outweighs max(base, compactFloor) the same hand-off, still under inMu, waits
// for that sync and then takes a checkpoint — quiescence barrier, single-pass
// encode, and an installer goroutine that writes a temp file, fsyncs and
// renames it over the base — naming generation gen+1. Only a successful
// install advances the generation: the next sync creates gen+1's log and the
// installer has unlinked gen's. A failed snapshot or install leaves the old
// base and the old log, which has no hole because the sync came first, and
// appending continues there. A failed log write does leave a hole: the log is
// marked unsound, nothing more is appended to it, and every hand-off
// compacts until an install succeeds.
//
// Invariant: a log generation's file is created only after its base is on
// disk; recovery reads exactly the generation its base names and deletes every
// other session-<id>.*.dmlg.
//
// Three waits, all on session.ckpt, all through Server.acquire, which gives up
// when the server stops:
//
//   - the hand-off waits for the previous sync (or install). This is the
//     backpressure: a fire-and-forget Ingest stream is less than two cadences
//     ahead of the disk (one buffer being synced, one filling);
//   - every reply-bearing verb passes through Server.settle before its frame
//     is written, so an acknowledgement never overtakes the in-flight sync:
//     what a tenant has had acknowledged is on disk up to the last cadence
//     boundary, and at cadence 1 every event ingested before the verb is;
//   - Close and Shutdown retire the pipeline (Server.retire): mark it closed
//     under inMu, then wait out what is in flight, so nothing writes the
//     session's files afterwards. Close then finalizes the session and removes
//     base and log; Shutdown first hands the pending records to the syncer — a
//     final sync, not a farewell blob.
//
// What is promised. After kill -9: every input acknowledged up to the last
// completed sync is recovered; a sync the kill cut short leaves a torn tail,
// which costs its own records and nothing else; an install it cut short leaves
// the fixed-name temp file, which recovery sweeps. After a power loss: the
// same, given a filesystem that honours fsync — files are fsynced before they
// are relied on, and the directory is fsynced after a base's rename and after
// a log file's creation, before the semaphore is released. After a clean
// shutdown: everything the engine absorbed.
//
// On startup the server restores each base, replays its log through the
// functions live traffic uses (session.ingest, session.end), truncates the
// file to its valid prefix and reopens it for append, and re-registers the
// session under its original id with its epoch bumped (the bump reaches the
// disk with the next base). A client re-adopts one with Attach and resumes
// feeding each process at the fed count the Registered reply carries: base
// plus replayed. Inputs absorbed after the
// last sync are not recovered — the feeder re-sends them, which is why Attach
// reports fed counts rather than pretending nothing was lost.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"decentmon/internal/dist"
	"decentmon/internal/wire"
)

// Checkpoint record tags (tag 0 is the container's end record). Tags 2 and 3,
// the clocks and in-flight messages of server-side stamping, are retired: a
// base that carries them restores with them skipped, like any unknown tag.
const (
	ckTagMeta   = 1 // sid, epoch, tenant, formula, init, proposition space, events
	ckTagEngine = 4 // the embedded core engine snapshot, itself a container
	ckTagLog    = 5 // generation of the input log that extends this base
)

// compactFloor is the log weight below which a session is never compacted,
// however small its base: PERFORMANCE.md ("Durability by logging inputs") has
// the table that found no throughput trend from 1× to 32× the base, so the
// smallest bound on recovery time and disk — at most two bases per session —
// wins.
const compactFloor = 64 << 10

// checkpointState is one decoded checkpoint, everything restoreSession
// needs to rebuild the session.
type checkpointState struct {
	sid     uint64
	epoch   uint64
	tenant  string
	formula string
	init    dist.GlobalState
	props   *dist.PropMap
	events  int64
	engine  []byte
	logGen  uint64
}

// appendCheckpointMeta encodes the server-side session record.
func appendCheckpointMeta(b []byte, s *session, epoch uint64) []byte {
	b = wire.AppendUvarint(wire.AppendUvarint(b, s.id), epoch)
	b = wire.AppendString(wire.AppendString(b, s.tenant), s.formula)
	b = dist.AppendProcessSpace(b, s.init, s.props)
	return wire.AppendUvarint(b, uint64(s.events.Load()))
}

// decodeCheckpoint parses and validates one checkpoint blob. Corruption
// anywhere — container framing, CRC, record contents — is an error; the
// engine payload is validated later by core.RestoreSession.
func decodeCheckpoint(blob []byte) (*checkpointState, error) {
	r, err := dist.OpenSnapshot(blob)
	if err != nil {
		return nil, err
	}
	ck := &checkpointState{}
	var seen uint // one bit per record tag
	for {
		tag, payload, ok := r.Next()
		if !ok {
			break
		}
		if tag != ckTagMeta && tag != ckTagEngine && tag != ckTagLog {
			continue // a record kind this build does not know, or no longer reads: skippable by design
		}
		if seen&(1<<tag) != 0 {
			return nil, fmt.Errorf("server: checkpoint: duplicate record %d", tag)
		}
		seen |= 1 << tag
		switch tag {
		case ckTagMeta:
			err = ck.decodeMeta(payload)
		case ckTagEngine:
			ck.engine = payload
		case ckTagLog:
			d := wire.NewCursor(payload)
			ck.logGen = d.Uvarint()
			err = d.Done("server: checkpoint: log record")
		}
		if err != nil {
			return nil, err
		}
	}
	// The log record is optional: a blob without one was written before
	// sessions had logs and is a whole session on its own.
	if seen&^(1<<ckTagLog) != 1<<ckTagMeta|1<<ckTagEngine {
		return nil, fmt.Errorf("server: checkpoint: incomplete record set")
	}
	return ck, nil
}

func (ck *checkpointState) decodeMeta(payload []byte) error {
	d := wire.NewCursor(payload)
	ck.sid, ck.epoch = d.Uvarint(), d.Uvarint()
	ck.tenant, ck.formula = d.String(), d.String()
	ck.init, ck.props = dist.DecodeProcessSpace(&d)
	if d.Err() == nil && len(ck.init) < 1 {
		d.Failf("session of %d processes", len(ck.init))
	}
	ck.events = int64(d.Int())
	return d.Done("server: checkpoint: meta record")
}

// checkpointPath names a session's base blob.
func checkpointPath(dir string, sid uint64) string {
	return filepath.Join(dir, fmt.Sprintf("session-%d.dmsn", sid))
}

// checkpointTemp names the one temp file a session's installs go through.
// Fixed, not unique: installs of one session never overlap (session.ckpt).
func checkpointTemp(dir string, sid uint64) string {
	return filepath.Join(dir, fmt.Sprintf(".session-%d.tmp", sid))
}

// logPath names one generation of a session's input log.
func logPath(dir string, sid, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("session-%d.%d.dmlg", sid, gen))
}

// syncDir makes the directory's entries durable: a file created in it or
// renamed into it is not, until this returns, whatever was fsynced of the file
// itself.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	return err
}

// writeCheckpoint atomically installs one checkpoint blob: write to the
// session's temp file in the same directory, fsync, rename over the final
// name, fsync the directory. A reader (the recovering daemon) never observes
// a partial write.
func writeCheckpoint(dir string, sid uint64, blob []byte) error {
	name := checkpointTemp(dir, sid)
	tmp, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return fmt.Errorf("server: checkpoint: %w", err)
	}
	_, err = tmp.Write(blob)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(name, checkpointPath(dir, sid))
	}
	if err != nil {
		os.Remove(name)
		return fmt.Errorf("server: checkpoint: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("server: checkpoint: %w", err)
	}
	return nil
}

// sweepCheckpointTemps removes the temp files of installs a crash cut short.
// Best effort: a leftover that cannot be removed costs disk space, not
// correctness — recovery never reads it and the session's next install
// truncates it.
func sweepCheckpointTemps(dir string) {
	stale, _ := filepath.Glob(filepath.Join(dir, ".session-*.tmp"))
	for _, name := range stale {
		os.Remove(name)
	}
}

// sweepLogs removes the input logs of session sid other than keep ("" for
// all of them): the generation a crash left behind before its unlink, or
// created before a base that never landed.
func sweepLogs(dir string, sid uint64, keep string) {
	logs, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("session-%d.*.dmlg", sid)))
	for _, name := range logs {
		if name != keep {
			os.Remove(name)
		}
	}
}

// sweepOrphanLogs removes every input log whose session has no base blob in
// the directory: without the state it extends a log is nothing.
func sweepOrphanLogs(dir string) {
	logs, _ := filepath.Glob(filepath.Join(dir, "session-*.dmlg"))
	for _, name := range logs {
		var sid, gen uint64
		if _, err := fmt.Sscanf(filepath.Base(name), "session-%d.%d.dmlg", &sid, &gen); err != nil {
			continue
		}
		if _, err := os.Stat(checkpointPath(dir, sid)); errors.Is(err, os.ErrNotExist) {
			os.Remove(name)
		}
	}
}

// listCheckpoints returns the base blobs in a state directory.
func listCheckpoints(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "session-*.dmsn"))
	if err != nil {
		return nil, fmt.Errorf("server: state directory scan: %w", err)
	}
	sort.Strings(files)
	return files, nil
}

// journal is the durable side of one session: the part of its input log still
// in memory, and where the rest is on disk.
type journal struct {
	srv *Server

	// Guarded by session.inMu.
	pending []byte // records the engine has absorbed and no syncer has been handed
	retired bool   // Close or Shutdown has stopped the pipeline for good

	// Owned by whoever holds session.ckpt.
	spare  []byte   // the buffer the syncer is not writing from
	gen    uint64   // generation of the base on disk and of the log that extends it
	file   *os.File // gen's log, open for append; nil until its first sync creates it
	weight int      // bytes of gen's log on disk
	base   int      // bytes of the base blob on disk
	// sound: gen's base is on disk and no write to gen's log has failed, so
	// the log may be appended to. False from registration until the first
	// install, and from a failed write until the next successful install;
	// meanwhile every hand-off compacts and syncs nothing.
	sound bool
}

// logged appends one record to the session's pending buffer, counts its events
// towards the cadence and hands the buffer off when the cadence is due. The
// caller holds s.inMu and has just had the engine absorb what the record says.
func (s *session) logged(kind dist.InputLogKind, payload []byte, events int) {
	j := s.log
	if j == nil {
		return
	}
	j.pending = dist.AppendInputLogRecord(j.pending, kind, payload)
	if s.sinceSync.Add(int64(events)) >= int64(j.srv.cfg.CheckpointEvery) {
		j.srv.handoff(s)
	}
}

// acquire takes the session's semaphore — waiting out the sync or install
// that holds it — or gives up when the server stops: this is the one place a
// read loop or a reply waits on a disk, and it must not outlast the daemon.
func (s *Server) acquire(sess *session) bool {
	start := time.Now()
	defer func() { s.mx.ckptInstallWaitNanos.Add(int64(time.Since(start))) }()
	select {
	case sess.ckpt <- struct{}{}:
		return true
	case <-s.stop:
		return false
	}
}

// settle holds a reply back until the session's in-flight sync or install,
// if any, has reached the disk: an acknowledgement never overtakes it. False
// means the server stopped first and the reply must not be sent.
func (s *Server) settle(sess *session) bool {
	if sess.log == nil {
		return true
	}
	if !s.acquire(sess) {
		return false
	}
	<-sess.ckpt
	return true
}

// handoff is the cadence: it leaves the pending records with a syncer
// goroutine, which releases sess.ckpt when they are on disk, and compacts when
// the log has outgrown its base. The caller holds sess.inMu, which is what
// makes the wait for the previous sync backpressure on the feeder. A hand-off
// the server's stop cut short leaves the records pending.
func (s *Server) handoff(sess *session) {
	j := sess.log
	sess.sinceSync.Store(0)
	if j.retired || len(j.pending) == 0 || !s.acquire(sess) {
		return
	}
	buf := j.pending
	j.pending, j.spare = j.spare[:0], nil
	next, limit := j.gen+1, max(j.base, s.compactFloor)
	compact := !j.sound || j.weight+len(buf) > limit
	s.wg.Add(1)
	go s.syncLog(sess, buf, limit)
	if compact {
		s.checkpoint(sess, next)
	}
}

// syncLog is the syncer: it owns sess.ckpt, taken by handoff, and gives it up
// once buf is on disk or has failed to get there.
func (s *Server) syncLog(sess *session, buf []byte, limit int) {
	defer s.wg.Done()
	j := sess.log
	if j.sound {
		start := time.Now()
		err := j.append(s.cfg.StateDir, sess.id, buf, limit)
		s.mx.logSyncNanos.Add(int64(time.Since(start)))
		if err != nil {
			j.sound = false
			s.mx.checkpointErrors.Add(1)
		} else {
			s.mx.logSyncs.Add(1)
			s.mx.logBytes.Add(int64(len(buf)))
		}
	}
	j.spare = buf[:0]
	<-sess.ckpt
}

// append writes records to the current generation's log and syncs it. The
// generation's first call creates the file: header, the records, and zeros up
// to the size the log can reach before it is compacted, directory synced.
// Every later call then overwrites blocks that are already allocated and
// written, and its fsync has no metadata to commit — on ext4 an fsync that
// extends a file waits for a journal commit, which under a daemon busy on
// every core reads 2–4 ms against 0.2 ms for an overwrite (PERFORMANCE.md).
// Records past the preallocated size extend the file, correctly and slowly.
func (j *journal) append(dir string, sid uint64, buf []byte, limit int) error {
	created := j.file == nil
	if created {
		f, err := os.OpenFile(logPath(dir, sid, j.gen), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
		if err != nil {
			return err
		}
		j.file = f
		hdr := dist.AppendInputLogHeader(nil, dist.InputLogHeader{SID: sid, Gen: j.gen})
		if _, err := f.Write(hdr); err != nil {
			return err
		}
		j.weight = len(hdr)
		// The hand-off that finds the log over limit is the last to append
		// to it: two buffers past limit is as far as the file gets.
		for at, end := j.weight, limit+2*len(buf); at < end; at += len(zeros) {
			if _, err := f.WriteAt(zeros[:min(len(zeros), end-at)], int64(at)); err != nil {
				return err
			}
		}
	}
	if _, err := j.file.WriteAt(buf, int64(j.weight)); err != nil {
		return err
	}
	if err := j.file.Sync(); err != nil {
		return err
	}
	if created {
		if err := syncDir(dir); err != nil {
			return err
		}
	}
	j.weight += len(buf)
	return nil
}

// zeros is what a new log file is filled with.
var zeros [32 << 10]byte

// rebase records that a base blob of generation gen is on disk: the previous
// generation's log, if there was one, is closed and unlinked, and the next
// sync creates gen's.
func (j *journal) rebase(dir string, sid, gen uint64, base int) {
	if gen != j.gen {
		j.closeFile()
		os.Remove(logPath(dir, sid, j.gen))
		j.gen, j.weight = gen, 0
	}
	j.base, j.sound = base, true
}

func (j *journal) closeFile() {
	if j.file != nil {
		j.file.Close()
		j.file = nil
	}
}

// checkpoint runs the front half of a base blob's pipeline on the caller's
// goroutine — wait for whatever holds sess.ckpt, snapshot — and leaves the
// blob with an installer goroutine, which releases sess.ckpt when the file is
// in place. gen is the log generation the blob names. The caller holds
// sess.inMu, so the blob is the engine after exactly the inputs logged so far.
// Failures are counted, not fatal: the previous base and its log stay.
func (s *Server) checkpoint(sess *session, gen uint64) {
	if !s.acquire(sess) {
		return
	}
	blob, tm, err := sess.snapshot(s.ctx, gen)
	s.mx.ckptBarrierNanos.Add(int64(tm.Barrier))
	s.mx.ckptEncodeNanos.Add(int64(tm.Encode))
	if err != nil {
		<-sess.ckpt
		s.mx.checkpointErrors.Add(1)
		return
	}
	s.wg.Add(1)
	go s.install(sess, blob, gen)
}

// install is the back half: it owns sess.ckpt, taken by checkpoint, and
// gives it up once the blob is on disk (or has failed to get there).
func (s *Server) install(sess *session, blob []byte, gen uint64) {
	defer s.wg.Done()
	defer func() { <-sess.ckpt }()
	start := time.Now()
	err := writeCheckpoint(s.cfg.StateDir, sess.id, blob)
	s.mx.ckptInstallNanos.Add(int64(time.Since(start)))
	if err != nil {
		s.mx.checkpointErrors.Add(1)
		return
	}
	s.mx.ckptBytes.Add(int64(len(blob)))
	s.mx.checkpointsTotal.Add(1)
	sess.log.rebase(s.cfg.StateDir, sess.id, gen, len(blob))
}

// retire stops the session's pipeline for good and waits out whatever of it
// is in flight: once it returns true nothing will write the session's files
// again, so the caller may finalize the session and remove or keep them. False
// means the server stopped first; the files are then left as they are.
func (s *Server) retire(sess *session) bool {
	j := sess.log
	if j == nil {
		return true
	}
	sess.inMu.Lock()
	j.retired = true
	sess.inMu.Unlock()
	if !s.acquire(sess) {
		return false
	}
	j.closeFile()
	<-sess.ckpt
	return true
}

// removeSessionFiles deletes a closed session's base and log (idempotent).
// The base goes first: a crash in between leaves a log without a base, which
// the next start sweeps, not a base that has lost its log.
func removeSessionFiles(dir string, sess *session) {
	os.Remove(checkpointPath(dir, sess.id))
	os.Remove(logPath(dir, sess.id, sess.log.gen))
}

// recoverLog brings a session just restored from a base of generation gen and
// baseBytes bytes up to date with its input log and returns the journal to
// continue it with: every record of the log's valid prefix is applied through
// session.replay, the file is cut back to that prefix — a tail of zeros, the
// file's own preallocation, is not a cut and stays — and reopened to be
// written from there, and every other log of the session is deleted. A torn
// tail is dropped and counted; a record the engine refuses, or a header that
// names another session or generation, is an error and leaves the files alone.
func (s *Server) recoverLog(sess *session, gen uint64, baseBytes int) (*journal, error) {
	dir := s.cfg.StateDir
	path := logPath(dir, sess.id, gen)
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	hdr, recs, end, err := dist.ReadInputLog(data)
	if err != nil {
		return nil, err
	}
	if end > 0 && (hdr.SID != sess.id || hdr.Gen != gen) {
		return nil, fmt.Errorf("server: input log of session %d generation %d under the name of session %d generation %d", hdr.SID, hdr.Gen, sess.id, gen)
	}
	var scratch feedScratch
	before := sess.events.Load()
	for i, rec := range recs {
		if err := sess.replay(&scratch, rec); err != nil {
			return nil, fmt.Errorf("server: input log record %d: %w", i+1, err)
		}
	}
	s.mx.logReplayed.Add(sess.events.Load() - before)
	sweepLogs(dir, sess.id, path)
	j := &journal{srv: s, gen: gen, base: baseBytes, weight: end, sound: true}
	// Zeros behind the prefix are the file's preallocation, and stay; anything
	// else is what a crash left of a sync, and goes.
	torn := len(bytes.TrimLeft(data[end:], "\x00")) > 0
	if torn {
		s.mx.logTornTails.Add(1)
	}
	if end == 0 {
		// Not even a header: the next sync starts the file afresh.
		os.Remove(path)
		return j, nil
	}
	if torn {
		if err := os.Truncate(path, int64(end)); err != nil {
			return nil, err
		}
	}
	if j.file, err = os.OpenFile(path, os.O_WRONLY, 0); err != nil {
		return nil, err
	}
	return j, nil
}

// replay applies one log record to a session being recovered, through the
// functions live traffic uses. The session has no journal yet, so nothing is
// logged again.
func (s *session) replay(fs *feedScratch, rec dist.InputLogRecord) error {
	switch rec.Kind {
	case dist.LogRun:
		run, ends, err := dist.DecodeEventRun(fs.run[:0], fs.ends[:0], rec.Payload, s.n)
		if err == nil {
			for lo := 0; lo < len(run) && err == nil; lo += feedWindow {
				err = s.ingest(fs, run[lo:min(lo+feedWindow, len(run))], nil)
			}
		}
		clear(run)
		fs.run, fs.ends = run, ends
		return err
	case dist.LogEnd:
		c := wire.NewCursor(rec.Payload)
		p := c.Int()
		if err := c.Done("end record"); err != nil {
			return err
		}
		return s.end(p)
	}
	return fmt.Errorf("record of unknown kind %d", rec.Kind)
}
