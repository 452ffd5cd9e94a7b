package server

// Durable sessions: a dlmond started with Config.StateDir checkpoints each
// live session to <dir>/session-<id>.dmsn — a "DMSN" snapshot container
// (internal/dist) holding the server-side session record (tenant, formula
// source, proposition space, initial state, resume epoch), the live
// stamper's clocks, the in-flight message tokens, and the embedded core
// engine snapshot. Files are written to a temp name and renamed into place,
// so a crash never leaves a torn checkpoint: recovery sees either the old
// blob or the new one, both self-verifying end to end (trailing CRC).
//
// Taking a checkpoint is a depth-1 pipeline. The connection's read loop does
// the part that must see a frozen session — wait for quiescence, encode —
// and hands the finished, immutable blob to an installer goroutine that
// writes, fsyncs and renames it while the read loop goes back to ingesting.
// session.ckpt, a semaphore of one, is held from the start of the snapshot
// until the rename has returned, so per session:
//
//   - at most one install is in flight, and the next snapshot starts only
//     after it: blobs reach the disk in the order they were taken, nothing is
//     skipped or coalesced, and one fixed temp name per session is enough;
//   - every reply-bearing verb passes through the semaphore (Server.settle)
//     before its frame is written, so whatever a tenant has had acknowledged
//     is on disk up to the last cadence boundary. Only a fire-and-forget
//     Ingest stream runs further ahead of the disk: by less than two cadences
//     (one blob in flight, one period accumulating);
//   - Close retires the pipeline (session.retire: take the semaphore, mark it
//     closed) before it finalizes the session and removes the file, so a late
//     rename can never resurrect a closed session;
//   - Shutdown's farewell checkpoint queues behind the in-flight one like any
//     other, and the pipeline is retired — the install waited for — before
//     the session is finalized.
//
// A kill -9 during an install leaves the fixed-name temp file behind;
// recovery sweeps those before it scans.
//
// On startup the server scans the directory and re-registers every
// checkpointed session under its original id with its epoch bumped; a
// client re-adopts one with Attach and resumes feeding each process at the
// fed count the Registered reply carries. Events ingested after the last
// checkpoint are not recovered — the feeder re-sends them, which is why
// Attach reports fed counts rather than pretending nothing was lost.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"decentmon/internal/dist"
	"decentmon/internal/wire"
)

// Checkpoint record tags (tag 0 is the container's end record).
const (
	ckTagMeta    = 1 // sid, epoch, tenant, formula, init, proposition space, events
	ckTagStamper = 2 // live-stamping clocks (dist.AppendStamperState)
	ckTagTokens  = 3 // in-flight live-stamped message tokens
	ckTagEngine  = 4 // the embedded core engine snapshot, itself a container
)

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
	stamper dist.StamperState
	tokens  map[int]dist.MsgToken
	engine  []byte
}

// appendCheckpointMeta encodes the server-side session record.
func appendCheckpointMeta(b []byte, s *session, epoch uint64) []byte {
	b = wire.AppendUvarint(wire.AppendUvarint(b, s.id), epoch)
	b = wire.AppendString(wire.AppendString(b, s.tenant), s.formula)
	b = dist.AppendProcessSpace(b, s.init, s.props)
	return wire.AppendUvarint(b, uint64(s.events.Load()))
}

// appendCheckpointTokens encodes the in-flight token map in id order, so a
// checkpoint of unchanged state is byte-identical.
func appendCheckpointTokens(b []byte, tokens map[int]dist.MsgToken) []byte {
	ids := make([]int, 0, len(tokens))
	for id := range tokens {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	b = wire.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		tok := tokens[id]
		b = wire.AppendClock(wire.AppendInts(b, tok.ID, tok.From, tok.To), tok.VC)
	}
	return b
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
		if tag < ckTagMeta || tag > ckTagEngine {
			continue // a record kind this build does not know: skippable by design
		}
		if seen&(1<<tag) != 0 {
			return nil, fmt.Errorf("server: checkpoint: duplicate record %d", tag)
		}
		seen |= 1 << tag
		switch tag {
		case ckTagMeta:
			err = ck.decodeMeta(payload)
		case ckTagStamper:
			ck.stamper, err = dist.DecodeStamperState(payload)
		case ckTagTokens:
			err = ck.decodeTokens(payload)
		case ckTagEngine:
			ck.engine = payload
		}
		if err != nil {
			return nil, err
		}
	}
	if seen != 1<<ckTagMeta|1<<ckTagStamper|1<<ckTagTokens|1<<ckTagEngine {
		return nil, fmt.Errorf("server: checkpoint: incomplete record set")
	}
	n := len(ck.init)
	if len(ck.stamper.Clocks) != n {
		return nil, fmt.Errorf("server: checkpoint: stamper for %d processes, session has %d", len(ck.stamper.Clocks), n)
	}
	for _, tok := range ck.tokens {
		if tok.From < 0 || tok.From >= n || tok.To < 0 || tok.To >= n || tok.From == tok.To || len(tok.VC) != n {
			return nil, fmt.Errorf("server: checkpoint: token %d is malformed", tok.ID)
		}
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

func (ck *checkpointState) decodeTokens(payload []byte) error {
	d := wire.NewCursor(payload)
	count := d.Count(4) // id, sender, addressee, clock count
	ck.tokens = make(map[int]dist.MsgToken, count)
	for ; count > 0 && d.Err() == nil; count-- {
		tok := dist.MsgToken{ID: d.Int(), From: d.Int(), To: d.Int(), VC: d.Clock()}
		if _, dup := ck.tokens[tok.ID]; dup {
			d.Failf("duplicate token %d", tok.ID)
		}
		ck.tokens[tok.ID] = tok
	}
	return d.Done("server: checkpoint: token record")
}

// checkpointPath names a session's checkpoint file.
func checkpointPath(dir string, sid uint64) string {
	return filepath.Join(dir, fmt.Sprintf("session-%d.dmsn", sid))
}

// checkpointTemp names the one temp file a session's installs go through.
// Fixed, not unique: installs of one session never overlap (session.ckpt).
func checkpointTemp(dir string, sid uint64) string {
	return filepath.Join(dir, fmt.Sprintf(".session-%d.tmp", sid))
}

// writeCheckpoint atomically installs one checkpoint blob: write to the
// session's temp file in the same directory, fsync, rename over the final
// name. A reader (the recovering daemon) never observes a partial write.
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

// listCheckpoints returns the checkpoint files in a state directory.
func listCheckpoints(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "session-*.dmsn"))
	if err != nil {
		return nil, fmt.Errorf("server: state directory scan: %w", err)
	}
	sort.Strings(files)
	return files, nil
}

// removeCheckpoint deletes a closed session's checkpoint (idempotent).
func removeCheckpoint(dir string, sid uint64) {
	os.Remove(checkpointPath(dir, sid))
}
