package decentmon

// Durable sessions: Snapshot captures a running session's complete
// monitoring state — every monitor's automaton state set, knowledge window,
// outstanding searches and parked protocol work, plus the session's
// bookkeeping and the internal stamper's clocks — as a self-verifying blob,
// and RestoreSession resumes an equivalent session from it. The blob is a
// "DMSN" snapshot container (internal/dist) wrapping the engine snapshot and
// the stamper state; any corruption or truncation is detected at restore.
//
// The contract mirrors the feeding contract: take a snapshot only while no
// Process-handle call or Feed is in flight mid-call (concurrent calls are
// paused and resumed safely, but a handle that has stamped an event and not
// yet fed it would leave the stamper one event ahead of the engine).
// Restore, then resume feeding each process at Fed()[p]+1; verdict events
// delivered before the snapshot are re-delivered on the restored session's
// Verdicts channel.

import (
	"context"
	"fmt"
	"time"

	"decentmon/internal/core"
	"decentmon/internal/dist"
)

// Facade snapshot record tags (tag 0 is the container's end record).
const (
	snapTagStamper = 1 // stamper state: message ids, clocks, timestamps
	snapTagEngine  = 2 // the embedded core engine snapshot, itself a container
)

// Snapshot pauses the session at a proven-quiescent instant (every fed event
// and every in-flight monitor message fully absorbed), captures its complete
// state, and resumes it. The session keeps running; ctx bounds only the wait
// for quiescence.
func (s *Session) Snapshot(ctx context.Context) ([]byte, error) {
	engine, err := s.core.Snapshot(ctx)
	if err != nil {
		return nil, err
	}
	b := dist.NewSnapshotBuilder()
	b.Record(snapTagStamper, dist.AppendStamperState(nil, s.stamper.State()))
	b.Record(snapTagEngine, engine)
	return b.Finish(), nil
}

// Fed returns, per process, how many events have been fed so far — for a
// restored session, including everything fed before the snapshot. A feeder
// resuming after RestoreSession continues process p at event Fed()[p]+1.
func (s *Session) Fed() []int { return s.core.Fed() }

// RestoreSession resumes a session from a Snapshot blob. The spec, process
// count and options must rebuild the configuration the snapshot was taken
// under (same property compilation, finalization and initial state —
// all verified against fingerprints in the blob; a mismatch or any
// corruption is an error, never a silently wrong monitor). Options that do
// not change monitor state — WithContext, WithNetwork, WithMaxLag — may
// differ freely. WithValidation sessions cannot be restored: the validator
// holds state a snapshot does not carry.
func RestoreSession(spec *Spec, n int, snap []byte, opts ...Option) (*Session, error) {
	o := buildOptions(opts)
	if o.validate {
		return nil, fmt.Errorf("decentmon: WithValidation cannot resume from a snapshot: the validator's causal ledger is not captured")
	}
	cfg, err := engineConfig(spec, n, o)
	if err != nil {
		return nil, err
	}
	r, err := dist.OpenSnapshot(snap)
	if err != nil {
		return nil, err
	}
	var stamper *dist.Stamper
	var engine []byte
	for {
		tag, payload, ok := r.Next()
		if !ok {
			break
		}
		switch tag {
		case snapTagStamper:
			if stamper != nil {
				return nil, fmt.Errorf("decentmon: duplicate stamper record in snapshot")
			}
			st, err := dist.DecodeStamperState(payload)
			if err != nil {
				return nil, err
			}
			if stamper, err = dist.RestoreStamper(n, st); err != nil {
				return nil, err
			}
		case snapTagEngine:
			if engine != nil {
				return nil, fmt.Errorf("decentmon: duplicate engine record in snapshot")
			}
			engine = payload
		}
	}
	if stamper == nil || engine == nil {
		return nil, fmt.Errorf("decentmon: snapshot is missing the %s record",
			map[bool]string{true: "stamper", false: "engine"}[stamper == nil])
	}

	cs, err := core.RestoreSession(o.ctx, cfg, engine)
	if err != nil {
		return nil, err
	}
	return &Session{n: n, stamper: stamper, start: time.Now(), core: cs}, nil
}
