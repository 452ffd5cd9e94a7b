package core

import (
	"decentmon/internal/vclock"
	"decentmon/internal/wire"
)

// Knowledge garbage collection.
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

// floors is the GC state: curFloor is this monitor's need-floor — the
// pointwise minimum cut any of its future explorations or searches can start
// from — replaced whole, never written through, because deliver publishes it
// as a message's Floor (messages.go). Of what peers report and what they were
// told, only the components that are ever read are kept: peerNeed[j] is the
// highest need peer j has reported for this monitor's own events (component i
// of its floors; collectKnowledge truncates below the minimum), sentTo[j] this
// monitor's need for j's events as j last heard it (component j of the floor
// last sent there, piggybacked or dedicated; announceFloors measures from it).
// Both only ever rise: noteFloor takes a max, and curFloor is monotone.
type floors struct {
	curFloor vclock.VC
	peerNeed []int
	sentTo   []int
	inputSeq uint64 // inputs handled, for gcCollectEveryInputs amortization
	lastGC   uint64 // inputSeq at the last collectKnowledge run
}

// carve cuts the per-peer arrays of a monitor of n from the session's slabs.
func (f *floors) carve(sl *fleetSlabs, n int) {
	f.peerNeed, f.sentTo = take(&sl.ints, n), take(&sl.ints, n)
}

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
// minimal cut: the one component that says how much of our own history the
// peer still needs. Floors only ever advance, so a stale report maxes away.
func (m *Monitor) noteFloor(from int, f vclock.VC) {
	if f == nil || from < 0 || from >= m.cfg.N || from == m.index {
		return
	}
	i := m.index
	m.floors.peerNeed[from] = max(m.floors.peerNeed[from], f[i])
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
	for _, gv := range m.views.gvs {
		lower(gv.cut)
	}
	for _, s := range m.searches.table {
		lower(s.origin)
	}
	// Residual cuts pin the history finalization will re-explore; without
	// them GC would truncate below a retained pre-absorption cut and the
	// finalize-time walk would read collected state (a hard panic in
	// knowledge.state).
	for _, r := range m.views.residuals {
		lower(r.cut)
	}
	return f
}

// collectKnowledge truncates the knowledge store below the global minimal
// cut: peer events below our own need-floor, and our own events below the
// minimum of our need-floor and every peer's reported need for them. It
// runs at the end of every pump, so the store tracks the resolved frontier.
func (m *Monitor) collectKnowledge() {
	fl := &m.floors
	if fl.curFloor != nil && fl.inputSeq-fl.lastGC < gcCollectEveryInputs {
		return
	}
	fl.lastGC = fl.inputSeq
	fl.curFloor = m.needFloor()
	for key := range m.searches.launched { // no view can reach a cut below the floor
		if !atOrAbove(key, fl.curFloor) {
			delete(m.searches.launched, key)
		}
	}
	trunc := append(m.scratch.trunc[:0], fl.curFloor...)
	m.scratch.trunc = trunc
	i := m.index
	for j := 0; j < m.cfg.N; j++ {
		if j == i {
			continue
		}
		trunc[i] = min(trunc[i], fl.peerNeed[j])
	}
	m.know.truncate(trunc)
	m.announceFloors()
}

// announceFloors sends a dedicated floor message to any peer that could
// collect substantially more of its own history than it last heard from us.
func (m *Monitor) announceFloors() {
	if m.handshake.finiSent {
		return
	}
	for j := 0; j < m.cfg.N; j++ {
		if j == m.index {
			continue
		}
		cur, sent := m.floors.curFloor[j], m.floors.sentTo[j]
		if cur-sent >= floorAnnounceEvery || (cur > sent && cur >= floorInf) {
			m.send(j, &wireMsg{Kind: msgFloor})
		}
	}
}

// --- snapshot record ---

func (f *floors) appendTo(b []byte) []byte {
	b = wire.AppendUvarint(wire.AppendUvarint(b, f.inputSeq), f.lastGC)
	b = wire.AppendClock(b, f.curFloor)
	return wire.AppendClock(wire.AppendClock(b, f.peerNeed), f.sentTo)
}

// restore reads the record into monitor m's component (built for its n).
func (f *floors) restore(d *wire.Cursor, m *Monitor) error {
	n := m.cfg.N
	f.inputSeq, f.lastGC = d.Uvarint(), d.Uvarint()
	f.curFloor = clockOrNil(d, n)
	f.peerNeed, f.sentTo = clockOf(d, n), clockOf(d, n)
	return d.Err()
}
