package core

import (
	"fmt"

	"decentmon/internal/dist"
	"decentmon/internal/vclock"
	"decentmon/internal/wire"
)

// knowledge is a monitor's partial view of the whole execution: for every
// process, a contiguous window of its events (its own process's window is
// always current up to the last event delivered by the program). Token
// replies carry event segments, which widen this knowledge; the box explorer
// (boxdp.go) only ever walks regions of the lattice the knowledge covers.
//
// The window has a floor as well as a frontier: events at or below the
// monitor's garbage-collection cut (truncate) are discarded, keeping only
// the local state at the cut itself, so long-running streams do not
// accumulate history the exploration can no longer reach. Sequence numbers
// remain global: len, covers and event all speak the trace's 1-based
// numbering regardless of how much of the prefix has been collected.
type knowledge struct {
	n      int
	init   dist.GlobalState
	events [][]*dist.Event   // events[p][k] = (base[p]+k+1)-th event of process p
	base   []int             // events 1..base[p] have been garbage-collected
	bstate []dist.LocalState // local state after event base[p] (init below 1)
	done   []bool            // process p has terminated (no further events)
	final  []int             // if done[p], total number of events of p

	retained  int // events currently held across all processes
	peak      int // high-water mark of retained (Metrics.KnowledgePeak)
	collected int // total events discarded by truncate (Metrics.KnowledgeCollected)
}

func newKnowledge(n int, init dist.GlobalState) *knowledge {
	k := &knowledge{
		n:      n,
		init:   init.Clone(),
		events: make([][]*dist.Event, n),
		base:   make([]int, n),
		bstate: make([]dist.LocalState, n),
		done:   make([]bool, n),
		final:  make([]int, n),
	}
	copy(k.bstate, k.init)
	return k
}

// len returns the length of the known contiguous prefix of process p
// (including any collected events).
func (k *knowledge) len(p int) int { return k.base[p] + len(k.events[p]) }

// floor returns the highest collected sequence number of process p.
func (k *knowledge) floor(p int) int { return k.base[p] }

// event returns the sn-th event (1-based) of process p; it panics if the
// event is not known or already collected — callers must stay between the
// GC floor and the frontier.
func (k *knowledge) event(p, sn int) *dist.Event {
	if sn <= k.base[p] || sn > k.len(p) {
		panic(fmt.Sprintf("core: event %d of process %d not retained (window %d..%d)", sn, p, k.base[p]+1, k.len(p)))
	}
	return k.events[p][sn-1-k.base[p]]
}

// from returns the retained events of process p from the sn-th on (none when
// sn is past the frontier), aliasing the window: valid until the next grow or
// truncate. Like event, it panics below the GC floor.
func (k *knowledge) from(p, sn int) []*dist.Event {
	if sn > k.len(p) {
		return nil
	}
	k.event(p, sn) // the floor check
	return k.events[p][sn-1-k.base[p]:]
}

// grow appends one event at the frontier of process p (already
// sequence-checked by append/merge).
func (k *knowledge) grow(p int, e *dist.Event) {
	k.events[p] = append(k.events[p], e)
	k.retained++
	if k.retained > k.peak {
		k.peak = k.retained
	}
}

// append adds the next local event of process p (sequence-checked).
func (k *knowledge) append(e *dist.Event) error {
	if e.SN != k.len(e.Proc)+1 {
		return fmt.Errorf("core: process %d event gap: got sn %d, have %d", e.Proc, e.SN, k.len(e.Proc))
	}
	k.grow(e.Proc, e)
	return nil
}

// merge absorbs a (possibly overlapping) segment of events of one process,
// keeping the prefix contiguous. Segments always start at or before
// len+1 in the protocol; gaps are an error.
func (k *knowledge) merge(p int, seg []*dist.Event) error {
	for _, e := range seg {
		switch {
		case e.SN <= k.len(p):
			// already known (possibly already collected)
		case e.SN == k.len(p)+1:
			k.grow(p, e)
		default:
			return fmt.Errorf("core: segment gap for process %d: sn %d after %d", p, e.SN, k.len(p))
		}
	}
	return nil
}

// truncate garbage-collects, per process, every event at or below the given
// cut, remembering only the local state at the cut. Components beyond the
// frontier are clamped; the caller guarantees no future exploration, token
// service or fetch will reach below the cut.
func (k *knowledge) truncate(cut vclock.VC) {
	for p := 0; p < k.n; p++ {
		target := cut[p]
		if target > k.len(p) {
			target = k.len(p)
		}
		drop := target - k.base[p]
		if drop <= 0 {
			continue
		}
		k.bstate[p] = k.events[p][drop-1].State
		rest := k.events[p][drop:]
		if len(rest) < cap(k.events[p])/2 {
			// Compact into a fresh slice so the old backing array (and the
			// collected events) are released; amortized O(1) per event.
			fresh := make([]*dist.Event, len(rest))
			copy(fresh, rest)
			k.events[p] = fresh
		} else {
			for i := 0; i < drop; i++ {
				k.events[p][i] = nil // release the collected events
			}
			k.events[p] = rest
		}
		k.base[p] = target
		k.retained -= drop
		k.collected += drop
	}
}

// markDone records that process p has terminated with the given event count.
func (k *knowledge) markDone(p, total int) {
	k.done[p] = true
	k.final[p] = total
}

// state returns the local state of process p after its sn-th event.
func (k *knowledge) state(p, sn int) dist.LocalState {
	if sn <= k.base[p] {
		if sn == k.base[p] {
			return k.bstate[p]
		}
		panic(fmt.Sprintf("core: state %d of process %d below the GC floor %d", sn, p, k.base[p]))
	}
	return k.event(p, sn).State
}

// stateAt materializes the global state at a cut covered by the knowledge.
func (k *knowledge) stateAt(cut vclock.VC) dist.GlobalState {
	g := make(dist.GlobalState, k.n)
	for p := 0; p < k.n; p++ {
		g[p] = k.state(p, cut[p])
	}
	return g
}

// covers reports whether every event up to hi per process is known (it may
// have been collected; coverage speaks the frontier, not the floor).
func (k *knowledge) covers(hi vclock.VC) bool {
	for p := 0; p < k.n; p++ {
		if hi[p] > k.len(p) {
			return false
		}
	}
	return true
}

// consistentStep reports whether extending cut by one event of process p
// (the event with sn cut[p]+1, which must be known) yields a consistent cut.
func (k *knowledge) consistentStep(cut vclock.VC, p int) bool {
	e := k.event(p, cut[p]+1)
	for j := 0; j < k.n; j++ {
		lim := cut[j]
		if j == p {
			lim = cut[j] + 1
		}
		if e.VC[j] > lim {
			return false
		}
	}
	return true
}

// projectedStep reports whether extending cut by the next event of support
// process p (sn cut[p]+1, which must be known) yields a consistent cut of the
// *projected* poset — the support events ordered by causality. A support
// event f of process j precedes e iff f.SN ≤ e.VC[j], so downward closure
// needs exactly e.VC[j] ≤ cut[j] over the support components: vector-clock
// transitivity already routes causality through projected-away processes
// (mirrors the lattice package's projLessEq argument).
func (k *knowledge) projectedStep(cut vclock.VC, p int, support []int) bool {
	e := k.event(p, cut[p]+1)
	for _, j := range support {
		lim := cut[j]
		if j == p {
			lim++
		}
		if e.VC[j] > lim {
			return false
		}
	}
	return true
}

// finalCut returns the global final cut and true once every process is done.
func (k *knowledge) finalCut() (vclock.VC, bool) {
	cut := vclock.New(k.n)
	for p := 0; p < k.n; p++ {
		if !k.done[p] {
			return nil, false
		}
		cut[p] = k.final[p]
	}
	return cut, true
}

// --- snapshot record ---

// appendTo writes the window: base offsets, floor states, termination marks,
// then the retained events per process (retained is derivable).
func (k *knowledge) appendTo(b []byte) []byte {
	b = wire.AppendInts(b, k.base...)
	for _, st := range k.bstate {
		b = wire.AppendUvarint(b, uint64(st))
	}
	b = appendBools(b, k.done)
	b = wire.AppendInts(b, k.final...)
	b = wire.AppendInts(b, k.peak, k.collected)
	for _, evs := range k.events {
		b = appendEvents(b, evs)
	}
	return b
}

// restore reads the record into a fresh store, checking that each process's
// events are its own and contiguous from the GC base.
func (k *knowledge) restore(d *wire.Cursor, _ *Monitor) error {
	d.Ints(k.base)
	for p := range k.bstate {
		k.bstate[p] = dist.DecodeLocalState(d)
	}
	readBools(d, k.done)
	d.Ints(k.final)
	k.peak, k.collected = d.Int(), d.Int()
	for p := range k.events {
		evs := decodeEvents(d, k.n)
		if d.Err() != nil {
			break
		}
		for i, e := range evs {
			if e.Proc != p || e.SN != k.base[p]+i+1 {
				return fmt.Errorf("knowledge window of process %d broken at entry %d", p, i)
			}
		}
		k.events[p] = evs
		k.retained += len(evs)
	}
	k.peak = max(k.peak, k.retained)
	return d.Err()
}
