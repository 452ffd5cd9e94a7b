// Drone-swarm separation monitoring — the future-work scenario of §7.2.5
// ("monitoring that a swarm of drones maximizes their inter-distance"),
// expressed as an LTL3 safety property over per-drone propositions and
// checked by the decentralized algorithm.
//
// Three drones fly a 1-D corridor and exchange position beacons. Each drone
// owns one proposition "D<i>.sep" — true while the last known distance to
// its neighbour is at least the separation minimum. The monitored property
//
//	G (D0.sep && D1.sep && D2.sep)
//
// is violated when any drone observes a separation breach; the decentralized
// monitors detect the violation and agree with the oracle.
package main

import (
	"fmt"
	"log"
	"math"

	"decentmon"
	"decentmon/internal/dist"
	"decentmon/internal/vclock"
)

const (
	drones = 3
	minSep = 10.0
	ticks  = 14
)

func main() {
	props := decentmon.NewProps()
	for d := 0; d < drones; d++ {
		props.MustAdd(fmt.Sprintf("D%d.sep", d), d)
	}
	traces := fly(props)
	if err := traces.Validate(); err != nil {
		log.Fatal("flight produced an invalid trace set: ", err)
	}

	spec, err := decentmon.Compile("G (D0.sep && D1.sep && D2.sep)", props)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("monitoring %d drones for G(all separated >= %.0fm) over %d events\n\n",
		drones, minSep, traces.TotalEvents())

	res, err := decentmon.Run(spec, traces)
	if err != nil {
		log.Fatal(err)
	}
	oracle, err := decentmon.Oracle(spec, traces)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decentralized verdicts: %v\n", res.VerdictList())
	fmt.Printf("oracle verdicts       : %v over %d lattice cuts\n", oracle.Verdicts, oracle.NumCuts)
	fmt.Printf("monitoring messages   : %d\n", res.NetMessages)
	if res.Verdicts[decentmon.Bottom] {
		fmt.Println("\nseparation violation detected: drones 1 and 2 converged mid-flight")
	}
}

// fly simulates the corridor flight and builds a causally valid trace set:
// every tick each drone updates its position (an internal event flipping its
// separation proposition), and every third tick sends a position beacon to
// its right neighbour (send + receive events with merged vector clocks).
func fly(props *decentmon.PropMap) *decentmon.TraceSet {
	ts := &decentmon.TraceSet{Props: props}
	clocks := make([]vclock.VC, drones)
	states := make([]dist.LocalState, drones)
	for d := 0; d < drones; d++ {
		ts.Traces = append(ts.Traces, &dist.Trace{Proc: d, Init: 1}) // separated at launch
		clocks[d] = vclock.New(drones)
		states[d] = 1
	}
	// Positions: drone d starts at 20·d; drones 1 and 2 converge around the
	// middle of the flight, then separate again.
	pos := func(d, tick int) float64 {
		base := 20.0 * float64(d)
		if d == 1 {
			return base + 6*math.Sin(float64(tick)/3) // drifts toward drone 2
		}
		if d == 2 {
			return base - 6*math.Sin(float64(tick)/3)
		}
		return base
	}
	neighbour := func(d int) int { return (d + 1) % drones }

	msgID := 0
	type beacon struct {
		vc   vclock.VC
		id   int
		from int
	}
	pending := map[int][]beacon{} // destination -> FIFO beacons in flight

	// emit completes an event (taken by value: it is still ours to write) and
	// appends it to its drone's trace; from then on it is read-only.
	emit := func(d int, e dist.Event) {
		e.Proc = d
		e.SN = clocks[d][d]
		e.VC = clocks[d].Clone()
		e.Time = float64(len(ts.Traces[d].Events)) // monotone per drone
		ts.Traces[d].Events = append(ts.Traces[d].Events, &e)
	}

	for tick := 1; tick <= ticks; tick++ {
		for d := 0; d < drones; d++ {
			// Deliver at most one pending beacon first (FIFO).
			if q := pending[d]; len(q) > 0 {
				b := q[0]
				pending[d] = q[1:]
				clocks[d].Tick(d)
				clocks[d].Merge(b.vc)
				emit(d, dist.Event{Type: dist.Recv, Peer: b.from, MsgID: b.id, State: states[d]})
			}
			// Position update: recompute separation to the neighbour.
			sep := math.Abs(pos(d, tick) - pos(neighbour(d), tick))
			var s dist.LocalState
			if sep >= minSep {
				s = 1
			}
			states[d] = s
			clocks[d].Tick(d)
			emit(d, dist.Event{Type: dist.Internal, State: s})
			// Beacon every third tick.
			if tick%3 == 0 {
				msgID++
				clocks[d].Tick(d)
				emit(d, dist.Event{Type: dist.Send, Peer: neighbour(d), MsgID: msgID, State: s})
				pending[neighbour(d)] = append(pending[neighbour(d)],
					beacon{vc: clocks[d].Clone(), id: msgID, from: d})
			}
		}
	}
	return ts
}
