package dist

import (
	"container/heap"
	"fmt"
	"math/rand"

	"decentmon/internal/vclock"
)

// genSuffixes are the default per-process propositions of the case study
// (§5.1): every process owns two booleans, P<i>.p and P<i>.q.
var genSuffixes = []string{"p", "q"}

// Topology selects the communication pattern of the generated execution.
// The paper's case study uses uniform random unicast; the other shapes open
// the scenario space of real deployments (pipelines, hub-and-spoke
// aggregation, gossip broadcast, and partitioned clusters).
type Topology int

const (
	// TopoUniform sends each communication event to a uniformly random
	// other process (the paper's §5.1 workload).
	TopoUniform Topology = iota
	// TopoRing sends from process p to process (p+1) mod n.
	TopoRing
	// TopoStar routes all communication through a hub: leaves send to the
	// hub, the hub sends to a uniformly random leaf.
	TopoStar
	// TopoBroadcast turns every communication event into a burst of sends
	// to all other processes.
	TopoBroadcast
	// TopoClustered partitions the processes into contiguous clusters;
	// communication stays inside the sender's cluster except with
	// probability CrossProb.
	TopoClustered
)

// Topologies lists every supported topology in declaration order.
var Topologies = []Topology{TopoUniform, TopoRing, TopoStar, TopoBroadcast, TopoClustered}

func (t Topology) String() string {
	switch t {
	case TopoUniform:
		return "uniform"
	case TopoRing:
		return "ring"
	case TopoStar:
		return "star"
	case TopoBroadcast:
		return "broadcast"
	case TopoClustered:
		return "clustered"
	}
	return fmt.Sprintf("Topology(%d)", int(t))
}

// ParseTopology maps a topology name ("uniform", "ring", "star",
// "broadcast", "clustered") to its value.
func ParseTopology(s string) (Topology, error) {
	for _, t := range Topologies {
		if s == t.String() {
			return t, nil
		}
	}
	return 0, fmt.Errorf("dist: unknown topology %q (want uniform, ring, star, broadcast or clustered)", s)
}

// GenConfig parameterizes the case-study workload generator. Zero values
// take the paper's settings where one exists (Evtµ=3s, Evtσ=1s); CommMu <= 0
// disables communication entirely (the "No comm" extreme of Fig. 5.9).
type GenConfig struct {
	// N is the number of processes.
	N int
	// InternalPerProc is the number of internal (valuation-change) events
	// each process performs; the process terminates after the last one.
	InternalPerProc int
	// EvtMu/EvtSigma are the mean/stddev seconds between internal events
	// (paper: 3, 1; defaults applied when EvtMu <= 0).
	EvtMu, EvtSigma float64
	// CommMu/CommSigma are the mean/stddev seconds between communication
	// events of one process; CommMu <= 0 disables communication.
	CommMu, CommSigma float64
	// Topology selects the communication pattern (default TopoUniform).
	Topology Topology
	// Hub is the center process of TopoStar (default 0).
	Hub int
	// Clusters is the number of contiguous process groups of TopoClustered
	// (default 2).
	Clusters int
	// CrossProb is the probability a TopoClustered communication event
	// leaves the sender's cluster (default 0: fully partitioned).
	CrossProb float64
	// Suffixes are the per-process proposition names (default "p", "q"), at
	// most MaxLocalProps of them.
	Suffixes []string
	// TrueProbs is the per-suffix ("p", "q") probability a proposition is
	// true after an internal event; absent suffixes default to 0.5.
	TrueProbs map[string]float64
	// InitTrue lists the suffixes whose propositions start true at every
	// process (the §5.1 "designed traces" raise p initially for the
	// until-family properties).
	InitTrue []string
	// PlantGoal forces every proposition true at each process's final
	// internal event, guaranteeing a lattice path into the goal global
	// state ("the variable valuation change events were designed such that
	// there would be a path ... that would lead to a final state", §5.1).
	PlantGoal bool
	// Seed makes the generated execution reproducible.
	Seed int64
}

// suffixes returns the effective proposition suffixes.
func (cfg GenConfig) suffixes() []string {
	if len(cfg.Suffixes) == 0 {
		return genSuffixes
	}
	return cfg.Suffixes
}

// Props builds the proposition space of the configured execution:
// PerProcess(N, Suffixes...).
func (cfg GenConfig) Props() *PropMap {
	if cfg.N <= 0 {
		return NewPropMap()
	}
	return PerProcess(cfg.N, cfg.suffixes()...)
}

// InitState returns the initial global state the configuration implies
// (every process starts with the InitTrue suffixes raised).
func (cfg GenConfig) InitState() GlobalState {
	var init LocalState
	for _, s := range cfg.InitTrue {
		for i, suf := range cfg.suffixes() {
			if s == suf {
				init |= 1 << i
			}
		}
	}
	g := make(GlobalState, cfg.N)
	for p := range g {
		g[p] = init
	}
	return g
}

// Check validates the configuration: a process's propositions must fit its
// 32-bit local state, the process and proposition counts must be ones a trace
// reader accepts (MaxSpace), and the topology parameters must name existing
// processes.
func (cfg GenConfig) Check() error {
	if cfg.N < 0 {
		return fmt.Errorf("dist: negative process count %d", cfg.N)
	}
	suf := cfg.suffixes()
	seen := make(map[string]bool, len(suf))
	for _, s := range suf {
		if s == "" {
			return fmt.Errorf("dist: empty proposition suffix")
		}
		if seen[s] {
			return fmt.Errorf("dist: duplicate proposition suffix %q", s)
		}
		seen[s] = true
	}
	if len(suf) > MaxLocalProps {
		return fmt.Errorf("dist: %d proposition suffixes, more than the %d a local state holds", len(suf), MaxLocalProps)
	}
	if err := spaceCount(uint64(cfg.N), "processes"); err != nil {
		return err
	}
	if err := spaceCount(uint64(cfg.N*len(suf)), "propositions"); err != nil {
		return err
	}
	if cfg.Topology == TopoStar && (cfg.Hub < 0 || (cfg.N > 0 && cfg.Hub >= cfg.N)) {
		return fmt.Errorf("dist: star hub %d outside 0..%d", cfg.Hub, cfg.N-1)
	}
	if cfg.Topology == TopoClustered && cfg.Clusters < 0 {
		return fmt.Errorf("dist: negative cluster count %d", cfg.Clusters)
	}
	if cfg.CrossProb < 0 || cfg.CrossProb > 1 {
		return fmt.Errorf("dist: cross-cluster probability %v outside [0,1]", cfg.CrossProb)
	}
	return nil
}

// Event-queue items of the generator's discrete-event simulation.
type genKind int

const (
	genInternal genKind = iota
	genComm
	genDeliver
)

type genItem struct {
	time float64
	seq  int // FIFO tie-break for equal times
	kind genKind
	proc int
	// Delivery payload (genDeliver only).
	from, msgID int
	sendVC      vclock.VC
}

type genQueue struct {
	items []genItem
	seq   int
}

func (q *genQueue) Len() int { return len(q.items) }
func (q *genQueue) Less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}
func (q *genQueue) Swap(i, j int)      { q.items[i], q.items[j] = q.items[j], q.items[i] }
func (q *genQueue) Push(x interface{}) { q.items = append(q.items, x.(genItem)) }
func (q *genQueue) Pop() interface{} {
	last := q.items[len(q.items)-1]
	q.items = q.items[:len(q.items)-1]
	return last
}

func (q *genQueue) add(it genItem) {
	it.seq = q.seq
	q.seq++
	heap.Push(q, it)
}

func (q *genQueue) next() genItem { return heap.Pop(q).(genItem) }

// Generate produces a reproducible execution of the §5.1 case-study program:
// n processes over the PerProcess(n, Suffixes...) proposition space, each
// performing InternalPerProc valuation changes with normally distributed
// waits, interleaved with communication events (shaped by the configured
// Topology) whose receive merges the sender's vector clock. Timestamps are
// strictly increasing globally and respect the happened-before order, so the
// physical execution is one linearization of the causal order.
func Generate(cfg GenConfig) *TraceSet {
	if err := cfg.Check(); err != nil {
		// Generate's signature predates Check; configuration errors surface
		// loudly, with Check's descriptive message, like PerProcess does.
		panic(err)
	}
	ts := &TraceSet{Props: cfg.Props()}
	if cfg.N <= 0 {
		return ts
	}
	init := cfg.InitState()
	for p := 0; p < cfg.N; p++ {
		ts.Traces = append(ts.Traces, &Trace{Proc: p, Init: init[p]})
	}
	if err := GenerateStream(cfg, func(e *Event) error {
		ts.Traces[e.Proc].Events = append(ts.Traces[e.Proc].Events, e)
		return nil
	}); err != nil {
		// Only configuration errors reach here (the emit callback above
		// cannot fail); surface them loudly like PerProcess does.
		panic(err)
	}
	return ts
}

// GenerateStream runs the generator without materializing the execution:
// every event is passed to emit exactly once, in global timestamp order
// (the linearization StreamWriter and the streaming readers consume). The
// generator's state is O(n) regardless of InternalPerProc, so arbitrarily
// long executions can be produced in bounded memory. It returns the first
// error of cfg.Check or emit.
func GenerateStream(cfg GenConfig, emit func(*Event) error) error {
	if err := cfg.Check(); err != nil {
		return err
	}
	n := cfg.N
	if n <= 0 {
		return nil
	}

	evtMu, evtSigma := cfg.EvtMu, cfg.EvtSigma
	if evtMu <= 0 {
		evtMu = 3
		if evtSigma == 0 {
			evtSigma = 1
		}
	}
	commOn := cfg.CommMu > 0 && n > 1

	suffixes := cfg.suffixes()
	probs := make([]float64, len(suffixes))
	for i, s := range suffixes {
		probs[i] = 0.5
		if v, ok := cfg.TrueProbs[s]; ok {
			probs[i] = v
		}
	}
	initState := cfg.InitState()
	allTrue := LocalState(1)<<len(suffixes) - 1

	rng := rand.New(rand.NewSource(cfg.Seed))
	wait := func(mu, sigma float64) float64 {
		d := mu + rng.NormFloat64()*sigma
		if d < 0.01 {
			d = 0.01
		}
		return d
	}

	clocks := make([]vclock.VC, n)
	states := make([]LocalState, n)
	remaining := make([]int, n)
	for p := 0; p < n; p++ {
		clocks[p] = vclock.New(n)
		states[p] = initState[p]
		remaining[p] = cfg.InternalPerProc
	}

	q := &genQueue{}
	for p := 0; p < n; p++ {
		if remaining[p] > 0 {
			q.add(genItem{time: wait(evtMu, evtSigma), kind: genInternal, proc: p})
			if commOn {
				q.add(genItem{time: wait(cfg.CommMu, cfg.CommSigma), kind: genComm, proc: p})
			}
		}
	}

	// destinations resolves one communication event of process p to its
	// receiver set under the configured topology. Broadcast is the only
	// multi-destination shape; the buffer is reused across calls.
	dstBuf := make([]int, 0, n)
	destinations := func(p int) []int {
		dstBuf = dstBuf[:0]
		switch cfg.Topology {
		case TopoRing:
			dstBuf = append(dstBuf, (p+1)%n)
		case TopoStar:
			if p == cfg.Hub {
				d := rng.Intn(n - 1)
				if d >= cfg.Hub {
					d++
				}
				dstBuf = append(dstBuf, d)
			} else {
				dstBuf = append(dstBuf, cfg.Hub)
			}
		case TopoBroadcast:
			for d := 0; d < n; d++ {
				if d != p {
					dstBuf = append(dstBuf, d)
				}
			}
		case TopoClustered:
			k := cfg.Clusters
			if k <= 0 {
				k = 2
			}
			if k > n {
				k = n
			}
			size := (n + k - 1) / k
			lo := (p / size) * size
			hi := lo + size
			if hi > n {
				hi = n
			}
			cross := hi-lo <= 1 // a singleton cluster must reach out
			if !cross && cfg.CrossProb > 0 && rng.Float64() < cfg.CrossProb {
				cross = true
			}
			if hi-lo == n {
				cross = false // one cluster spans everything: nowhere to cross to
			}
			if cross {
				d := rng.Intn(n - (hi - lo))
				if d >= lo {
					d += hi - lo
				}
				dstBuf = append(dstBuf, d)
			} else {
				d := lo + rng.Intn(hi-lo-1)
				if d >= p {
					d++
				}
				dstBuf = append(dstBuf, d)
			}
		default: // TopoUniform
			d := rng.Intn(n - 1)
			if d >= p {
				d++
			}
			dstBuf = append(dstBuf, d)
		}
		return dstBuf
	}

	// record emits one event; nudging the timestamp past the previously
	// emitted one keeps physical time a strict linearization of the causal
	// (pop) order even when scheduled times collide.
	lastTime := 0.0
	record := func(p int, e *Event, at float64) error {
		if at <= lastTime {
			at = lastTime + 1e-6
		}
		lastTime = at
		e.Proc = p
		e.SN = clocks[p][p]
		e.VC = clocks[p].Clone()
		e.Time = at
		return emit(e)
	}

	msgSeq := 0
	for q.Len() > 0 {
		it := q.next()
		p := it.proc
		switch it.kind {
		case genInternal:
			remaining[p]--
			var s LocalState
			if cfg.PlantGoal && remaining[p] == 0 {
				s = allTrue
			} else {
				for i := range suffixes {
					if rng.Float64() < probs[i] {
						s |= 1 << i
					}
				}
			}
			states[p] = s
			clocks[p].Tick(p)
			if err := record(p, &Event{Type: Internal, Peer: -1, State: s}, it.time); err != nil {
				return err
			}
			if remaining[p] > 0 {
				q.add(genItem{time: it.time + wait(evtMu, evtSigma), kind: genInternal, proc: p})
			}
		case genComm:
			if remaining[p] == 0 {
				continue // the program process has terminated
			}
			for _, dst := range destinations(p) {
				msgSeq++
				clocks[p].Tick(p)
				if err := record(p, &Event{Type: Send, Peer: dst, MsgID: msgSeq, State: states[p]}, it.time); err != nil {
					return err
				}
				transit := 0.02 + rng.Float64()*0.05
				q.add(genItem{
					time: it.time + transit, kind: genDeliver, proc: dst,
					from: p, msgID: msgSeq, sendVC: clocks[p].Clone(),
				})
			}
			q.add(genItem{time: it.time + wait(cfg.CommMu, cfg.CommSigma), kind: genComm, proc: p})
		case genDeliver:
			clocks[p].Tick(p)
			clocks[p].Merge(it.sendVC)
			if err := record(p, &Event{Type: Recv, Peer: it.from, MsgID: it.msgID, State: states[p]}, it.time); err != nil {
				return err
			}
		}
	}
	return nil
}
