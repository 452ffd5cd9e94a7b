package decentmon_test

import (
	"fmt"
	"log"

	"decentmon"
)

// Example shows the replay quickstart: compile an LTL3 property, generate a
// reproducible distributed execution, monitor it with one decentralized
// monitor per process, and check the result against the ground-truth oracle.
func Example() {
	// Three processes, each owning boolean propositions p and q.
	props := decentmon.PerProcessProps(3, "p", "q")

	// "Eventually all three processes raise p at the same consistent
	// global instant" — property B of the paper's case study.
	spec, err := decentmon.Compile("F (P0.p && P1.p && P2.p)", props)
	if err != nil {
		log.Fatal(err)
	}

	// A reproducible execution with the goal planted at the end.
	traces := decentmon.Generate(decentmon.GenConfig{
		N: 3, InternalPerProc: 8,
		CommMu: 3, CommSigma: 1,
		PlantGoal: true, Seed: 1,
	})

	fmt.Printf("execution: %d processes, %d events\n", traces.N(), traces.TotalEvents())

	// Decentralized run: one monitor per process over an in-memory network.
	res, err := decentmon.Run(spec, traces)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("decentralized:", res.VerdictList())

	// The oracle evaluates every path of the computation lattice; a sound
	// and complete decentralized run reports exactly its verdict set.
	oracle, err := decentmon.Oracle(spec, traces)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("oracle: %v over %d consistent cuts\n", oracle.Verdicts, oracle.NumCuts)
	// Output:
	// execution: 3 processes, 70 events
	// decentralized: [T]
	// oracle: [T] over 448 consistent cuts
}

// ExampleRunningExample runs the paper's running example end to end: the
// two-process program of Fig. 2.1, the property
// ψ = G((x1≥5) → ((x2≥15) U (x1=10))) of Fig. 2.3, the 17-cut computation
// lattice of Fig. 2.2b, and the verdict set {⊥, ?} derived in Chapter 3
// (Fig. 3.1). Every path through ⟨e11⟩ before x2≥15 violates ψ (⊥); the path
// advancing P2 first stays inconclusive (?).
func ExampleRunningExample() {
	// P1: send(P2); x1=5; x1=10; recv(m2)
	// P2: recv(m1); x2=15; x2=20; send(P1)
	traces := decentmon.RunningExample()
	spec, err := decentmon.Compile(decentmon.RunningExampleProperty, traces.Props)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(spec.Describe())

	oracle, err := decentmon.Oracle(spec, traces)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lattice: %d consistent cuts, %d edges\n", oracle.NumCuts, oracle.NumEdges)
	fmt.Println("oracle:", oracle.Verdicts)

	res, err := decentmon.Run(spec, traces)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("decentralized:", res.VerdictList())

	// The monitor automaton in DOT: graphviz draws Fig. 2.3 from it.
	fmt.Println(spec.Dot("fig2_3"))
	// Output:
	// monitor for G (!x1>=5 || x2>=15 U x1=10)
	// propositions: x1>=5, x1=10, x2>=15
	// states: 3, transitions: 8 (4 outgoing, 4 self-loop)
	// q0 [?] (initial)
	//   ~ !x1>=5 -> q0
	//   ~ x1=10 -> q0
	//     x1>=5 && !x1=10 && !x2>=15 -> q1
	//     x1>=5 && !x1=10 && x2>=15 -> q2
	// q1 [F]
	//   ~ true -> q1
	// q2 [?]
	//     x1=10 -> q0
	//     !x1=10 && !x2>=15 -> q1
	//   ~ !x1=10 && x2>=15 -> q2
	//
	// lattice: 17 consistent cuts, 24 edges
	// oracle: [? F]
	// decentralized: [F ?]
	// digraph "fig2_3" {
	//   rankdir=LR;
	//   node [shape=circle];
	//   init [shape=point];
	//   init -> q0;
	//   q0 [shape=circle,label="q0\n?"];
	//   q1 [shape=doublecircle,label="q1\nF"];
	//   q2 [shape=circle,label="q2\n?"];
	//   q0 -> q0 [label="!x1>=5"];
	//   q0 -> q0 [label="x1=10"];
	//   q0 -> q1 [label="x1>=5 && !x1=10 && !x2>=15"];
	//   q0 -> q2 [label="x1>=5 && !x1=10 && x2>=15"];
	//   q1 -> q1 [label="true"];
	//   q2 -> q0 [label="x1=10"];
	//   q2 -> q1 [label="!x1=10 && !x2>=15"];
	//   q2 -> q2 [label="!x1=10 && x2>=15"];
	// }
}

// ExampleNewTCPNetwork runs the monitors over real sockets: a loopback TCP
// network (the stdlib-net analogue of the paper's WiFi peer-to-peer links)
// checking the mutual-exclusion safety property "never do all four processes
// hold the resource concurrently" on an execution that violates it at the
// planted end.
func ExampleNewTCPNetwork() {
	const n = 4
	spec, err := decentmon.Compile("G !(P0.p && P1.p && P2.p && P3.p)", decentmon.PerProcessProps(n, "p", "q"))
	if err != nil {
		log.Fatal(err)
	}
	traces := decentmon.Generate(decentmon.GenConfig{
		N: n, InternalPerProc: 10,
		EvtMu: 3, EvtSigma: 1,
		CommMu: 3, CommSigma: 1,
		TrueProbs: map[string]float64{"p": 0.4, "q": 0.5},
		PlantGoal: true, // forces the all-p global state at the end: a violation
		Seed:      11,
	})

	nw, err := decentmon.NewTCPNetwork(n)
	if err != nil {
		log.Fatal(err)
	}
	res, err := decentmon.Run(spec, traces, decentmon.WithNetwork(nw))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("over TCP:", res.VerdictList())

	oracle, err := decentmon.Oracle(spec, traces)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("oracle:", oracle.Verdicts)
	// Output:
	// over TCP: [F]
	// oracle: [F]
}

// ExampleNewSession shows the online loop: monitors attached to a live
// execution through per-process handles, with verdicts delivered as they
// are detected. Vector clocks, sequence numbers and message ids are
// stamped internally; the token returned by Send travels to the receiver
// on the application's own channel.
func ExampleNewSession() {
	spec := decentmon.MustCompile("F (P0.p && P1.p)", decentmon.PerProcessProps(2, "p"))
	sess, err := decentmon.NewSession(spec, 2)
	if err != nil {
		log.Fatal(err)
	}
	p0, p1 := sess.Process(0), sess.Process(1)

	// Process 0 raises p, then messages process 1, which raises p too —
	// the two valuations hold at one consistent cut, proving the property.
	if err := p0.Internal(0b1); err != nil {
		log.Fatal(err)
	}
	tok, err := p0.Send(1, 0b1)
	if err != nil {
		log.Fatal(err)
	}
	if err := p1.Recv(tok, 0b1); err != nil {
		log.Fatal(err)
	}

	// The detection arrives online, before the execution even ends.
	ev := <-sess.Verdicts()
	fmt.Println("online:", ev.Verdict, "conclusive:", ev.Conclusive)

	res, err := sess.Close() // finalization + terminal result
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("final:", res.VerdictList())
	// Output:
	// online: T conclusive: true
	// final: [T]
}

// ExampleSession_Verdicts shows verdict subscription under feeder-side
// backpressure: the replay feeds one process's whole trace before the next,
// and the feeder blocks whenever that monitor's feed queue is full, while the
// subscriber keeps receiving detections as they happen — the verdict channel
// is buffered for every possible event, so a slow subscriber can never wedge
// the monitors or the blocked feeder.
func ExampleSession_Verdicts() {
	spec := decentmon.MustCompile("F (P0.p && P1.p)", decentmon.PerProcessProps(2, "p"))
	sess, err := decentmon.NewSession(spec, 2)
	if err != nil {
		log.Fatal(err)
	}

	// Subscribe before feeding: detections arrive while the replay runs.
	// Which monitor proves the goal first is scheduling-dependent, so the
	// subscriber records the detection rather than its attribution.
	detected := make(chan decentmon.Verdict, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range sess.Verdicts() {
			if ev.Conclusive {
				select {
				case detected <- ev.Verdict:
				default: // other monitors may prove it again; one is enough
				}
			}
		}
	}()

	// Replay a generated execution through the session, process by process,
	// with the goal planted at the end. Each process has several hundred
	// events; while the first is fed alone its peer is silent, so its monitor
	// collects nothing and retains them all, and the feed still goes on: a
	// feeder waits only for room in the monitor's feed queue.
	traces := decentmon.Generate(decentmon.GenConfig{
		N: 2, InternalPerProc: 200, CommMu: 3, CommSigma: 1,
		PlantGoal: true, Seed: 1,
	})
	for _, tr := range traces.Traces {
		for _, e := range tr.Events {
			if err := sess.Feed(e); err != nil {
				log.Fatal(err)
			}
		}
		if err := sess.End(e0proc(tr)); err != nil {
			log.Fatal(err)
		}
	}

	res, err := sess.Close() // closes the verdict channel
	if err != nil {
		log.Fatal(err)
	}
	<-done
	fmt.Println("detected online:", <-detected)
	fmt.Println("final:", res.VerdictList())
	// Output:
	// detected online: T
	// final: [T]
}

// e0proc returns the owning process of a trace (its first event's Proc).
func e0proc(tr *decentmon.Trace) int { return tr.Events[0].Proc }
