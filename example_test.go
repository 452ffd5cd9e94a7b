package decentmon_test

import (
	"fmt"
	"log"

	"decentmon"
)

// Example shows the replay quickstart: compile an LTL3 property, generate a
// reproducible distributed execution, and monitor it with one decentralized
// monitor per process.
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

	res, err := decentmon.Run(spec, traces)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.VerdictList())
	// Output: [T]
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
// so the first monitor's backlog passes the lag bound and the feeder is
// throttled, while the subscriber keeps receiving detections as they happen —
// the verdict channel is buffered for every possible event, so a slow
// subscriber can never wedge the monitors or the throttled feeder.
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
	// events, so while the first is fed alone its monitor's backlog passes
	// the lag bound; with the peer silent nothing can be collected, and the
	// gate's grace window lets the rest through rather than deadlock.
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
