// The §5.1 case study on the simulated device network: five "devices" (the
// paper used 2× iPhone 5s, iPad mini 3, iPad Air 2 and an iPhone 6
// simulator over WiFi), each running the trace-driven program with two
// propositions p and q, monitored for the six evaluation properties A–F.
//
// The WiFi network is replaced by the in-memory transport, which adds no
// delay of its own; the device timing is the program's: events follow the
// paper's Evtµ=3s/Evtσ=1s and Commµ=3s/Commσ=1s, and the paced run replays
// them at 2000× speed. (Adversarial message delays are the monitor tests'
// seeded schedules, not a property of this network.)
package main

import (
	"fmt"
	"log"
	"time"

	"decentmon"
	"decentmon/internal/experiments"
	"decentmon/internal/props"
)

func main() {
	const n = 5
	fmt.Printf("simulated device network: %d devices, in-memory transport\n\n", n)

	for _, name := range props.Names {
		formula, err := decentmon.CaseStudyProperty(name, n)
		if err != nil {
			log.Fatal(err)
		}
		spec, err := decentmon.Compile(formula, decentmon.PerProcessProps(n, "p", "q"),
			decentmon.PaperShape())
		if err != nil {
			log.Fatal(err)
		}
		total, outgoing, self := spec.Automaton().CountTransitions()

		// The paper's designed traces for this property family.
		cfg := experiments.Config{
			Ns: []int{n}, Seeds: []int64{2016},
			InternalPerProc: 12,
			EvtMu:           3, EvtSigma: 1,
			CommMu: 3, CommSigma: 1,
		}
		cell, err := experiments.Measure(name, n, cfg)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("property %s: %s\n", name, formula)
		fmt.Printf("  automaton : %d states, %d transitions (%d outgoing, %d self-loop)\n",
			spec.Automaton().NumStates(), total, outgoing, self)
		fmt.Printf("  events=%.0f  monitor msgs=%.0f  global views=%.0f  verdicts={%s}\n\n",
			cell.Events, cell.Messages, cell.GlobalViews, cell.Verdicts)
	}

	// One full paced run for property B, measuring detection latency the way
	// Fig. 5.6 does.
	formula, _ := decentmon.CaseStudyProperty("B", n)
	spec := decentmon.MustCompile(formula, decentmon.PerProcessProps(n, "p", "q"))
	traces := decentmon.Generate(decentmon.GenConfig{
		N: n, InternalPerProc: 10,
		EvtMu: 3, EvtSigma: 1, CommMu: 3, CommSigma: 1,
		TrueProbs: map[string]float64{"p": 0.3, "q": 0.3},
		PlantGoal: true, Seed: 7,
	})
	start := time.Now()
	res, err := decentmon.Run(spec, traces, decentmon.WithPace(5e-4))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("paced run of property B (%.0f× speed):\n", 1/5e-4)
	fmt.Printf("  verdicts %v, first conclusive after %v, total wall %v\n",
		res.VerdictList(), res.FirstConclusive, time.Since(start).Round(time.Millisecond))
}
