// Package gauntlet is the cell list of the cross-engine conformance gauntlet:
// which case-study property, at which size and arity, over which communication
// topology, generated from which seed. The root package's tests run every
// engine of the repository over these cells against the oracle family;
// internal/server's run the same cells through a dlmond that is killed and
// recovered half-way. One list, so the two cannot drift apart.
package gauntlet

import (
	"fmt"

	"decentmon/internal/dist"
)

// Cell is one cell of the matrix.
type Cell struct {
	Prop  string
	N     int
	Arity int // < N uses the reduced-arity instance + sliced oracle
	Topo  dist.Topology
	Seed  int64
	// QDrift lowers the q truth probability so the □-family properties
	// violate (exercises ⊥ agreement at large n).
	QDrift bool
}

// Cells returns the matrix; short trims it to two topologies and n ≤ 8.
func Cells(short bool) []Cell {
	topos := []dist.Topology{dist.TopoUniform, dist.TopoRing, dist.TopoStar, dist.TopoBroadcast, dist.TopoClustered}
	if short {
		topos = []dist.Topology{dist.TopoUniform, dist.TopoRing}
	}
	var cells []Cell
	props := []string{"A", "B", "C", "D", "E", "F"}
	for _, n := range []int{2, 5} {
		for _, p := range props {
			for _, topo := range topos {
				cells = append(cells, Cell{Prop: p, N: n, Arity: n, Topo: topo, Seed: 2015})
			}
		}
	}
	n8props, n8topos := props, topos
	if short {
		n8props, n8topos = []string{"B", "D"}, []dist.Topology{dist.TopoRing}
	}
	for _, p := range n8props {
		for _, topo := range n8topos {
			cells = append(cells, Cell{Prop: p, N: 8, Arity: 3, Topo: topo, Seed: 2015})
		}
	}
	if !short {
		// Star and broadcast hubs make every clock causally dense at n=16
		// (the search boxes then span most of the 16-dimensional lattice),
		// and uniform unicast at that size costs ~1.5s per engine run; those
		// three topologies are exercised at n ≤ 8, n=16 pins ring and
		// clustered.
		for _, p := range props {
			for _, topo := range []dist.Topology{dist.TopoRing, dist.TopoClustered} {
				cells = append(cells, Cell{Prop: p, N: 16, Arity: 3, Topo: topo, Seed: 2015})
			}
		}
		// Violation cells: q drifts false, the until obligations break, the
		// engines must all report ⊥.
		for _, p := range []string{"D", "F"} {
			for _, n := range []int{8, 16} {
				cells = append(cells, Cell{Prop: p, N: n, Arity: 3, Topo: dist.TopoRing, Seed: 2015, QDrift: true})
			}
		}
	}
	return cells
}

// Gen is the workload regime of the cell. Large-n cells keep the
// searches resolvable: high truth probabilities and moderate communication
// keep the goal cuts causally thin, which is what bounds the monitors' box
// explorations (see the calibration notes in README).
func (c Cell) Gen() dist.GenConfig {
	cfg := dist.GenConfig{
		N: c.N, InternalPerProc: 6,
		EvtMu: 3, EvtSigma: 1, CommMu: 3, CommSigma: 1,
		Topology: c.Topo, PlantGoal: true, Seed: c.Seed,
	}
	if c.Topo == dist.TopoClustered {
		cfg.Clusters = 2
		if c.N >= 8 {
			cfg.Clusters = 4
		}
		cfg.CrossProb = 0.1
	}
	if c.N >= 8 {
		cfg.InternalPerProc = 4
		cfg.CommMu = 6
	}
	switch {
	case c.QDrift:
		cfg.TrueProbs = map[string]float64{"p": 0.9, "q": 0.35}
		cfg.InitTrue = []string{"p"}
	case c.Prop == "B" || c.Prop == "E":
		cfg.TrueProbs = map[string]float64{"p": 0.6, "q": 0.5}
		if c.N >= 8 {
			cfg.TrueProbs = map[string]float64{"p": 0.9, "q": 0.8}
		}
	default:
		cfg.TrueProbs = map[string]float64{"p": 0.9, "q": 0.9}
		cfg.InitTrue = []string{"p", "q"}
	}
	return cfg
}

// Name renders the cell as a subtest name.
func (c Cell) Name() string {
	name := fmt.Sprintf("%s/n%d/a%d/%v/seed%d", c.Prop, c.N, c.Arity, c.Topo, c.Seed)
	if c.QDrift {
		name += "/qdrift"
	}
	return name
}
