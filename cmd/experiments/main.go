// experiments regenerates the tables and figures of the paper's evaluation
// (Chapter 5) on the simulated device network.
//
// Usage:
//
//	experiments -exp table5.1
//	experiments -exp fig5.4 -events 15 -seeds 3
//	experiments -exp all
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"decentmon/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: table5.1, fig5.1, fig5.2, fig5.4, fig5.5, fig5.6, fig5.7, fig5.8, fig5.9, baselines, oracle, engine, dlmond, all")
		events     = flag.Int("events", 15, "internal events per process")
		seeds      = flag.Int("seeds", 3, "replications to average")
		pace       = flag.Float64("pace", 0, "real-time replay scale for delay metrics (e.g. 2e-4)")
		oracleJSON = flag.String("oracle-json", "", "with -exp oracle: also write the sweep as JSON to this file (the CI BENCH_oracle.json record)")
		engineJSON = flag.String("engine-json", "", "with -exp engine: also write the sweep as JSON to this file (the CI BENCH_engine.json record)")
		engineWall = flag.Duration("engine-wall", 0, "with -exp engine: minimum measured wall time per cell (default 200ms)")
		dlmondJSON = flag.String("dlmond-json", "", "with -exp dlmond: also write the sweep as JSON to this file (the CI BENCH_dlmond.json record)")
		dlmondWall = flag.Duration("dlmond-wall", 0, "with -exp dlmond: minimum measured wall time per concurrency cell (default 200ms)")
	)
	flag.Parse()

	cfg := experiments.Config{InternalPerProc: *events, Pace: *pace}
	for s := int64(1); s <= int64(*seeds); s++ {
		cfg.Seeds = append(cfg.Seeds, s)
	}

	run := func(name string) {
		switch name {
		case "table5.1", "fig5.1":
			rows, err := experiments.Table51()
			check(err)
			fmt.Println("== Table 5.1 / Fig 5.1: transitions per automaton (paper-shape construction) ==")
			fmt.Println(experiments.RenderTable51(rows))
		case "fig5.2", "fig5.3":
			figs, err := experiments.Automata(2)
			check(err)
			fmt.Println("== Figs 5.2/5.3: monitor automata (DOT, 2 processes) ==")
			keys := make([]string, 0, len(figs))
			for k := range figs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Printf("--- property %s ---\n%s\n", k, figs[k])
			}
		case "fig5.4":
			cells, err := experiments.Sweep([]string{"A", "B", "C"}, cfg)
			check(err)
			fmt.Println("== Fig 5.4: messages overhead, properties A, B, C ==")
			fmt.Println(experiments.RenderCells(cells))
		case "fig5.5":
			cells, err := experiments.Sweep([]string{"D", "E", "F"}, cfg)
			check(err)
			fmt.Println("== Fig 5.5: messages overhead, properties D, E, F ==")
			fmt.Println(experiments.RenderCells(cells))
		case "fig5.6", "fig5.7", "fig5.8":
			c := cfg
			if name == "fig5.6" && c.Pace == 0 {
				c.Pace = 2e-4 // delay-time % needs a real-time replay
			}
			cells, err := experiments.Sweep([]string{"A", "B", "C", "D", "E", "F"}, c)
			check(err)
			switch name {
			case "fig5.6":
				fmt.Println("== Fig 5.6: delay time percentage per global view (paced replay) ==")
			case "fig5.7":
				fmt.Println("== Fig 5.7: delayed events ==")
			default:
				fmt.Println("== Fig 5.8: memory overhead (total global views) ==")
			}
			fmt.Println(experiments.RenderCells(cells))
		case "fig5.9":
			cells, err := experiments.CommFrequency(cfg)
			check(err)
			fmt.Println("== Fig 5.9: communication frequency sweep (property C, 4 processes) ==")
			fmt.Println(experiments.RenderCommFreq(cells))
		case "oracle":
			cells, err := experiments.OracleSweep(cfg)
			check(err)
			fmt.Println("== Oracle cost: exact vs sliced vs sampling, properties B and D ==")
			fmt.Println(experiments.RenderOracleCells(cells))
			if *oracleJSON != "" {
				buf, err := json.MarshalIndent(cells, "", "  ")
				check(err)
				check(os.WriteFile(*oracleJSON, append(buf, '\n'), 0o644))
				fmt.Printf("wrote %s (%d rows)\n", *oracleJSON, len(cells))
			}
		case "engine":
			doc, err := experiments.EngineSweep(*engineWall)
			check(err)
			fmt.Println("== Engine throughput: decentralized detection runs across sizes and topologies ==")
			fmt.Println(experiments.RenderEngineCells(doc))
			if *engineJSON != "" {
				buf, err := json.MarshalIndent(doc, "", "  ")
				check(err)
				check(os.WriteFile(*engineJSON, append(buf, '\n'), 0o644))
				fmt.Printf("wrote %s (%d cells)\n", *engineJSON, len(doc.Cells))
			}
		case "dlmond":
			doc, err := experiments.DlmondSweep(*dlmondWall)
			check(err)
			fmt.Println("== dlmond session server: full lifecycles/s over loopback TCP ==")
			fmt.Println(experiments.RenderDlmondCells(doc))
			if *dlmondJSON != "" {
				buf, err := json.MarshalIndent(doc, "", "  ")
				check(err)
				check(os.WriteFile(*dlmondJSON, append(buf, '\n'), 0o644))
				fmt.Printf("wrote %s (%d cells)\n", *dlmondJSON, len(doc.Cells))
			}
		case "baselines":
			fmt.Println("== Baselines: decentralized vs centralized; replicated broadcast's message count in closed form ==")
			var rows []*experiments.BaselineRow
			for _, p := range []string{"B", "D"} {
				for _, n := range []int{3, 4} {
					row, err := experiments.Baselines(p, n, 1, cfg)
					check(err)
					rows = append(rows, row)
				}
			}
			fmt.Println(experiments.RenderBaselines(rows))
		default:
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", name)
			os.Exit(2)
		}
	}

	if *exp == "all" {
		for _, name := range []string{"table5.1", "fig5.4", "fig5.5", "fig5.7", "fig5.8", "fig5.9", "baselines"} {
			run(name)
			fmt.Println()
		}
		return
	}
	run(*exp)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
