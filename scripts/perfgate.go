//go:build ignore

// perfgate is the performance gate over the committed BENCH records: it
// compares a freshly measured document (the CI bench job's output) against
// the committed one at the repository root and fails the build when the
// trajectory regresses. Which record it was handed shows in the document: one
// with a "long_session" object is BENCH_dlmond.json, anything else
// BENCH_engine.json.
//
// BENCH_dlmond.json, two checks: events/s of one long session without a state
// directory, and with one, may each not fall below longSessionFactor times
// the committed figure. Their quotient, durable_ratio, is recorded and
// printed but not gated: it measures how much of a session is spent on
// durability, so it falls whenever the plain path gets faster — twice with
// both sides up — and a gate on it fails the change that earned the speed-up.
// Gating each side catches what the ratio was there for (a barrier or an
// encode going back onto the cadence path halves the durable side) and a
// regression of the plain path, which the ratio would have rewarded. Printed
// beside it, likewise not gated: durable_bytes_per_event, what the durable
// side wrote to make the session recoverable over the events it monitored, and
// recovery_ms, a restart over the whole session's state.
//
// BENCH_engine.json, four checks:
//
//   - the n=16 ring speedup over the pinned pre-overhaul baseline must stay
//     above a floor (the hot-path overhaul's headline number, with headroom
//     for runner noise);
//   - two_core_ratio_n16_ring — that cell's events/s at GOMAXPROCS 2 over
//     GOMAXPROCS 1, both taken by the fresh run itself — must stay above
//     twoCoreFloor: a short session is mostly hand-offs between goroutines,
//     and a second core that makes it much slower is a hand-off that got more
//     expensive. A ratio inside one run does not depend on how fast the runner
//     is. A fresh record without one (a single-CPU runner skips the cell and
//     says so) is reported, not failed;
//   - no cell present in both documents may regress by more than the
//     allowed factor against its committed events/s;
//   - no such cell may allocate more than allocFactor times its committed
//     heap objects per event.
//
// Cells only present in one document are reported but do not fail the gate
// (the sweep plan grows over PRs). The throughput thresholds are deliberately
// loose: they catch order-of-magnitude losses — a box-strategy regression —
// not run-to-run jitter on shared CI runners. Allocation counts do not depend
// on how fast the runner is and repeat to a few percent (the remainder is
// scheduling: how many messages a run happens to coalesce), so their
// threshold is tight enough to catch per-event garbage coming back into one
// layer.
//
// Usage: go run scripts/perfgate.go <fresh.json> <committed.json>
//
// Stdlib only, like the rest of the repo's tooling.
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

const (
	// speedupFloor is the minimum acceptable n=16 ring speedup over the
	// pinned pre-overhaul baseline (committed trajectory sits above 30x).
	speedupFloor = 20.0
	// twoCoreFloor is the minimum acceptable two_core_ratio_n16_ring. Single
	// pairs read 0.67–0.83 on a shared two-core box and the median of three
	// that the record takes 0.82 and 0.86; 0.65 is what the short-session
	// replay read before messages stopped crossing a relay goroutine, which is
	// the regression this check exists to catch.
	twoCoreFloor = 0.65
	// regressFactor is the maximum acceptable per-cell slowdown against the
	// committed record.
	regressFactor = 3.0
	// allocFactor is the maximum acceptable per-cell growth of allocs/event
	// against the committed record.
	allocFactor = 1.5
	// longSessionFactor is the minimum acceptable events/s of either side of
	// the dlmond long-session pair as a fraction of the committed one: the
	// pair is the median of five alternating runs on one box, and repeats
	// far closer than the engine sweep's single runs.
	longSessionFactor = 0.8
)

type cell struct {
	Workload       string  `json:"workload"`
	EventsPerSec   float64 `json:"events_per_sec"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
}

type doc struct {
	SpeedupN16Ring      float64 `json:"speedup_n16_ring"`
	TwoCoreRatioN16Ring float64 `json:"two_core_ratio_n16_ring"`
	Cells               []*cell `json:"cells"`
	LongSession         *struct {
		EventsPerSec        float64 `json:"events_per_sec"`
		DurableEventsPerSec float64 `json:"durable_events_per_sec"`
		DurableRatio        float64 `json:"durable_ratio"`
		// Absent (zero) in records written before sessions had input logs.
		DurableBytesPerEvent float64 `json:"durable_bytes_per_event"`
		RecoveryMs           float64 `json:"recovery_ms"`
	} `json:"long_session"`
}

// gateDlmond checks a BENCH_dlmond.json pair and reports whether it failed.
func gateDlmond(fresh, committed *doc) bool {
	was := committed.LongSession
	if fresh.LongSession == nil {
		fmt.Fprintln(os.Stderr, "perfgate: FAIL fresh dlmond record has no long_session pair")
		return true
	}
	now := fresh.LongSession
	failed := false
	for _, side := range []struct {
		name     string
		now, was float64
	}{
		{"events_per_sec", now.EventsPerSec, was.EventsPerSec},
		{"durable_events_per_sec", now.DurableEventsPerSec, was.DurableEventsPerSec},
	} {
		floor := longSessionFactor * side.was
		if side.now < floor {
			fmt.Fprintf(os.Stderr, "perfgate: FAIL long_session %s %.0f below %.0f = %.1fx the committed %.0f\n",
				side.name, side.now, floor, longSessionFactor, side.was)
			failed = true
			continue
		}
		fmt.Printf("perfgate: long_session %s %.0f (committed %.0f, floor %.0f)\n", side.name, side.now, side.was, floor)
	}
	fmt.Printf("perfgate: durable_ratio %.3f (committed %.3f; recorded, not gated)\n", now.DurableRatio, was.DurableRatio)
	fmt.Printf("perfgate: durable_bytes_per_event %.1f (committed %.1f), recovery_ms %.1f (committed %.1f); recorded, not gated\n",
		now.DurableBytesPerEvent, was.DurableBytesPerEvent, now.RecoveryMs, was.RecoveryMs)
	return failed
}

func load(path string) (*doc, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d doc
	if err := json.Unmarshal(buf, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: perfgate <fresh.json> <committed.json>")
		os.Exit(2)
	}
	fresh, err := load(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(2)
	}
	committed, err := load(os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(2)
	}

	if committed.LongSession != nil {
		if gateDlmond(fresh, committed) {
			os.Exit(1)
		}
		fmt.Println("perfgate: OK")
		return
	}

	failed := false
	if fresh.SpeedupN16Ring < speedupFloor {
		fmt.Fprintf(os.Stderr, "perfgate: FAIL n=16 ring speedup %.1fx below the %.0fx floor\n",
			fresh.SpeedupN16Ring, speedupFloor)
		failed = true
	} else {
		fmt.Printf("perfgate: n=16 ring speedup %.1fx (floor %.0fx)\n", fresh.SpeedupN16Ring, speedupFloor)
	}

	switch r := fresh.TwoCoreRatioN16Ring; {
	case r == 0:
		fmt.Println("perfgate: two_core_ratio_n16_ring not measured by the fresh run (single-CPU runner); not gated")
	case r < twoCoreFloor:
		fmt.Fprintf(os.Stderr, "perfgate: FAIL n=16 ring at 2 procs runs at %.2fx its 1-proc events/s, below the %.2f floor (committed %.2f)\n",
			r, twoCoreFloor, committed.TwoCoreRatioN16Ring)
		failed = true
	default:
		fmt.Printf("perfgate: two_core_ratio_n16_ring %.2f (committed %.2f, floor %.2f)\n", r, committed.TwoCoreRatioN16Ring, twoCoreFloor)
	}

	old := map[string]*cell{}
	for _, c := range committed.Cells {
		old[c.Workload] = c
	}
	seen := map[string]bool{}
	for _, c := range fresh.Cells {
		seen[c.Workload] = true
		was, ok := old[c.Workload]
		if !ok {
			fmt.Printf("perfgate: new cell %s at %.0f events/s, %.1f allocs/event (no committed reference)\n", c.Workload, c.EventsPerSec, c.AllocsPerEvent)
			continue
		}
		regressed := false
		if was.EventsPerSec > 0 && c.EventsPerSec < was.EventsPerSec/regressFactor {
			fmt.Fprintf(os.Stderr, "perfgate: FAIL %s regressed %.1fx (%.0f -> %.0f events/s, allowed factor %.0f)\n",
				c.Workload, was.EventsPerSec/c.EventsPerSec, was.EventsPerSec, c.EventsPerSec, regressFactor)
			regressed = true
		}
		if was.AllocsPerEvent > 0 && c.AllocsPerEvent > was.AllocsPerEvent*allocFactor {
			fmt.Fprintf(os.Stderr, "perfgate: FAIL %s allocates %.1fx more (%.1f -> %.1f allocs/event, allowed factor %.1f)\n",
				c.Workload, c.AllocsPerEvent/was.AllocsPerEvent, was.AllocsPerEvent, c.AllocsPerEvent, allocFactor)
			regressed = true
		}
		if regressed {
			failed = true
			continue
		}
		fmt.Printf("perfgate: %s %.0f events/s (committed %.0f), %.1f allocs/event (committed %.1f)\n",
			c.Workload, c.EventsPerSec, was.EventsPerSec, c.AllocsPerEvent, was.AllocsPerEvent)
	}
	for _, c := range committed.Cells {
		if !seen[c.Workload] {
			fmt.Printf("perfgate: committed cell %s absent from the fresh sweep\n", c.Workload)
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("perfgate: OK")
}
