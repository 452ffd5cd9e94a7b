package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/transport"
)

// RunConfig describes one decentralized monitoring run over a recorded
// execution.
type RunConfig struct {
	// Traces is the execution to monitor (Run only; RunStreamContext takes
	// an event source instead).
	Traces *dist.TraceSet
	// Automaton is the LTL3 monitor replicated at every process.
	Automaton *automaton.Monitor
	// SkipFinalize disables extending surviving views to the final cut.
	SkipFinalize bool
	// Network supplies the transport; if nil an in-memory network is
	// created.
	Network transport.Network
	// Pace > 0 replays events in real time scaled by this factor (e.g.
	// Pace = 0.001 plays one simulated second per millisecond); 0 replays
	// as fast as possible.
	Pace float64
	// Shards is ignored, and kept for the benchmark harness only; see
	// SessionConfig.Shards.
	Shards int
}

// RunResult aggregates the outcome of a run.
type RunResult struct {
	// Verdicts is the union of all monitors' verdict sets — the object the
	// problem statement (Chapter 3) compares against the oracle.
	Verdicts map[automaton.Verdict]bool
	// FinalStates is the union of automaton states reported by monitors:
	// conclusive states where a path concluded, settled states where a path
	// settled (its later states are settled too, and not reported), and the
	// states finalization reaches at the final cut.
	FinalStates map[int]bool
	// Metrics per monitor, in process order.
	Metrics []Metrics
	// NetMessages / NetBytes are transport-level totals (monitoring
	// overhead, Figs. 5.4/5.5).
	NetMessages, NetBytes int64
	// FirstConclusive is the wall-clock delay from run start until some
	// monitor first detected a conclusive verdict (0 if none).
	FirstConclusive time.Duration
	// Wall is the total wall-clock duration of the run.
	Wall time.Duration
	// ProgramWall is the wall-clock time until the last program event was
	// fed; Wall − ProgramWall is the monitors' drain time (Fig. 5.6).
	ProgramWall time.Duration
}

// VerdictList returns the union verdict set as a sorted slice.
func (r *RunResult) VerdictList() []automaton.Verdict {
	var out []automaton.Verdict
	for _, v := range []automaton.Verdict{automaton.Top, automaton.Bottom, automaton.Unknown} {
		if r.Verdicts[v] {
			out = append(out, v)
		}
	}
	return out
}

// FeedWindow is the most events a feeder hands over in one FeedRun: the
// unpaced replay here and dlmond's Ingest and input-log replay all read this
// many before they feed. A FeedRun costs one hand-off and one monitor wake-up
// per process the window has events of, so a wide window pays them for many
// events at once. Backpressure is counted in events: a monitor's feed queue
// holds feedQueue items, so a FeedRun feeder runs at most
// feedQueue × FeedWindow = 512 events of a process ahead of its monitor
// (PERFORMANCE.md, "Wide hand-offs").
const FeedWindow = 128

// Run replays the trace set through n monitors connected by the network and
// returns the union verdict set plus overhead metrics. It is the
// programmatic equivalent of deploying the paper's monitors on n devices
// and feeding them the generated trace files: RunStreamContext over the set's
// timestamp-order stream (dist.TraceSet.Stream).
func Run(cfg RunConfig) (*RunResult, error) {
	if cfg.Traces == nil {
		return nil, fmt.Errorf("core: no trace set (use RunStreamContext for event sources)")
	}
	return RunStreamContext(context.Background(), cfg.Traces.Stream(), cfg)
}

// RunStreamContext is Run over an event stream, with cancellation: events
// arrive in global timestamp order from a single source (e.g. a
// dist.TraceReader over a ".jsonl" file) and are dispatched to the owning
// processes' monitors a window of at most FeedWindow events at a time
// (Session.FeedRun; one event at a time when paced), so the trace never needs
// to be materialized. cfg.Traces is ignored.
func RunStreamContext(ctx context.Context, src dist.EventSource, cfg RunConfig) (*RunResult, error) {
	if src == nil {
		return nil, fmt.Errorf("core: nil event source")
	}
	s, err := NewSession(ctx, SessionConfig{
		N:            src.N(),
		Automaton:    cfg.Automaton,
		Props:        src.Props(),
		Init:         src.Init(),
		SkipFinalize: cfg.SkipFinalize,
		Network:      cfg.Network,
	})
	if err != nil {
		return nil, err
	}
	return finish(s, feedStream(s, src, cfg.Pace))
}

// feedStream reads src to its end into s, a window at a time, and returns
// the first read or feed error (nil at io.EOF); it ends no process. Each
// window is one FeedRun: the hand-offs and the monitors' wake-ups are paid
// per window and process, not per event. A paced replay keeps a window of
// one: an event is due when its timestamp says.
func feedStream(s *Session, src dist.EventSource, paceFactor float64) error {
	size := FeedWindow
	if paceFactor > 0 {
		size = 1
	}
	window := make([]*dist.Event, 0, size)
	var fs FeedScratch
	prev := 0.0
	var readErr error
	for readErr == nil {
		window = window[:0]
		for len(window) < cap(window) {
			e, err := src.Next()
			if err != nil {
				// Stop reading but still feed what was read: the caller
				// terminates every monitor with the contiguous prefix it
				// has, so the run winds down cleanly and a read error is
				// reported after the monitors drain.
				readErr = err
				break
			}
			pace(paceFactor, e.Time, &prev)
			window = append(window, e)
		}
		if err := s.FeedRun(&fs, window); err != nil {
			readErr = err
		}
	}
	if readErr == io.EOF {
		return nil
	}
	return readErr
}

// finish closes the session (ending any process the feeder did not reach)
// and reconciles feeder and monitor errors: a monitor failure or session
// cancellation wins, then the feeder's own error.
func finish(s *Session, feedErr error) (*RunResult, error) {
	res, err := s.Close()
	if err != nil {
		return nil, err
	}
	if feedErr != nil {
		return nil, fmt.Errorf("core: feeding monitors: %w", feedErr)
	}
	return res, nil
}

// pace sleeps the scaled gap between the previous and current simulated
// timestamps (no-op when factor <= 0).
func pace(factor, at float64, prev *float64) {
	if factor <= 0 {
		return
	}
	d := time.Duration((at - *prev) * factor * float64(time.Second))
	if d > 0 {
		time.Sleep(d)
	}
	*prev = at
}
