package core

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/transport"
)

// RunConfig describes one decentralized monitoring run over a recorded
// execution.
type RunConfig struct {
	// Traces is the execution to monitor (Run only; RunStream takes an
	// event source instead).
	Traces *dist.TraceSet
	// Automaton is the LTL3 monitor replicated at every process.
	Automaton *automaton.Monitor
	// FinalizeFull extends surviving views to the final cut (default true
	// via Run; set SkipFinalize to disable).
	SkipFinalize bool
	// Network supplies the transport; if nil an in-memory network without
	// latency is created.
	Network transport.Network
	// Pace > 0 replays events in real time scaled by this factor (e.g.
	// Pace = 0.001 plays one simulated second per millisecond); 0 replays
	// as fast as possible.
	Pace float64
	// MaxBoxNodes bounds each monitor's single-region exploration.
	MaxBoxNodes int
	// ExactBoxes forces the full-width exact box DP, disabling support-
	// process slicing (see Config.ExactBoxes).
	ExactBoxes bool
	// MaxLag bounds each monitor's retained-knowledge backlog before the
	// feeder blocks (backpressure); 0 selects DefaultMaxLag, negative
	// disables. See SessionConfig.MaxLag.
	MaxLag int
	// Shards is ignored, and kept for the benchmark harness only; see
	// SessionConfig.Shards.
	Shards int
}

// RunResult aggregates the outcome of a run.
type RunResult struct {
	// Verdicts is the union of all monitors' verdict sets — the object the
	// problem statement (Chapter 3) compares against the oracle.
	Verdicts map[automaton.Verdict]bool
	// PerMonitor holds each monitor's own verdict set.
	PerMonitor []map[automaton.Verdict]bool
	// FinalStates is the union of automaton states reported by monitors.
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

// feedChunk is the unpaced replay's feeding batch size: events per process for
// Run, events per window for RunStream. Kept modest: a chunk parks invisibly in
// the monitor's feed queue until absorbed, so oversized chunks would loosen the
// backpressure gate's view of the backlog (a 32-event stream window reads
// knowledge peaks past TestKnowledgePeakBoundedUnpaced's ceiling).
const feedChunk = 16

// session builds the online Session a replay adapter feeds.
func session(ctx context.Context, cfg RunConfig, pm *dist.PropMap, n int, init dist.GlobalState) (*Session, error) {
	if n == 0 {
		return nil, fmt.Errorf("core: empty trace set")
	}
	return NewSession(ctx, SessionConfig{
		N:            n,
		Automaton:    cfg.Automaton,
		Props:        pm,
		Init:         init,
		SkipFinalize: cfg.SkipFinalize,
		Network:      cfg.Network,
		MaxBoxNodes:  cfg.MaxBoxNodes,
		ExactBoxes:   cfg.ExactBoxes,
		MaxLag:       cfg.MaxLag,
	})
}

// Run replays the trace set through n monitors connected by the network and
// returns the union verdict set plus overhead metrics. It is the
// programmatic equivalent of deploying the paper's monitors on n devices
// and feeding them the generated trace files — a thin replay adapter over
// the online Session engine.
func Run(cfg RunConfig) (*RunResult, error) { return RunContext(context.Background(), cfg) }

// RunContext is Run with cancellation: cancelling ctx aborts the replay and
// the monitors promptly.
func RunContext(ctx context.Context, cfg RunConfig) (*RunResult, error) {
	ts := cfg.Traces
	if ts == nil {
		return nil, fmt.Errorf("core: no trace set (use RunStream for event sources)")
	}
	s, err := session(ctx, cfg, ts.Props, ts.N(), ts.InitialState())
	if err != nil {
		return nil, err
	}
	// Feed each monitor its process's events concurrently, optionally paced
	// by the recorded timestamps — one feeder goroutine per device, as in a
	// real deployment.
	feedErrs := make([]error, ts.N())
	var feedWG sync.WaitGroup
	for i, tr := range ts.Traces {
		feedWG.Add(1)
		go func(i int, tr *dist.Trace) {
			defer feedWG.Done()
			if cfg.Pace <= 0 {
				// Unpaced replay: feed in chunks, amortizing the admission
				// gate and the monitor handoff (verdict-set equivalent to
				// per-event feeding; the chunk only changes arrival grouping).
				// A chunk of one process is one FeedRun group.
				var fs FeedScratch
				evs := tr.Events
				for len(evs) > 0 {
					k := min(feedChunk, len(evs))
					if err := s.FeedRun(&fs, evs[:k]); err != nil {
						feedErrs[i] = err
						return
					}
					evs = evs[k:]
				}
				feedErrs[i] = s.End(i)
				return
			}
			prev := 0.0
			for _, e := range tr.Events {
				pace(cfg.Pace, e.Time, &prev)
				if err := s.Feed(e); err != nil {
					feedErrs[i] = err
					return
				}
			}
			feedErrs[i] = s.End(i)
		}(i, tr)
	}
	feedWG.Wait()
	return finish(s, firstError(feedErrs))
}

// RunStream is Run over an event stream: events arrive in global timestamp
// order from a single source (e.g. a dist.TraceReader over a ".jsonl" file)
// and are dispatched to the owning processes' monitors a window of at most
// feedChunk at a time (Session.FeedRun; one event at a time when paced), so
// the trace never needs to be materialized. Verdict sets are identical to
// Run on the equivalent trace set. cfg.Traces is ignored.
func RunStream(src dist.EventSource, cfg RunConfig) (*RunResult, error) {
	return RunStreamContext(context.Background(), src, cfg)
}

// RunStreamContext is RunStream with cancellation.
func RunStreamContext(ctx context.Context, src dist.EventSource, cfg RunConfig) (*RunResult, error) {
	if src == nil {
		return nil, fmt.Errorf("core: nil event source")
	}
	s, err := session(ctx, cfg, src.Props(), src.N(), src.Init())
	if err != nil {
		return nil, err
	}
	// Read a window, feed it (FeedRun): the admission gate and the monitors'
	// wake-ups are paid per window and process, not per event. A paced replay
	// keeps a window of one: an event is due when its timestamp says.
	size := feedChunk
	if cfg.Pace > 0 {
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
				// Stop reading but still feed what was read and terminate
				// every monitor with the contiguous prefix it has: the run
				// winds down cleanly and a read error is reported after the
				// monitors drain.
				readErr = err
				break
			}
			pace(cfg.Pace, e.Time, &prev)
			window = append(window, e)
		}
		if err := s.FeedRun(&fs, window); err != nil {
			readErr = err
		}
	}
	if readErr == io.EOF {
		readErr = nil
	}
	return finish(s, readErr)
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

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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
