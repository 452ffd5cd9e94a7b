package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"decentmon/internal/core"
	"decentmon/internal/dist"
	"decentmon/internal/transport"
)

// spanBatch is how many events one decode or feed span covers: spans are
// recorded per batch, never per event.
const spanBatch = 256

// op is one completed session or replay.
type op struct {
	events int
	trace  int // index of the pool trace the session replayed
	// dur runs from the first byte handed to the program (closed loop) or
	// from the session's due time (open loop) to its result.
	dur time.Duration
	// verdictLat runs from the send of the last event contributing to the
	// verdict to the verdict's arrival (open loop); a closed-loop replay is
	// a batch job, whose latency is input to complete result: dur.
	verdictLat time.Duration
	// late is how long after its due time an open-loop session started.
	late time.Duration
	// failed ops erred or mismatched their reference; why says which.
	// mismatch marks a wrong verdict set specifically.
	failed   bool
	mismatch bool
	why      string
	// slow marks an open-loop session that missed a service limit. It says
	// the machine or the server fell behind the schedule, not that the
	// session went wrong: a slow session stays in the latency metrics and is
	// not a failed operation.
	slow bool
}

// window is one measured run of a workload.
type window struct {
	ops    []op
	wall   time.Duration // measured wall time
	cpu    time.Duration // CPU of the system under test over the window
	rssMB  float64       // 90th percentile of the system's sampled RSS
	hwmMB  float64       // VmHWM of the system under test at the end
	stolen float64       // share of the host's CPU time stolen during the window
	slices []float64     // events/s of every slice
	// perTrace marks a closed loop sliced one replay at a time: its typical
	// values are taken per pool trace first, then averaged over the pool, so
	// that every trace weighs the same however often it was replayed.
	perTrace bool

	// What the engine reported, summed over in-process sessions.
	engine    core.Metrics
	netMsgs   int64
	netBytes  int64
	firstConc []time.Duration
	closeDur  []time.Duration

	// Go heap traffic of this process over the window (in-process only).
	mallocs, allocBytes uint64

	// Transport decorator totals (traced in-process runs only).
	sendNanos, sends int64
}

func (w *window) events() int {
	n := 0
	for _, o := range w.ops {
		n += o.events
	}
	return n
}

func (w *window) failed() (failed, mismatched int) {
	for _, o := range w.ops {
		if o.failed {
			failed++
		}
		if o.mismatch {
			mismatched++
		}
	}
	return
}

func (w *window) slow() int {
	n := 0
	for _, o := range w.ops {
		if o.slow {
			n++
		}
	}
	return n
}

func (w *window) firstFailure() string {
	for _, o := range w.ops {
		if o.failed {
			return o.why
		}
	}
	return ""
}

// typical is the representative value of f over the window's good
// operations: their median, or with perTrace the mean over pool traces of
// each trace's median.
func (w *window) typical(f func(op) float64) float64 {
	if !w.perTrace {
		return median(w.values(f))
	}
	byTrace := map[int][]float64{}
	for _, o := range w.ops {
		if !o.failed {
			byTrace[o.trace] = append(byTrace[o.trace], f(o))
		}
	}
	sum := 0.0
	for _, xs := range byTrace {
		sum += median(xs)
	}
	return ratio(sum, float64(len(byTrace)))
}

// values lists f over the window's good operations.
func (w *window) values(f func(op) float64) []float64 {
	out := make([]float64, 0, len(w.ops))
	for _, o := range w.ops {
		if !o.failed {
			out = append(out, f(o))
		}
	}
	return out
}

// What the reports read off an operation, in milliseconds.
func sessionMs(o op) float64 { return ms(o.dur) }
func verdictMs(o op) float64 { return ms(o.verdictLat) }
func lateMs(o op) float64    { return ms(o.late) }

func (w *window) addEngine(res *core.RunResult) {
	for _, m := range res.Metrics {
		w.engine.EventsProcessed += m.EventsProcessed
		w.engine.GlobalViewsCreated += m.GlobalViewsCreated
		w.engine.SearchesLaunched += m.SearchesLaunched
		w.engine.TokenHops += m.TokenHops
		w.engine.FetchesSent += m.FetchesSent
		w.engine.BoxExplorations += m.BoxExplorations
		w.engine.BoxNodes += m.BoxNodes
		w.engine.KnowledgeCollected += m.KnowledgeCollected
		w.engine.KnowledgePeak = max(w.engine.KnowledgePeak, m.KnowledgePeak)
	}
	w.netMsgs += res.NetMessages
	w.netBytes += res.NetBytes
	if res.FirstConclusive > 0 {
		w.firstConc = append(w.firstConc, res.FirstConclusive)
	}
}

// inprocOpts vary an in-process run for the traced pass and the ledger.
type inprocOpts struct {
	tr *tracer
	// shards is core.RunConfig.Shards (0: the library default).
	shards int
	// timeSends wraps the session's network in the Send-timing decorator.
	timeSends bool
	// replays > 0 runs exactly that many replays instead of a duration.
	replays int
}

// more reports whether a closed loop that has done i replays since start goes
// on: up to replays of them when that is set, else until d has gone by.
func more(i, replays int, start time.Time, d time.Duration) bool {
	if replays > 0 {
		return i < replays
	}
	return time.Since(start) < d
}

// runInproc drives an in-process workload closed-loop, one session at a
// time, cycling through the pool, for d (or opts.replays replays).
func runInproc(ctx context.Context, w *workload, in *inputs, d time.Duration, opts inprocOpts) (*window, error) {
	win := &window{perTrace: w.sliceLen == 0}
	var timed *timedNetwork
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, err := selfCPU()
	if err != nil {
		return nil, err
	}
	rss := startRSSSampler(selfPid)
	defer func() { win.rssMB, win.stolen = rss.finish() }()
	start := time.Now()
	sl := newSlicer(time.Duration(w.sliceLen*float64(time.Second)), start)
	for i := 0; more(i, opts.replays, start, d); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		x := in.pool[i%len(in.pool)]
		cfg := core.RunConfig{Automaton: x.mon, SkipFinalize: w.detectOnly, Shards: opts.shards}
		if opts.timeSends {
			timed = &timedNetwork{Network: transport.NewChanNetwork(x.n)}
			cfg.Network = timed
		}
		t0 := time.Now()
		var res *core.RunResult
		var closeDur time.Duration
		if opts.tr == nil {
			res, err = replayStream(ctx, x, cfg)
		} else {
			res, closeDur, err = replayTraced(ctx, x, cfg, opts.tr, i)
		}
		now := time.Now()
		o := op{events: len(x.events), trace: i % len(in.pool), dur: now.Sub(t0)}
		switch {
		case err != nil:
			o.failed, o.why = true, err.Error()
		case !sameVerdicts(res.Verdicts, x.ref, w.detectOnly):
			o.failed, o.mismatch = true, true
			o.why = fmt.Sprintf("replay %d returned %s, reference %s", i, verdictString(res.Verdicts), verdictString(x.ref))
		}
		// A replay is a batch job: its verdict is its result, every event
		// contributes to it, and the wait for it is the whole replay.
		o.verdictLat = o.dur
		if res != nil {
			if opts.tr == nil {
				// Wall − ProgramWall is the drain after the last event was
				// fed, which is what the traced path spans around Close.
				closeDur = res.Wall - res.ProgramWall
			}
			win.closeDur = append(win.closeDur, closeDur)
			win.addEngine(res)
		}
		if timed != nil {
			win.sendNanos += timed.nanos.Load()
			win.sends += timed.sends.Load()
		}
		win.ops = append(win.ops, o)
		sl.add(o.events, now)
	}
	win.wall = time.Since(start)
	cpu1, err := selfCPU()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	win.cpu = cpu1 - cpu0
	win.mallocs, win.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	win.slices = sl.rates()
	if win.hwmMB, err = procPeakRSSMB(selfPid); err != nil {
		return nil, err
	}
	return win, nil
}

// replayStream is the untraced replay: .dmtb bytes through the library's own
// streaming entry point, which feeds event by event through Session.Feed.
func replayStream(ctx context.Context, x *input, cfg core.RunConfig) (*core.RunResult, error) {
	src, err := openTrace(x.dmtb, x.pm)
	if err != nil {
		return nil, err
	}
	return core.RunStreamContext(ctx, src, cfg)
}

// replayTraced does what core.RunStream does — open a session, decode and
// feed every event in order, close — as explicit calls, so that each layer's
// share can be spanned from outside, a batch of events at a time.
func replayTraced(ctx context.Context, x *input, cfg core.RunConfig, tr *tracer, session int) (*core.RunResult, time.Duration, error) {
	root := tr.begin("replay", noSpan, session)
	defer tr.end(root)
	src, err := openTrace(x.dmtb, x.pm)
	if err != nil {
		return nil, 0, err
	}
	sp := tr.begin("core.session.new", root, session)
	s, err := core.NewSession(ctx, core.SessionConfig{
		N: x.n, Automaton: x.mon, Props: x.pm, Init: x.init,
		SkipFinalize: cfg.SkipFinalize, Network: cfg.Network, Shards: cfg.Shards,
	})
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	batch := make([]*dist.Event, 0, spanBatch)
	var feedErr error
	for eof := false; !eof && feedErr == nil; {
		batch = batch[:0]
		sp = tr.begin("dist.dmtb.decode", root, session)
		for len(batch) < spanBatch {
			e, err := src.Next()
			if err == io.EOF {
				eof = true
				break
			}
			if err != nil {
				feedErr, eof = err, true
				break
			}
			batch = append(batch, e)
		}
		tr.end(sp)
		sp = tr.begin("core.feed", root, session)
		for _, e := range batch {
			if feedErr = s.Feed(e); feedErr != nil {
				break
			}
		}
		tr.end(sp)
	}
	sp = tr.begin("core.close", root, session)
	t0 := time.Now()
	res, err := s.Close()
	closeDur := time.Since(t0)
	tr.end(sp)
	if err == nil {
		err = feedErr
	}
	if err != nil {
		return nil, closeDur, err
	}
	return res, closeDur, nil
}

// timedNetwork decorates a transport.Network from outside: every Send of
// every endpoint is timed. It is handed to the engine through
// SessionConfig.Network in traced runs only.
type timedNetwork struct {
	transport.Network
	nanos, sends atomic.Int64
}

func (t *timedNetwork) Endpoint(i int) transport.Endpoint {
	return &timedEndpoint{Endpoint: t.Network.Endpoint(i), net: t}
}

type timedEndpoint struct {
	transport.Endpoint
	net *timedNetwork
}

func (e *timedEndpoint) Send(to int, payload []byte) error {
	t0 := time.Now()
	err := e.Endpoint.Send(to, payload)
	e.net.nanos.Add(int64(time.Since(t0)))
	e.net.sends.Add(1)
	return err
}
