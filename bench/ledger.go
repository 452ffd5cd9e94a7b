package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"decentmon/internal/core"
	"decentmon/internal/dist"
	"decentmon/internal/transport"
)

// perLayer are the metrics of single layers, printed by the traced run.
// Prefix = package. A metric that does not apply to a workload (server.* on
// an in-process workload, the rate ladder on a closed loop) reads 0 there.
// README.md says how each is taken and which end-to-end metric it explains.
var perLayer = []metricDef{
	{"automaton.build_us", "us", false},
	{"dist.dmtb.decode_ns_per_event", "ns", false},
	{"dist.dmtb.decode_allocs_per_event", "count", false},
	{"dist.dmtb.bytes_per_event", "B", false},
	{"dist.rpc.encode_ns_per_event", "ns", false},
	{"dist.rpc.decode_ns_per_event", "ns", false},
	{"dist.rpc.decode_allocs_per_event", "count", false},
	{"dist.rpc.bytes_per_event", "B", false},
	{"dist.stamp_ns_per_event", "ns", false},
	{"core.session.empty_us", "us", false},
	{"core.session.empty_allocs", "count", false},
	{"core.feed.time_share", "share", false},
	{"core.close_ms", "ms", false},
	{"core.allocs_per_event", "count", false},
	{"core.bytes_per_event", "B", false},
	{"core.monitors.ns_per_event", "ns", false},
	{"core.views_per_event", "count", false},
	{"core.searches_per_kevent", "count", false},
	{"core.token_hops_per_kevent", "count", false},
	{"core.fetches_per_kevent", "count", false},
	{"core.box_explorations_per_kevent", "count", false},
	{"core.box_nodes_per_event", "count", false},
	{"core.knowledge_peak", "count", false},
	{"core.knowledge_collected_per_event", "count", true},
	{"core.first_conclusive_ms", "ms", false},
	{"core.snapshot_ms", "ms", false},
	{"core.snapshot_bytes", "B", false},
	{"core.restore_ms", "ms", false},
	{"core.sched.gomaxprocs1_events_per_s", "events/s", true},
	{"core.sched.serial_events_per_s", "events/s", true},
	{"core.sched.pool_events_per_s", "events/s", true},
	{"transport.messages_per_event", "count", false},
	{"transport.bytes_per_event", "B", false},
	{"transport.send_ns_per_msg", "ns", false},
	{"transport.chan_roundtrip_ns", "ns", false},
	{"server.register_miss_us", "us", false},
	{"server.register_hit_us", "us", false},
	{"server.cache_hit_ratio", "ratio", true},
	{"server.ingest_write_ns_per_event", "ns", false},
	{"server.close_session_ms", "ms", false},
	{"server.checkpoints_per_kevent", "count", false},
	{"server.checkpoint_bytes", "B", false},
	{"server.durable_overhead_share", "share", false},
	{"server.vs_engine_ratio", "ratio", false},
	{"server.verdict_latency_p99_ms", "ms", false},
	{"server.max_sustainable_sessions_per_s", "1/s", true},
	{"bench.generator_late_p99_ms", "ms", false},
	{"bench.trace_overhead_share", "share", false},
	{"bench.unattributed_share", "share", false},
}

// layers collects per-layer values by name.
type layers map[string]float64

// ladderRates are the open loop's offered rates, in sessions/s, tried in
// order to find the highest one dlmond sustains.
var ladderRates = []float64{50, 100, 200, 400}

// runTraced is the traced invocation: the workload once more with spans
// around every call into a layer, a short untraced run beside it (their
// difference is the tracing overhead), and the isolation ledger. It returns
// the per-layer metrics in the contract's result form.
func runTraced(ctx context.Context, o options, e *env) (*result, error) {
	w, in := e.w, e.in
	L := layers{}
	tr := newTracer()
	// unit is the least time one isolated layer is timed for.
	unit := 150 * time.Millisecond
	if o.smoke {
		unit /= 10
	}

	var m0, m1 map[string]float64
	var twin *window
	var ttot *serveTotals
	var err error
	if w.serve {
		if m0, err = scrapeMetrics(e.d.metricsAddr()); err != nil {
			return nil, fmt.Errorf("scraping dlmond: %w", err)
		}
		twin, ttot, err = runServe(ctx, w, in, e.d, seconds(0.4*o.seconds), serveOpts{tr: tr})
		if err == nil {
			m1, err = scrapeMetrics(e.d.metricsAddr())
		}
	} else {
		twin, err = runInproc(ctx, w, in, seconds(0.4*o.seconds), inprocOpts{tr: tr, timeSends: true})
	}
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	uwin, _, err := e.measure(ctx, seconds(0.2*o.seconds))
	if err != nil {
		return nil, fmt.Errorf("untraced comparison run: %w", err)
	}
	path, err := tr.write(o.root, w.name, o.seed)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	spans := tr.snapshot()
	dur, self := totals(spans)

	// The engine's own counters: from the traced run itself in process, from
	// an in-process pass over the same inputs for a served workload.
	engine, sends := twin, twin
	if w.serve {
		if engine, err = runInproc(ctx, w, in, 4*unit, inprocOpts{}); err != nil {
			return nil, fmt.Errorf("engine pass: %w", err)
		}
		if sends, err = runInproc(ctx, w, in, 0, inprocOpts{timeSends: true, replays: len(in.pool)}); err != nil {
			return nil, fmt.Errorf("engine pass: %w", err)
		}
	}
	L.engineCounts(engine)
	if sends.sends > 0 {
		L["transport.send_ns_per_msg"] = float64(sends.sendNanos) / float64(sends.sends)
	}
	var engineEps float64
	if w.serve {
		engineEps = eventsPerSec(engine)
	} else {
		engineEps = eventsPerSec(uwin)
		L["core.feed.time_share"] = ratio(float64(dur["core.feed"]), float64(dur["replay"]))
		L["core.close_ms"] = median(durationsIn(time.Millisecond, twin.closeDur))
		L["core.allocs_per_event"] = ratio(float64(uwin.mallocs), float64(uwin.events()))
		L["core.bytes_per_event"] = ratio(float64(uwin.allocBytes), float64(uwin.events()))
	}

	if err := L.isolation(ctx, w, in, unit); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	if err := L.sched(ctx, w, in, 3*unit); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}

	var extra []*window
	if w.serve {
		if extra, err = L.served(ctx, o, e, twin, uwin, ttot, m0, m1, engineEps); err != nil {
			return nil, err
		}
	}
	L["bench.generator_late_p99_ms"] = percentile(uwin.values(lateMs), 99)
	if w.rate > 0 {
		// An open loop's rate is offered, not achieved: compare how long a
		// session takes instead.
		L["bench.trace_overhead_share"] = 1 - ratio(uwin.typical(sessionMs), twin.typical(sessionMs))
	} else {
		L["bench.trace_overhead_share"] = 1 - ratio(eventsPerSec(twin), eventsPerSec(uwin))
	}

	// What the outside-in ledger can attribute of one event's wall time:
	// decoding it, its share of session construction, and the transport
	// sends it causes. The rest — view step, search, box DP, GC, scheduling,
	// and for dlmond the socket and registry — has no owner yet.
	perSession := ratio(float64(in.totalEvents()), float64(len(in.pool)))
	decode := L["dist.dmtb.decode_ns_per_event"]
	wallNs := ratio(1e9, eventsPerSec(uwin))
	if w.serve {
		decode = L["dist.rpc.decode_ns_per_event"]
	}
	setupNs := ratio(1000*L["core.session.empty_us"], perSession)
	sendNs := L["transport.send_ns_per_msg"] * L["transport.messages_per_event"]
	L["core.monitors.ns_per_event"] = ratio(1e9, engineEps) - L["dist.dmtb.decode_ns_per_event"] - setupNs
	L["bench.unattributed_share"] = 1 - ratio(decode+setupNs+sendNs, wallNs)

	wins := append([]*window{twin, uwin}, extra...)
	if w.serve {
		wins = append(wins, engine)
	}
	res := &result{Metrics: map[string]measurement{}}
	mismatched := 0
	for _, win := range wins {
		f, m := win.failed()
		res.Attempted += len(win.ops)
		res.Failed += f
		mismatched += m
	}
	res.Correct = mismatched == 0 && res.Attempted > 0
	res.Attempted = max(1, res.Attempted)
	for _, m := range perLayer {
		res.Metrics[m.name] = measurement{Value: L[m.name], Unit: m.unit}
		fmt.Printf("%-40s %16.4f %s\n", m.name, L[m.name], m.unit)
	}
	printSpans(spans, dur, self, path)
	session := uwin.typical(sessionMs)
	fmt.Printf("  of one %s session (%.3f ms untraced), an empty session is %.1f%%\n",
		w.name, session, 100*ratio(L["core.session.empty_us"]/1000, session))
	fmt.Printf("  operations: attempted=%d failed=%d\n", res.Attempted, res.Failed)
	for _, win := range wins {
		if why := win.firstFailure(); why != "" {
			fmt.Printf("  first failure: %s\n", why)
			break
		}
	}
	return res, nil
}

// served fills the server layer from the traced run's client-side timings
// and the change in dlmond's /metrics over it (m0 to m1), then prices
// durability or climbs the rate ladder where the workload calls for it. It
// returns the windows of those extra runs whose operations count.
func (L layers) served(ctx context.Context, o options, e *env, twin, uwin *window, tot *serveTotals, m0, m1 map[string]float64, engineEps float64) ([]*window, error) {
	w := e.w
	delta := func(name string) float64 { return m1[name] - m0[name] }
	events := float64(twin.events())
	L["server.register_miss_us"] = median(durationsIn(time.Microsecond, tot.registerMiss))
	L["server.register_hit_us"] = median(durationsIn(time.Microsecond, tot.registerHit))
	hits, misses := delta("dlmond_automaton_cache_hits_total"), delta("dlmond_automaton_cache_misses_total")
	L["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	L["server.ingest_write_ns_per_event"] = ratio(float64(tot.ingestDur), events)
	L["server.close_session_ms"] = median(durationsIn(time.Millisecond, tot.closeDur))
	L["server.checkpoints_per_kevent"] = 1000 * ratio(delta("dlmond_checkpoints_total"), events)
	L["server.verdict_latency_p99_ms"] = percentile(uwin.values(verdictMs), 99)
	if w.rate <= 0 {
		L["server.vs_engine_ratio"] = ratio(engineEps, eventsPerSec(uwin))
	}
	var extra []*window
	if w.durable {
		plain, err := L.durableCost(ctx, o, e, eventsPerSec(uwin))
		if err != nil {
			return nil, fmt.Errorf("ledger: %w", err)
		}
		extra = append(extra, plain)
	}
	if w.rate > 0 {
		steps, err := L.ladder(ctx, o, e)
		if err != nil {
			return nil, fmt.Errorf("rate ladder: %w", err)
		}
		// Steps above the sustainable rate miss their limits by design:
		// only a step with a wrong verdict counts.
		for _, s := range steps {
			if _, mismatched := s.failed(); mismatched > 0 {
				extra = append(extra, s)
			}
		}
	}
	return extra, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func printSpans(spans []span, dur, self map[string]int64, path string) {
	count := map[string]int{}
	for _, s := range spans {
		count[s.Name]++
	}
	names := make([]string, 0, len(count))
	for n := range count {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("  spans (%d) written to %s\n", len(spans), path)
	for _, n := range names {
		fmt.Printf("    %-24s n=%-7d total=%10.3f ms self=%10.3f ms\n", n, count[n], float64(dur[n])/1e6, float64(self[n])/1e6)
	}
}

// engineCounts fills the counters the engine exports about its own work.
func (L layers) engineCounts(win *window) {
	ev := float64(win.events())
	m := win.engine
	L["core.views_per_event"] = ratio(float64(m.GlobalViewsCreated), ev)
	L["core.searches_per_kevent"] = 1000 * ratio(float64(m.SearchesLaunched), ev)
	L["core.token_hops_per_kevent"] = 1000 * ratio(float64(m.TokenHops), ev)
	L["core.fetches_per_kevent"] = 1000 * ratio(float64(m.FetchesSent), ev)
	L["core.box_explorations_per_kevent"] = 1000 * ratio(float64(m.BoxExplorations), ev)
	L["core.box_nodes_per_event"] = ratio(float64(m.BoxNodes), ev)
	L["core.knowledge_peak"] = float64(m.KnowledgePeak)
	L["core.knowledge_collected_per_event"] = ratio(float64(m.KnowledgeCollected), ev)
	L["core.first_conclusive_ms"] = median(durationsIn(time.Millisecond, win.firstConc))
	L["transport.messages_per_event"] = ratio(float64(win.netMsgs), ev)
	L["transport.bytes_per_event"] = ratio(float64(win.netBytes), ev)
}

// timePasses calls pass, which handles events events, at least three times
// and until minDur has gone by. It returns the median pass's nanoseconds per
// event and the mean heap allocations per event.
func timePasses(minDur time.Duration, events int, pass func() error) (nsPerEvent, allocsPerEvent float64, err error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var ns []float64
	for start := time.Now(); len(ns) < 3 || time.Since(start) < minDur; {
		t0 := time.Now()
		if err := pass(); err != nil {
			return 0, 0, err
		}
		ns = append(ns, float64(time.Since(t0))/float64(events))
	}
	runtime.ReadMemStats(&ms1)
	return median(ns), float64(ms1.Mallocs-ms0.Mallocs) / float64(len(ns)*events), nil
}

// sessionConfig is the engine configuration the workload's sessions run
// under: the library defaults in process, dlmond's serial scheduler served.
func sessionConfig(w *workload, x *input) core.SessionConfig {
	cfg := core.SessionConfig{N: x.n, Automaton: x.mon, Props: x.pm, Init: x.init, SkipFinalize: w.detectOnly}
	if w.serve {
		cfg.Shards = 1
	}
	return cfg
}

// isolation times each layer alone, from outside, over the workload's own
// events, each for at least unit.
func (L layers) isolation(ctx context.Context, w *workload, in *inputs, unit time.Duration) error {
	events := in.totalEvents()
	x0 := in.pool[0]

	// automaton: parse + synthesize, over the pool's formulas.
	var build []float64
	for i := 0; i < max(5, len(in.pool)); i++ {
		x := in.pool[i%len(in.pool)]
		t0 := time.Now()
		if _, err := compile(x.formula, x.pm); err != nil {
			return err
		}
		build = append(build, us(time.Since(t0)))
	}
	L["automaton.build_us"] = median(build)

	// dist: .dmtb decode.
	var dmtbBytes int
	for _, x := range in.pool {
		dmtbBytes += len(x.dmtb)
	}
	ns, allocs, err := timePasses(unit, events, func() error {
		for _, x := range in.pool {
			src, err := openTrace(x.dmtb, x.pm)
			if err != nil {
				return err
			}
			for {
				if _, err := src.Next(); err == io.EOF {
					break
				} else if err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	L["dist.dmtb.decode_ns_per_event"], L["dist.dmtb.decode_allocs_per_event"] = ns, allocs
	L["dist.dmtb.bytes_per_event"] = ratio(float64(dmtbBytes), float64(events))

	// dist: RPC Ingest frames, encoded as the client does and decoded as
	// the server's read loop does.
	var wire []byte
	ns, _, err = timePasses(unit, events, func() error {
		wire = wire[:0]
		for _, x := range in.pool {
			for _, e := range x.events {
				rec, err := dist.AppendEventRecord(nil, e)
				if err != nil {
					return err
				}
				frame, err := dist.AppendRPC(nil, &dist.RPCMsg{Kind: dist.RPCIngest, SID: 1, Raw: rec})
				if err != nil {
					return err
				}
				wire = append(wire, frame...)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	L["dist.rpc.encode_ns_per_event"] = ns
	L["dist.rpc.bytes_per_event"] = ratio(float64(len(wire)), float64(events))
	ns, allocs, err = timePasses(unit, events, func() error {
		br := bufio.NewReader(bytes.NewReader(wire))
		var scratch, payload []byte
		for {
			var err error
			payload, scratch, err = dist.ReadRPCFrame(br, scratch)
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			m, err := dist.DecodeRPC(payload)
			if err != nil {
				return err
			}
			if _, err := dist.DecodeEventRecord(m.Raw, x0.n); err != nil {
				return err
			}
		}
	})
	if err != nil {
		return err
	}
	L["dist.rpc.decode_ns_per_event"], L["dist.rpc.decode_allocs_per_event"] = ns, allocs

	// dist: live stamping, replaying each trace's shape.
	ns, _, err = timePasses(unit, events, func() error {
		for _, x := range in.pool {
			st := dist.NewStamper(x.n)
			tokens := map[int]dist.MsgToken{}
			for _, e := range x.events {
				var err error
				switch e.Type {
				case dist.Internal:
					_, err = st.Internal(e.Proc, e.State, e.Time)
				case dist.Send:
					var tok dist.MsgToken
					_, tok, err = st.Send(e.Proc, e.Peer, e.State, e.Time)
					tokens[e.MsgID] = tok
				case dist.Recv:
					_, err = st.Recv(e.Proc, tokens[e.MsgID], e.State, e.Time)
					delete(tokens, e.MsgID)
				}
				if err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	L["dist.stamp_ns_per_event"] = ns

	// core: a session that monitors nothing.
	cfg := sessionConfig(w, x0)
	ns, allocs, err = timePasses(2*unit, 1, func() error {
		s, err := core.NewSession(ctx, cfg)
		if err != nil {
			return err
		}
		_, err = s.Close()
		return err
	})
	if err != nil {
		return err
	}
	L["core.session.empty_us"], L["core.session.empty_allocs"] = ns/1000, allocs

	// core: snapshot and restore with half of the first trace fed.
	var snapMs, restoreMs, snapBytes []float64
	for start := time.Now(); len(snapMs) < 3 && time.Since(start) < 6*unit; {
		s, err := core.NewSession(ctx, cfg)
		if err != nil {
			return err
		}
		for _, e := range x0.events[:len(x0.events)/2] {
			if err := s.Feed(e); err != nil {
				s.Close()
				return err
			}
		}
		t0 := time.Now()
		snap, err := s.Snapshot(ctx)
		t1 := time.Now()
		if err != nil {
			s.Close()
			return err
		}
		r, err := core.RestoreSession(ctx, cfg, snap)
		t2 := time.Now()
		s.Close()
		if err != nil {
			return err
		}
		r.Close()
		snapMs, restoreMs = append(snapMs, ms(t1.Sub(t0))), append(restoreMs, ms(t2.Sub(t1)))
		snapBytes = append(snapBytes, float64(len(snap)))
	}
	L["core.snapshot_ms"], L["core.restore_ms"] = median(snapMs), median(restoreMs)
	L["core.snapshot_bytes"] = median(snapBytes)

	// transport: one message through a bare in-memory network.
	nw := transport.NewChanNetwork(2)
	defer nw.Close()
	from, to := nw.Endpoint(0), nw.Endpoint(1)
	payload := make([]byte, 64)
	const hops = 2000
	ns, _, err = timePasses(unit/3, hops, func() error {
		for i := 0; i < hops; i++ {
			if err := from.Send(1, payload); err != nil {
				return err
			}
			<-to.Inbox()
		}
		return nil
	})
	if err != nil {
		return err
	}
	L["transport.chan_roundtrip_ns"] = ns
	return nil
}

// sched replays the workload in process under the three scheduler set-ups
// the roadmap's keep-or-delete rule for the work-stealing pool compares.
func (L layers) sched(ctx context.Context, w *workload, in *inputs, d time.Duration) error {
	nproc := runtime.GOMAXPROCS(0)
	for _, c := range []struct {
		name            string
		procs, shardsOf int
	}{
		{"core.sched.gomaxprocs1_events_per_s", 1, 1},
		{"core.sched.serial_events_per_s", nproc, 1},
		{"core.sched.pool_events_per_s", nproc, nproc},
	} {
		prev := runtime.GOMAXPROCS(c.procs)
		win, err := runInproc(ctx, w, in, d, inprocOpts{shards: c.shardsOf})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return err
		}
		if failed, _ := win.failed(); failed > 0 {
			return fmt.Errorf("%s: %s", c.name, win.firstFailure())
		}
		L[c.name] = ratio(float64(win.events()), win.wall.Seconds())
	}
	return nil
}

// durableCost prices durability from outside: the same replay against a
// second dlmond without -state, and the size of a checkpoint file with half
// a trace ingested.
func (L layers) durableCost(ctx context.Context, o options, e *env, durableEps float64) (*window, error) {
	bin := filepath.Join(buildDir(o.root), "dlmond")
	plain, err := startDaemon(o, bin, false)
	if err != nil {
		return nil, err
	}
	defer plain.stop()
	win, _, err := runServe(ctx, e.w, e.in, plain, 0, serveOpts{replays: 2})
	if err != nil {
		return nil, err
	}
	L["server.durable_overhead_share"] = 1 - ratio(durableEps, ratio(float64(win.events()), win.wall.Seconds()))

	f, err := dialFeeder(e.d.rpcAddr(), "bench-probe")
	if err != nil {
		return nil, err
	}
	defer f.cl.Close()
	x := e.in.pool[0]
	sid, _, err := f.cl.Register(f.tenant, x.formula, x.init, x.pm)
	if err != nil {
		return nil, err
	}
	for _, ev := range x.events[:len(x.events)/2] {
		if err := f.cl.Ingest(sid, ev); err != nil {
			return nil, err
		}
	}
	// A synchronous verb is answered in order: once it returns, every
	// Ingest before it has been handled and its checkpoints written.
	if err := f.cl.Subscribe(sid); err != nil {
		return nil, err
	}
	files, err := filepath.Glob(filepath.Join(e.d.stateDir(), "session-*.dmsn"))
	if err != nil {
		return nil, err
	}
	for _, file := range files {
		if st, err := os.Stat(file); err == nil {
			L["server.checkpoint_bytes"] = max(L["server.checkpoint_bytes"], float64(st.Size()))
		}
	}
	if _, err := f.cl.CloseSession(sid); err != nil {
		return nil, err
	}
	return win, nil
}

// ladder offers the open loop at each of ladderRates in turn and records the
// highest rate dlmond sustained: fewer than 1 % of sessions failed or missed
// a service limit and the generator's lateness did not grow over the step.
func (L layers) ladder(ctx context.Context, o options, e *env) ([]*window, error) {
	step := seconds(max(o.seconds/10, 0.2))
	var steps []*window
	for _, rate := range ladderRates {
		win, _, err := runServe(ctx, e.w, e.in, e.d, step, serveOpts{rate: rate})
		if err != nil {
			return nil, err
		}
		steps = append(steps, win)
		failed, _ := win.failed()
		failed += win.slow()
		if len(win.ops) == 0 {
			break
		}
		late := make([]float64, len(win.ops)) // in completion order
		for i, o := range win.ops {
			late[i] = lateMs(o)
		}
		q := max(1, len(late)/4)
		growth := median(late[len(late)-q:]) - median(late[:q])
		ok := float64(failed) < 0.01*float64(len(win.ops)) && growth < 10
		fmt.Printf("  ladder %4.0f sessions/s: attempted=%d failed or slow=%d lateness growth=%.2f ms sustained=%v\n",
			rate, len(win.ops), failed, growth, ok)
		if !ok {
			break
		}
		L["server.max_sustainable_sessions_per_s"] = rate
	}
	return steps, nil
}
