package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/server"
)

const (
	// lateLimit and verdictLimit are the open loop's service limits: a
	// session that starts later than lateLimit after its due time, or waits
	// longer than verdictLimit for its verdict, is counted as slow. They are
	// overload detectors for the rate ladder and the printed report, not
	// failures: whether a session of a shared box runs late depends on what
	// the box's other tenants do (stalls of 0.6 s and spells several times
	// slower were observed), so two sets of runs of the same code would not
	// agree on a failure count made of them. What a slow session costs is in
	// the latency medians, which are timed from the due time.
	lateLimit    = time.Second
	verdictLimit = time.Second
)

// missedLimit reports whether an open-loop session that started late after
// its due time and waited verdictLat for its verdict missed a service limit.
func missedLimit(late, verdictLat time.Duration) bool {
	return late > lateLimit || verdictLat > verdictLimit
}

// feeder is one client connection driving sessions one after another.
type feeder struct {
	cl     *server.Client
	tenant string

	// mu guards watch: the client's read loop delivers verdict frames while
	// the feeder goroutine is still ingesting.
	mu    sync.Mutex
	watch *verdictWatch

	asyncErr atomic.Pointer[string]
}

// verdictWatch catches the first conclusive Verdict frame of one session.
type verdictWatch struct {
	sid uint64
	got bool
	at  time.Time
	cut []int
}

func dialFeeder(addr, tenant string) (*feeder, error) {
	cl, err := server.Dial(addr)
	if err != nil {
		return nil, err
	}
	f := &feeder{cl: cl, tenant: tenant}
	cl.OnVerdict = func(m *dist.RPCMsg) {
		if !m.Conclusive {
			return
		}
		now := time.Now()
		f.mu.Lock()
		if w := f.watch; w != nil && w.sid == m.SID && !w.got {
			// Cut aliases the client's read buffer: copy it.
			w.got, w.at, w.cut = true, now, append([]int(nil), m.Cut...)
		}
		f.mu.Unlock()
	}
	cl.OnAsyncError = func(m *dist.RPCMsg) {
		msg := m.Err
		f.asyncErr.CompareAndSwap(nil, &msg)
	}
	return f, nil
}

// sessionRun is what driving one session through dlmond observed.
type sessionRun struct {
	verdicts    map[automaton.Verdict]bool
	cacheHit    bool
	registerDur time.Duration
	ingestDur   time.Duration // time spent inside Client.Ingest
	closeDur    time.Duration
	done        time.Time // arrival of the Closed reply
	verdictLat  time.Duration
}

// contributing picks, out of a session's events in send order, the index of
// the last event contributing to a verdict detected at cut: the latest-sent
// event on the cut's frontier, i.e. among each process's cut[p]-th event.
// sendIndex[p][sn-1] is the send-order index of process p's sn-th event. A
// verdict without a usable cut yields -1.
func contributing(sendIndex [][]int, cut []int) int {
	best := -1
	for p, sn := range cut {
		if p >= len(sendIndex) || sn <= 0 || sn > len(sendIndex[p]) {
			continue
		}
		best = max(best, sendIndex[p][sn-1])
	}
	return best
}

// lastSentBefore is contributing's fallback for a verdict that names no cut:
// the index of the latest event sent at or before at (-1 if none was).
func lastSentBefore(sent []time.Time, at time.Time) int {
	best := -1
	for i, t := range sent {
		if t.After(at) {
			break
		}
		best = i
	}
	return best
}

// session drives one whole session: Register → Subscribe → Ingest every
// event → CloseSession. With stamp set every event is stamped with its send
// time and the verdict latency is taken from the first conclusive Verdict
// frame back to the send of its last contributing event.
func (f *feeder) session(x *input, formula string, stamp bool, tr *tracer, parent, id int) (*sessionRun, error) {
	run := &sessionRun{}
	sp := tr.begin("server.register", parent, id)
	t0 := time.Now()
	sid, hit, err := f.cl.Register(f.tenant, formula, x.init, x.pm)
	run.registerDur, run.cacheHit = time.Since(t0), hit
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("register: %w", err)
	}
	watch := &verdictWatch{sid: sid}
	f.mu.Lock()
	f.watch = watch
	f.mu.Unlock()
	sp = tr.begin("server.subscribe", parent, id)
	err = f.cl.Subscribe(sid)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	var sent []time.Time
	if stamp {
		sent = make([]time.Time, 0, len(x.events))
	}
	for lo := 0; lo < len(x.events); lo += spanBatch {
		hi := min(lo+spanBatch, len(x.events))
		sp = tr.begin("server.ingest", parent, id)
		b0 := time.Now()
		for _, e := range x.events[lo:hi] {
			if stamp {
				sent = append(sent, time.Now())
			}
			if err = f.cl.Ingest(sid, e); err != nil {
				break
			}
		}
		run.ingestDur += time.Since(b0)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("ingest: %w", err)
		}
	}
	lastIngest := time.Now()
	sp = tr.begin("server.close_session", parent, id)
	codes, err := f.cl.CloseSession(sid)
	run.done = time.Now()
	run.closeDur = run.done.Sub(lastIngest)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if msg := f.asyncErr.Swap(nil); msg != nil {
		return nil, fmt.Errorf("async error frame: %s", *msg)
	}
	run.verdicts = map[automaton.Verdict]bool{}
	for _, c := range codes {
		run.verdicts[automaton.Verdict(c)] = true
	}
	if !stamp {
		return run, nil
	}
	// Every Verdict frame precedes the Closed reply on the wire, so the
	// read loop has already delivered them all.
	f.mu.Lock()
	f.watch = nil
	f.mu.Unlock()
	if !watch.got {
		return nil, fmt.Errorf("no conclusive verdict frame before close")
	}
	i := contributing(x.sendIndex, watch.cut)
	if i < 0 || i >= len(sent) {
		i = lastSentBefore(sent, watch.at)
	}
	if i >= 0 {
		run.verdictLat = max(0, watch.at.Sub(sent[i]))
	}
	return run, nil
}

// serveOpts vary a dlmond-driven run.
type serveOpts struct {
	tr *tracer
	// warm runs the warm-up variant: warm-up formulas, no verdict check.
	warm bool
	// rate overrides the workload's open-loop rate (the rate ladder).
	rate float64
	// replays > 0 runs exactly that many closed-loop replays.
	replays int
}

// serveTotals are the client-side layer timings a served run accumulates.
type serveTotals struct {
	registerHit, registerMiss []time.Duration
	ingestDur                 time.Duration
	closeDur                  []time.Duration
}

// runServe drives a serve workload against d for dur and returns the window
// plus the client-side timings.
func runServe(ctx context.Context, w *workload, in *inputs, d daemon, dur time.Duration, opts serveOpts) (*window, *serveTotals, error) {
	rate := w.rate
	if opts.rate > 0 {
		rate = opts.rate
	}
	nfeed := 1
	if rate > 0 {
		nfeed = max(1, runtime.NumCPU())
	}
	feeders := make([]*feeder, nfeed)
	for i := range feeders {
		f, err := dialFeeder(d.rpcAddr(), fmt.Sprintf("bench-%d", i))
		if err != nil {
			return nil, nil, fmt.Errorf("dialing dlmond: %w", err)
		}
		defer f.cl.Close()
		feeders[i] = f
	}
	formula := func(k int) string {
		if opts.warm && w.warmFormula != nil {
			return w.warmFormula(k)
		}
		return in.pool[k%len(in.pool)].formula
	}

	win, tot := &window{perTrace: rate <= 0 && w.sliceLen == 0}, &serveTotals{}
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return nil, nil, err
	}
	rss := startRSSSampler(d.pid())
	defer func() { win.rssMB, win.stolen = rss.finish() }()
	start := time.Now()
	var mu sync.Mutex // guards win.ops and tot across open-loop feeders
	record := func(o op, run *sessionRun) {
		mu.Lock()
		defer mu.Unlock()
		win.ops = append(win.ops, o)
		if run == nil {
			return
		}
		if run.cacheHit {
			tot.registerHit = append(tot.registerHit, run.registerDur)
		} else {
			tot.registerMiss = append(tot.registerMiss, run.registerDur)
		}
		tot.ingestDur += run.ingestDur
		tot.closeDur = append(tot.closeDur, run.closeDur)
	}
	// one runs session k on feeder f and records it. due is the zero time in
	// a closed loop, where a session is timed from its own start.
	one := func(f *feeder, k int, due time.Time) time.Time {
		x := in.pool[k%len(in.pool)]
		began := time.Now()
		from := began
		o := op{events: len(x.events), trace: k % len(in.pool)}
		if !due.IsZero() {
			from, o.late = due, lateness(due, began)
		}
		root := opts.tr.begin("session", noSpan, k)
		run, err := f.session(x, formula(k), rate > 0, opts.tr, root, k)
		opts.tr.end(root)
		end := time.Now()
		switch {
		case err != nil:
			o.failed, o.why = true, fmt.Sprintf("session %d: %v", k, err)
		case !opts.warm && !sameVerdicts(run.verdicts, x.ref, false):
			o.failed, o.mismatch = true, true
			o.why = fmt.Sprintf("session %d returned %s, reference %s", k, verdictString(run.verdicts), verdictString(x.ref))
		case rate > 0:
			o.slow = missedLimit(o.late, run.verdictLat)
		}
		if run != nil {
			end = run.done
			o.verdictLat = run.verdictLat
		}
		o.dur = end.Sub(from)
		if rate <= 0 {
			o.verdictLat = o.dur // a batch job: input to complete result
		}
		record(o, run)
		return end
	}

	if rate <= 0 {
		sl := newSlicer(time.Duration(w.sliceLen*float64(time.Second)), start)
		for k := 0; more(k, opts.replays, start, dur); k++ {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			end := one(feeders[0], k, time.Time{})
			sl.add(win.ops[len(win.ops)-1].events, end)
		}
		win.slices = sl.rates()
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for _, f := range feeders {
			wg.Add(1)
			go func(f *feeder) {
				defer wg.Done()
				for ctx.Err() == nil {
					k := int(next.Add(1) - 1)
					due := dueTime(start, k, rate)
					if due.Sub(start) >= dur {
						return
					}
					if wait := time.Until(due); wait > 0 {
						select {
						case <-time.After(wait):
						case <-ctx.Done():
							return
						}
					}
					one(f, k, due)
				}
			}(f)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
	}
	win.wall = time.Since(start)
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return nil, nil, err
	}
	win.cpu = cpu1 - cpu0
	if win.hwmMB, err = procPeakRSSMB(d.pid()); err != nil {
		return nil, nil, err
	}
	return win, tot, nil
}
