package experiments

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"decentmon/internal/dist"
	"decentmon/internal/server"
)

// --- dlmond session-server sweep (the BENCH_dlmond.json trajectory) ---

// DlmondCell is one row of the session-server benchmark: full session
// lifecycles (register → ingest the running example → close) driven at a
// fixed concurrency against one in-process dlmond, sessions multiplexed
// over a bounded connection pool exactly as real tenants would share
// sockets.
type DlmondCell struct {
	Concurrency    int     `json:"concurrency"` // simultaneous session drivers
	Conns          int     `json:"conns"`       // TCP connections they multiplex over
	Sessions       int     `json:"sessions"`    // lifecycles completed in the window
	EventsPerSess  int     `json:"events_per_session"`
	WallSeconds    float64 `json:"wall_seconds"`
	SessionsPerSec float64 `json:"sessions_per_sec"`
	EventsPerSec   float64 `json:"events_per_sec"`
}

// DlmondBench is the BENCH_dlmond.json document: the concurrency sweep plus
// the automaton-cache registration latencies (a cold register compiles the
// tableau; a warm one only allocates the session).
type DlmondBench struct {
	Date  string `json:"date"`
	GoMax int    `json:"gomaxprocs"`
	// RegisterMissMicros / RegisterHitMicros are mean registration round-
	// trip latencies against a cold and a warm automaton cache.
	RegisterMissMicros float64       `json:"register_miss_micros"`
	RegisterHitMicros  float64       `json:"register_hit_micros"`
	Note               string        `json:"note"`
	Cells              []*DlmondCell `json:"cells"`
	// LongSession prices durability where it is paid: on one long session,
	// not on eight-event lifecycles.
	LongSession *DlmondLongSession `json:"long_session"`
}

// DlmondLongSession is the long-session pair: the engine sweep's stream
// execution (ring n=8, ~8×10⁴ events, a response property that never
// concludes) ingested as one dlmond session, without a state directory and
// with one at the default cadence. scripts/perfgate.go gates the two
// events/s sides; the per-sync and per-base means come from the durable
// daemon's own /metrics counters.
type DlmondLongSession struct {
	Workload            string  `json:"workload"`
	Events              int     `json:"events"`
	Pairs               int     `json:"pairs"` // alternating runs per side; medians reported
	EventsPerSec        float64 `json:"events_per_sec"`
	DurableEventsPerSec float64 `json:"durable_events_per_sec"`
	DurableRatio        float64 `json:"durable_ratio"` // durable / non-durable
	// DurableBytesPerEvent is everything the durable side made durable — input
	// log records and base blobs — over the events it monitored; the same
	// events take about 34 bytes each in a ".dmtb" file.
	DurableBytesPerEvent float64 `json:"durable_bytes_per_event"`
	// RecoveryMs is a restart over the state directory of the whole session,
	// fed and left open: restore the base, replay the log (median of
	// dlmondRecoveryRuns).
	RecoveryMs      float64 `json:"recovery_ms"`
	CheckpointEvery int     `json:"checkpoint_every"`
	// The cadence: input log syncs per durable session, their mean size, the
	// milliseconds one takes beside the read loop, and the milliseconds the
	// read loop (and replies) waited per sync for the disk.
	Syncs         int     `json:"syncs"`
	SyncBytes     float64 `json:"sync_bytes_mean"`
	SyncMs        float64 `json:"sync_ms"`
	InstallWaitMs float64 `json:"install_wait_ms"`
	// Base blobs per durable session (one at registration, the rest
	// compactions), their mean size and the milliseconds one takes: barrier
	// and encode stall the read loop, install runs beside it.
	Checkpoints     int     `json:"checkpoints"`
	CheckpointBytes float64 `json:"checkpoint_bytes_mean"`
	BarrierMs       float64 `json:"barrier_ms"`
	EncodeMs        float64 `json:"encode_ms"`
	InstallMs       float64 `json:"install_ms"`
}

const dlmondNote = "sessions/s of full register->ingest->verdict->close lifecycles over loopback TCP at the recorded gomaxprocs; each session monitors the paper's 8-event running example, so events/s = 8x sessions/s; long_session is one ~8e4-event session without and with a state directory (see PERFORMANCE.md, Durability by logging inputs)"

// dlmondConcurrencies is the sweep plan from the roadmap: a single tenant,
// a busy daemon, and the 512-session acceptance regime.
var dlmondConcurrencies = []int{1, 64, 512}

// maxBenchConns bounds the connection pool so the sweep stays well under
// CI file-descriptor limits; beyond it, sessions multiplex.
const maxBenchConns = 32

// DlmondSweep measures the session-server workload plan against an
// in-process dlmond. minWall is the minimum measured wall time per
// concurrency cell (<=0 takes 200ms).
func DlmondSweep(minWall time.Duration) (*DlmondBench, error) {
	if minWall <= 0 {
		minWall = 200 * time.Millisecond
	}
	doc := &DlmondBench{
		Date:  time.Now().UTC().Format(time.RFC3339),
		GoMax: runtime.GOMAXPROCS(0),
		Note:  dlmondNote,
	}

	ts := dist.RunningExample()
	evs, err := linearize(ts)
	if err != nil {
		return nil, err
	}

	for _, conc := range dlmondConcurrencies {
		cell, err := dlmondCell(conc, minWall, ts, evs)
		if err != nil {
			return nil, err
		}
		doc.Cells = append(doc.Cells, cell)
	}

	miss, hit, err := dlmondRegisterLatency(ts)
	if err != nil {
		return nil, err
	}
	doc.RegisterMissMicros = float64(miss.Microseconds())
	doc.RegisterHitMicros = float64(hit.Microseconds())
	stream, formula := streamExecution()
	if doc.LongSession, err = dlmondLongSession("stream/ring/n=8", stream, formula, dlmondLongPairs); err != nil {
		return nil, err
	}
	return doc, nil
}

// dlmondLongPairs is how many times each side of the long-session pair runs;
// the sides alternate so that drift of the box hits both.
const dlmondLongPairs = 5

// dlmondLongSession measures the long-session pair on one execution: pairs
// alternating runs without and with a state directory.
func dlmondLongSession(name string, ts *dist.TraceSet, formula string, pairs int) (*DlmondLongSession, error) {
	evs, err := linearize(ts)
	if err != nil {
		return nil, err
	}
	long := &DlmondLongSession{
		Workload: name + " " + formula,
		Events:   len(evs),
		Pairs:    pairs,
	}
	var plain, durable []float64
	phases := map[string]float64{}
	for i := 0; i < pairs; i++ {
		eps, _, err := dlmondLongRun(ts, formula, evs, false)
		if err != nil {
			return nil, err
		}
		plain = append(plain, eps)
		eps, m, err := dlmondLongRun(ts, formula, evs, true)
		if err != nil {
			return nil, err
		}
		durable = append(durable, eps)
		for name, v := range m {
			phases[name] += v
		}
	}
	long.EventsPerSec, long.DurableEventsPerSec = medianOf(plain), medianOf(durable)
	long.DurableRatio = long.DurableEventsPerSec / long.EventsPerSec
	long.CheckpointEvery = 256 // server.Config's default; the run sets none
	long.DurableBytesPerEvent = (phases["dlmond_log_bytes_total"] + phases["dlmond_checkpoint_bytes_total"]) / float64(pairs*len(evs))
	if n := phases["dlmond_log_syncs_total"]; n > 0 {
		long.Syncs = int(n) / pairs
		long.SyncBytes = phases["dlmond_log_bytes_total"] / n
		long.SyncMs = 1000 * phases["dlmond_log_sync_seconds_total"] / n
		long.InstallWaitMs = 1000 * phases["dlmond_checkpoint_install_wait_seconds_total"] / n
	}
	if n := phases["dlmond_checkpoints_total"]; n > 0 {
		perCkptMs := func(name string) float64 { return 1000 * phases[name] / n }
		long.Checkpoints = int(n) / pairs
		long.CheckpointBytes = phases["dlmond_checkpoint_bytes_total"] / n
		long.BarrierMs = perCkptMs("dlmond_checkpoint_barrier_seconds_total")
		long.EncodeMs = perCkptMs("dlmond_checkpoint_encode_seconds_total")
		long.InstallMs = perCkptMs("dlmond_checkpoint_install_seconds_total")
	}
	var recoveries []float64
	for i := 0; i < dlmondRecoveryRuns; i++ {
		ms, err := dlmondRecovery(ts, formula, evs)
		if err != nil {
			return nil, err
		}
		recoveries = append(recoveries, ms)
	}
	long.RecoveryMs = medianOf(recoveries)
	return long, nil
}

// dlmondRecoveryRuns is how many restarts RecoveryMs is the median of.
const dlmondRecoveryRuns = 3

// dlmondRecovery feeds the whole session to a durable dlmond, leaves it open
// and shuts the daemon down — which syncs the log's last partial cadence and
// writes no other blob, so the directory is what a kill after the last
// acknowledgement leaves — then times a second daemon's start over the same
// directory, in milliseconds, and checks that it holds every event.
func dlmondRecovery(ts *dist.TraceSet, formula string, evs []*dist.Event) (float64, error) {
	dir, err := os.MkdirTemp("", "dlmond-recovery-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	cfg := server.Config{MetricsAddr: "off", StateDir: dir}
	s, err := server.New(cfg)
	if err != nil {
		return 0, err
	}
	defer s.Shutdown()
	cl, err := server.Dial(s.Addr())
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	sid, _, err := cl.Register("bench", formula, ts.InitialState(), ts.Props)
	if err != nil {
		return 0, err
	}
	for _, e := range evs {
		if err := cl.Ingest(sid, e); err != nil {
			return 0, err
		}
	}
	if _, _, err := cl.Attach(sid); err != nil {
		return 0, err
	}
	cl.Close()
	if err := s.Shutdown(); err != nil {
		return 0, err
	}
	start := time.Now()
	s2, err := server.New(cfg)
	ms := float64(time.Since(start).Microseconds()) / 1000
	if err != nil {
		return 0, err
	}
	defer s2.Shutdown()
	cl2, err := server.Dial(s2.Addr())
	if err != nil {
		return 0, err
	}
	defer cl2.Close()
	_, fed, err := cl2.Attach(sid)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, k := range fed {
		total += k
	}
	if total != len(evs) {
		return 0, fmt.Errorf("experiments: recovered session holds %d of %d events", total, len(evs))
	}
	_, err = cl2.CloseSession(sid)
	return ms, err
}

// linearize returns a trace set's events in stream order.
func linearize(ts *dist.TraceSet) ([]*dist.Event, error) {
	var evs []*dist.Event
	src := ts.Stream()
	for {
		e, err := src.Next()
		if err == io.EOF {
			return evs, nil
		}
		if err != nil {
			return nil, err
		}
		evs = append(evs, e)
	}
}

func medianOf(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// dlmondLongRun drives one long session — register, ingest everything, close
// — against a fresh in-process dlmond and returns its events/s, timed from
// the first Ingest to the Closed reply. A durable run keeps its session in a
// temporary state directory at the default cadence and also returns the
// daemon's durability counters, scraped from /metrics after the close.
func dlmondLongRun(ts *dist.TraceSet, formula string, evs []*dist.Event, durable bool) (float64, map[string]float64, error) {
	cfg := server.Config{MetricsAddr: "off"}
	if durable {
		dir, err := os.MkdirTemp("", "dlmond-long-")
		if err != nil {
			return 0, nil, err
		}
		defer os.RemoveAll(dir)
		cfg.StateDir, cfg.MetricsAddr = dir, ""
	}
	s, err := server.New(cfg)
	if err != nil {
		return 0, nil, err
	}
	defer s.Shutdown()
	cl, err := server.Dial(s.Addr())
	if err != nil {
		return 0, nil, err
	}
	defer cl.Close()
	sid, _, err := cl.Register("bench", formula, ts.InitialState(), ts.Props)
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	for _, e := range evs {
		if err := cl.Ingest(sid, e); err != nil {
			return 0, nil, err
		}
	}
	if _, err := cl.CloseSession(sid); err != nil {
		return 0, nil, err
	}
	eps := float64(len(evs)) / time.Since(start).Seconds()
	if !durable {
		return eps, nil, nil
	}
	m, err := scrapeCheckpointMetrics(s.MetricsAddr())
	return eps, m, err
}

// scrapeCheckpointMetrics reads the dlmond_checkpoint* and dlmond_log* samples
// off /metrics.
func scrapeCheckpointMetrics(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || !(strings.HasPrefix(name, "dlmond_checkpoint") || strings.HasPrefix(name, "dlmond_log")) {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			m[name] = v
		}
	}
	return m, sc.Err()
}

// dlmondCell drives conc concurrent session lifecycles for at least minWall
// against a fresh server.
func dlmondCell(conc int, minWall time.Duration, ts *dist.TraceSet, evs []*dist.Event) (*DlmondCell, error) {
	s, err := server.New(server.Config{MetricsAddr: "off"})
	if err != nil {
		return nil, err
	}
	defer s.Shutdown()

	nconns := conc
	if nconns > maxBenchConns {
		nconns = maxBenchConns
	}
	clients := make([]*server.Client, nconns)
	for i := range clients {
		cl, err := server.Dial(s.Addr())
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		clients[i] = cl
	}

	var (
		wg       sync.WaitGroup
		done     atomic.Int64
		firstErr atomic.Value
	)
	deadline := time.Now().Add(minWall)
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := clients[w%nconns]
			tenant := fmt.Sprintf("bench-%d", w%nconns)
			for time.Now().Before(deadline) {
				sid, _, err := cl.Register(tenant, dist.RunningExampleProperty, ts.InitialState(), ts.Props)
				if err == nil {
					for _, e := range evs {
						if err = cl.Ingest(sid, e); err != nil {
							break
						}
					}
				}
				if err == nil {
					_, err = cl.CloseSession(sid)
				}
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				done.Add(1)
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	if err, ok := firstErr.Load().(error); ok {
		return nil, fmt.Errorf("experiments: dlmond cell conc=%d: %w", conc, err)
	}
	cell := &DlmondCell{
		Concurrency:   conc,
		Conns:         nconns,
		Sessions:      int(done.Load()),
		EventsPerSess: len(evs),
		WallSeconds:   wall.Seconds(),
	}
	if cell.WallSeconds > 0 {
		cell.SessionsPerSec = float64(cell.Sessions) / cell.WallSeconds
		cell.EventsPerSec = cell.SessionsPerSec * float64(len(evs))
	}
	return cell, nil
}

// dlmondRegisterLatency measures registration round trips against a cold
// and a warm cache: distinct properties every time (misses) vs one
// property re-registered (hits).
func dlmondRegisterLatency(ts *dist.TraceSet) (miss, hit time.Duration, err error) {
	s, err := server.New(server.Config{MetricsAddr: "off"})
	if err != nil {
		return 0, 0, err
	}
	defer s.Shutdown()
	cl, err := server.Dial(s.Addr())
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()

	// Distinct canonical formulas of comparable (small) tableau size, so
	// the mean measures the typical compile cost, not a pathological one.
	missFormulas := []string{
		"F (x1=10)", "F (x1>=5)", "F (x2>=15)", "G (x1=10)",
		"G (x1>=5)", "F (x1=10 && x2>=15)", "G (x1>=5 || x2>=15)",
		"x1>=5 U x2>=15",
	}
	reps := len(missFormulas)
	var sids []uint64
	start := time.Now()
	for i := 0; i < reps; i++ {
		sid, hitReg, err := cl.Register("bench", missFormulas[i], ts.InitialState(), ts.Props)
		if err != nil {
			return 0, 0, err
		}
		if hitReg {
			return 0, 0, fmt.Errorf("experiments: distinct formula %q hit the cache", missFormulas[i])
		}
		sids = append(sids, sid)
	}
	miss = time.Since(start) / time.Duration(reps)

	start = time.Now()
	for i := 0; i < reps; i++ {
		sid, hitReg, err := cl.Register("bench", missFormulas[0], ts.InitialState(), ts.Props)
		if err != nil {
			return 0, 0, err
		}
		if i > 0 && !hitReg {
			return 0, 0, fmt.Errorf("experiments: repeated formula missed the cache")
		}
		sids = append(sids, sid)
	}
	hit = time.Since(start) / time.Duration(reps)

	for _, sid := range sids {
		if _, err := cl.CloseSession(sid); err != nil {
			return 0, 0, err
		}
	}
	return miss, hit, nil
}

// RenderDlmondCells renders the sweep as the stdout table.
func RenderDlmondCells(doc *DlmondBench) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %-6s %-10s %-12s %-12s\n", "concurrency", "conns", "sessions", "sessions/s", "events/s")
	for _, c := range doc.Cells {
		fmt.Fprintf(&sb, "%-12d %-6d %-10d %-12.1f %-12.1f\n", c.Concurrency, c.Conns, c.Sessions, c.SessionsPerSec, c.EventsPerSec)
	}
	fmt.Fprintf(&sb, "registration : %.0fµs cold (tableau compiled), %.0fµs warm (cache hit)\n",
		doc.RegisterMissMicros, doc.RegisterHitMicros)
	if l := doc.LongSession; l != nil {
		fmt.Fprintf(&sb, "long session : %d events, %.0f events/s, %.0f with -state (ratio %.2f)\n",
			l.Events, l.EventsPerSec, l.DurableEventsPerSec, l.DurableRatio)
		fmt.Fprintf(&sb, "log syncs    : %d per session of %.0f B; sync %.2f ms beside the read loop, install-wait %.2f ms on it\n",
			l.Syncs, l.SyncBytes, l.SyncMs, l.InstallWaitMs)
		fmt.Fprintf(&sb, "compactions  : %d base blobs per session of %.0f B; barrier %.2f + encode %.2f ms on the read loop, install %.2f ms beside it\n",
			l.Checkpoints, l.CheckpointBytes, l.BarrierMs, l.EncodeMs, l.InstallMs)
		fmt.Fprintf(&sb, "durable      : %.1f B/event made durable; restart over the whole session's state %.1f ms\n",
			l.DurableBytesPerEvent, l.RecoveryMs)
	}
	return sb.String()
}
