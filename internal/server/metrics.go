package server

import (
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// verdict-latency histogram bucket bounds, in seconds. Fixed at compile
// time so observation is a handful of atomic adds.
var latencyBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}

// metrics is the server's observability state: plain atomics rendered in
// Prometheus text exposition format on demand. No registry, no deps —
// matching the repo's stdlib-only posture.
type metrics struct {
	sessionsLive  atomic.Int64
	sessionsTotal atomic.Int64
	eventsTotal   atomic.Int64
	verdictsTotal atomic.Int64
	errorsTotal   atomic.Int64
	throttleNanos atomic.Int64

	// Durable-session counters (StateDir mode).
	sessionsRecovered atomic.Int64
	checkpointsTotal  atomic.Int64
	checkpointErrors  atomic.Int64
	// Where base blobs (registration, compaction) spend their time, per phase,
	// in nanoseconds summed over all of them: the engine's quiescence barrier,
	// encoding, the installer's write+fsync+rename. The first two stall a
	// connection's read loop; the third runs beside it. ckptInstallWaitNanos is
	// every wait on a session's semaphore: what cadence hand-offs, compactions
	// and replies waited for a sync or an install still in flight.
	ckptBarrierNanos     atomic.Int64
	ckptEncodeNanos      atomic.Int64
	ckptInstallNanos     atomic.Int64
	ckptInstallWaitNanos atomic.Int64
	ckptBytes            atomic.Int64
	// The input log: syncs (one write + fsync each, beside the read loop),
	// the bytes and time they took, and what recovery made of the logs it
	// found.
	logSyncs     atomic.Int64
	logBytes     atomic.Int64
	logSyncNanos atomic.Int64
	logReplayed  atomic.Int64
	logTornTails atomic.Int64

	latencyCounts  [10]atomic.Int64 // one per bucket + overflow
	latencySumNano atomic.Int64
	latencyCount   atomic.Int64
}

// observeLatency records one verdict latency sample.
func (m *metrics) observeLatency(d time.Duration) {
	s := d.Seconds()
	for i, le := range latencyBuckets {
		if s <= le {
			m.latencyCounts[i].Add(1)
			goto recorded
		}
	}
	m.latencyCounts[len(latencyBuckets)].Add(1)
recorded:
	m.latencySumNano.Add(int64(d))
	m.latencyCount.Add(1)
}

// snapshotExtra is what the render pulls from outside the atomics: gauges
// that need a live walk over the registry at scrape time.
type snapshotExtra struct {
	knowledgeBytes int64
	cacheHits      int64
	cacheMisses    int64
	cacheEntries   int
}

// render writes the exposition text.
func (m *metrics) render(w *strings.Builder, x snapshotExtra) {
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	seconds := func(name, help string, nanos int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, float64(nanos)/1e9)
	}
	gauge("dlmond_sessions_live", "Monitoring sessions currently open.", m.sessionsLive.Load())
	counter("dlmond_sessions_total", "Sessions ever registered.", m.sessionsTotal.Load())
	counter("dlmond_events_total", "Events ingested across all sessions.", m.eventsTotal.Load())
	counter("dlmond_verdicts_total", "Verdict detections streamed to subscribers.", m.verdictsTotal.Load())
	counter("dlmond_errors_total", "RPC errors returned to clients.", m.errorsTotal.Load())
	seconds("dlmond_throttle_seconds_total", "Cumulative admission-control pause imposed on tenants.", m.throttleNanos.Load())
	counter("dlmond_sessions_recovered_total", "Sessions restored from durable checkpoints at startup.", m.sessionsRecovered.Load())
	counter("dlmond_checkpoints_total", "Session base blobs (registration, log compaction) written to the state directory.", m.checkpointsTotal.Load())
	counter("dlmond_checkpoint_errors_total", "Base blob writes, input log syncs or recoveries that failed.", m.checkpointErrors.Load())
	seconds("dlmond_checkpoint_barrier_seconds_total", "Time base blobs waited for their session's monitors to reach quiescence.", m.ckptBarrierNanos.Load())
	seconds("dlmond_checkpoint_encode_seconds_total", "Time base blobs spent serializing session state.", m.ckptEncodeNanos.Load())
	seconds("dlmond_checkpoint_install_seconds_total", "Time installers spent writing, syncing and renaming base blobs.", m.ckptInstallNanos.Load())
	seconds("dlmond_checkpoint_install_wait_seconds_total", "Time cadence hand-offs, compactions and replies waited for a sync or an install still in flight.", m.ckptInstallWaitNanos.Load())
	counter("dlmond_checkpoint_bytes_total", "Bytes of base blobs installed.", m.ckptBytes.Load())
	counter("dlmond_log_syncs_total", "Input log syncs: one write and one fsync of the records of one cadence.", m.logSyncs.Load())
	counter("dlmond_log_bytes_total", "Bytes of input log records synced.", m.logBytes.Load())
	seconds("dlmond_log_sync_seconds_total", "Time syncers spent writing and syncing input log records.", m.logSyncNanos.Load())
	counter("dlmond_log_replayed_events_total", "Events re-fed from input logs at startup.", m.logReplayed.Load())
	counter("dlmond_log_torn_tails_total", "Input logs found at startup with a torn or corrupt tail, which was dropped.", m.logTornTails.Load())
	gauge("dlmond_knowledge_bytes", "Estimated bytes of retained monitor knowledge across live sessions.", x.knowledgeBytes)
	counter("dlmond_automaton_cache_hits_total", "Property registrations served from the compiled-automaton cache.", x.cacheHits)
	counter("dlmond_automaton_cache_misses_total", "Property registrations that compiled a new automaton.", x.cacheMisses)
	gauge("dlmond_automaton_cache_entries", "Distinct compiled properties resident in the cache.", int64(x.cacheEntries))

	fmt.Fprintf(w, "# HELP dlmond_verdict_latency_seconds Latency from last ingested event to verdict emission.\n")
	fmt.Fprintf(w, "# TYPE dlmond_verdict_latency_seconds histogram\n")
	var cum int64
	for i, le := range latencyBuckets {
		cum += m.latencyCounts[i].Load()
		fmt.Fprintf(w, "dlmond_verdict_latency_seconds_bucket{le=%q} %d\n", trimFloat(le), cum)
	}
	cum += m.latencyCounts[len(latencyBuckets)].Load()
	fmt.Fprintf(w, "dlmond_verdict_latency_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "dlmond_verdict_latency_seconds_sum %g\n", float64(m.latencySumNano.Load())/1e9)
	fmt.Fprintf(w, "dlmond_verdict_latency_seconds_count %d\n", m.latencyCount.Load())
}

func trimFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", f), "0"), ".")
}

// httpHandler serves /healthz and /metrics. extra is called per scrape to
// collect registry-derived gauges.
func (m *metrics) httpHandler(extra func() snapshotExtra) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		var sb strings.Builder
		m.render(&sb, extra())
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, sb.String())
	})
	return mux
}
