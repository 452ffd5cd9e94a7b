package server

// Tests of the durable pipeline (checkpoint.go): log syncs and base installs
// run beside ingest, so what they pin is ordering — against replies, Close,
// Shutdown and recovery — and that no sync is lost on the way.

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"decentmon/internal/dist"
)

// pipelineFormula is a response property that stays inconclusive over
// pipelineTrace, so sessions run their full length.
const pipelineFormula = "G (P0.p -> F P1.p)"

// pipelineTrace generates a two-process execution of about perProc internal
// events per process plus communication, linearized.
func pipelineTrace(t *testing.T, perProc int) (*dist.TraceSet, []*dist.Event) {
	t.Helper()
	ts := dist.Generate(dist.GenConfig{N: 2, InternalPerProc: perProc, CommMu: 4, CommSigma: 1, Seed: 15})
	return ts, linearize(t, ts)
}

// diskEvents is how many events of a session a recovering daemon would find:
// those inside its base blob plus those in the valid prefix of the log the
// base names.
func diskEvents(t *testing.T, dir string, sid uint64) int {
	t.Helper()
	blob, err := os.ReadFile(checkpointPath(dir, sid))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := decodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(logPath(dir, sid, ck.logGen))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	_, recs, _, err := dist.ReadInputLog(data)
	if err != nil {
		t.Fatal(err)
	}
	return int(ck.events) + logEvents(t, recs, len(ck.init))
}

// logEvents counts the events the records carry.
func logEvents(t *testing.T, recs []dist.InputLogRecord, n int) int {
	t.Helper()
	events := 0
	for _, rec := range recs {
		if rec.Kind == dist.LogEnd {
			continue
		}
		run, _, err := dist.DecodeEventRun(nil, nil, rec.Payload, n)
		if err != nil {
			t.Fatal(err)
		}
		events += len(run)
	}
	return events
}

// stateFiles lists everything in a state directory, dotfiles included.
func stateFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestCheckpointCloseVsInstall: at cadence 1 every Ingest starts a sync, so
// CloseSession always arrives with one in flight. Close must wait for it
// before removing the files; a write landing afterwards would resurrect the
// session's log at the next start.
func TestCheckpointCloseVsInstall(t *testing.T) {
	rounds := 50
	if testing.Short() {
		rounds = 5
	}
	dir := t.TempDir()
	s := newTestServer(t, Config{StateDir: dir, CheckpointEvery: 1, MetricsAddr: "off"})
	ts, evs := pipelineTrace(t, 240)
	if len(evs) < 500 {
		t.Fatalf("trace has %d events, want at least 500", len(evs))
	}
	evs = evs[:500]
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for round := 0; round < rounds; round++ {
		sid, _, err := cl.Register("acme", pipelineFormula, ts.InitialState(), ts.Props)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range evs {
			if err := cl.Ingest(sid, e); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := cl.CloseSession(sid); err != nil {
			t.Fatal(err)
		}
		if left := stateFiles(t, dir); len(left) != 0 {
			t.Fatalf("round %d: closed session left %v in the state directory", round, left)
		}
	}
	if got := s.mx.checkpointErrors.Load(); got != 0 {
		t.Errorf("%d checkpoint errors", got)
	}
	// Nothing skipped, nothing coalesced: one sync per event, and the one base
	// blob of each registration (a log this short is never compacted).
	if got, want := s.mx.logSyncs.Load(), int64(rounds*len(evs)); got != want {
		t.Errorf("log_syncs_total = %d, want %d", got, want)
	}
	if got, want := s.mx.checkpointsTotal.Load(), int64(rounds); got != want {
		t.Errorf("checkpoints_total = %d, want %d", got, want)
	}
}

// TestCheckpointCountAtCadence: a session of N events at cadence c syncs its
// log ⌊N/c⌋ times — the hand-off waits for the previous sync, it never drops
// the due one — beside the one base blob of its registration, and the byte
// counters follow the files. The cadence counts events, not frames: a feed
// window ends where a sync falls due, so the count and what the disk holds at
// each are the same whether a frame carries one event, a few (5: every other
// frame straddles a boundary), more than a feed window or the whole session —
// or whatever a Client's writer happened to put in it. It is also the first
// line of the durability contract: at an acknowledged verb the disk is less
// than one cadence behind the engine.
func TestCheckpointCountAtCadence(t *testing.T) {
	const cadence = 7
	ts, evs := pipelineTrace(t, 240)
	// atCadence checks the daemon after a reply-bearing verb, which is
	// answered after the in-flight sync: the disk holds the session up to the
	// last cadence boundary.
	atCadence := func(t *testing.T, s *Server, dir string, sid uint64, fed []int) {
		t.Helper()
		if fed[0]+fed[1] != len(evs) {
			t.Fatalf("daemon absorbed %v of %d events", fed, len(evs))
		}
		if got, want := s.mx.logSyncs.Load(), int64(len(evs)/cadence); got != want {
			t.Errorf("log_syncs_total = %d after %d events at cadence %d, want %d", got, len(evs), cadence, want)
		}
		if got := s.mx.checkpointsTotal.Load(); got != 1 {
			t.Errorf("checkpoints_total = %d, want the one base blob of the registration", got)
		}
		if got, want := diskEvents(t, dir, sid), len(evs)/cadence*cadence; got != want {
			t.Errorf("the disk holds %d events at the acknowledgement, want %d", got, want)
		}
	}
	for _, k := range []int{1, 5, feedWindow + 3, len(evs)} {
		t.Run(strconv.Itoa(k)+" to a frame", func(t *testing.T) {
			dir := t.TempDir()
			s := newTestServer(t, Config{StateDir: dir, CheckpointEvery: cadence, MetricsAddr: "off"})
			rc, _ := dialRaw(t, s.Addr(), dist.RPCVersion)
			sid := rc.call(&dist.RPCMsg{Kind: dist.RPCRegister, Tenant: "acme", Formula: pipelineFormula,
				Init: ts.InitialState(), Props: ts.Props}, dist.RPCRegistered).SID
			rc.ingest(sid, evs, k)
			atCadence(t, s, dir, sid, rc.call(&dist.RPCMsg{Kind: dist.RPCAttach, SID: sid}, dist.RPCRegistered).Fed)
			rc.call(&dist.RPCMsg{Kind: dist.RPCClose, SID: sid}, dist.RPCClosed)
		})
	}

	dir := t.TempDir()
	s := newTestServer(t, Config{StateDir: dir, CheckpointEvery: cadence})
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sid, _, err := cl.Register("acme", pipelineFormula, ts.InitialState(), ts.Props)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evs {
		if err := cl.Ingest(sid, e); err != nil {
			t.Fatal(err)
		}
	}
	_, fed, err := cl.Attach(sid)
	if err != nil {
		t.Fatal(err)
	}
	atCadence(t, s, dir, sid, fed)
	blob, err := os.ReadFile(checkpointPath(dir, sid))
	if err != nil {
		t.Fatal(err)
	}
	// The phase counters, as a scraper sees them. install_wait may
	// legitimately read 0 on a fast disk; the others cannot.
	resp, err := http.Get("http://" + s.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	samples := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if name, value, ok := strings.Cut(line, " "); ok && (strings.HasPrefix(name, "dlmond_checkpoint") || strings.HasPrefix(name, "dlmond_log")) {
			samples[name], _ = strconv.ParseFloat(value, 64)
		}
	}
	for _, name := range []string{
		"dlmond_checkpoint_barrier_seconds_total", "dlmond_checkpoint_encode_seconds_total",
		"dlmond_checkpoint_install_seconds_total", "dlmond_checkpoint_bytes_total",
		"dlmond_log_sync_seconds_total", "dlmond_log_bytes_total",
	} {
		if samples[name] <= 0 {
			t.Errorf("/metrics: %s = %v after a base blob and %d syncs", name, samples[name], len(evs)/cadence)
		}
	}
	if got, want := samples["dlmond_log_syncs_total"], float64(len(evs)/cadence); got != want {
		t.Errorf("/metrics: dlmond_log_syncs_total = %v, want %v", got, want)
	}
	for _, name := range []string{"dlmond_log_replayed_events_total", "dlmond_log_torn_tails_total"} {
		if v, ok := samples[name]; !ok || v != 0 {
			t.Errorf("/metrics: %s = %v (present: %v), want 0 on a daemon that recovered nothing", name, v, ok)
		}
	}
	if _, ok := samples["dlmond_checkpoint_install_wait_seconds_total"]; !ok {
		t.Error("/metrics: no dlmond_checkpoint_install_wait_seconds_total")
	}
	if samples["dlmond_checkpoint_bytes_total"] < float64(len(blob)) {
		t.Errorf("checkpoint_bytes_total %v is less than the one file on disk (%d)", samples["dlmond_checkpoint_bytes_total"], len(blob))
	}
	if _, err := cl.CloseSession(sid); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointShutdownVsInstall: Shutdown arriving while a sync is in
// flight waits for it, then syncs what is still pending; the next start
// recovers every event the daemon had absorbed.
func TestCheckpointShutdownVsInstall(t *testing.T) {
	rounds := 20
	if testing.Short() {
		rounds = 3
	}
	ts, evs := pipelineTrace(t, 40)
	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		cfg := Config{StateDir: dir, CheckpointEvery: 1, MetricsAddr: "off"}
		s1, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := Dial(s1.Addr())
		if err != nil {
			t.Fatal(err)
		}
		sid, _, err := cl.Register("acme", pipelineFormula, ts.InitialState(), ts.Props)
		if err != nil {
			t.Fatal(err)
		}
		sent := len(evs) - round // a different stopping point each round
		for _, e := range evs[:sent] {
			if err := cl.Ingest(sid, e); err != nil {
				t.Fatal(err)
			}
		}
		// No synchronous verb here — it would wait the sync out. Poll the
		// ingest counter instead; the last event's sync is then starting or
		// under way.
		for s1.mx.eventsTotal.Load() < int64(sent) {
			if s1.mx.errorsTotal.Load() != 0 {
				t.Fatal("ingest failed")
			}
			runtime.Gosched()
		}
		if err := s1.Shutdown(); err != nil {
			t.Fatal(err)
		}
		cl.Close()
		if tmps, _ := filepath.Glob(filepath.Join(dir, ".session-*.tmp")); len(tmps) != 0 {
			t.Fatalf("round %d: shutdown left %v", round, tmps)
		}

		s2, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cl2, err := Dial(s2.Addr())
		if err != nil {
			t.Fatal(err)
		}
		_, fed, err := cl2.Attach(sid)
		if err != nil {
			t.Fatalf("round %d: attach after restart: %v", round, err)
		}
		if fed[0]+fed[1] != sent {
			t.Fatalf("round %d: recovered fed counts %v, sent %d", round, fed, sent)
		}
		if got := s2.mx.checkpointErrors.Load() + s1.mx.checkpointErrors.Load(); got != 0 {
			t.Errorf("round %d: %d checkpoint errors", round, got)
		}
		cl2.Close()
		s2.Shutdown()
	}
}

// TestRecoverySweepsStaleTemps: a kill -9 during an install leaves the temp
// file behind. The next start removes it — whatever naming scheme wrote it —
// and still recovers the valid checkpoint beside it.
func TestRecoverySweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	ts := dist.RunningExample()
	cfg := Config{StateDir: dir, MetricsAddr: "off"}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s1.Shutdown() })
	cl, err := Dial(s1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sid, _, err := cl.Register("acme", dist.RunningExampleProperty, ts.InitialState(), ts.Props)
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	s1.crash()

	good, err := os.ReadFile(checkpointPath(dir, sid))
	if err != nil {
		t.Fatal(err)
	}
	planted := []string{
		checkpointTemp(dir, sid),                        // this daemon's naming
		filepath.Join(dir, ".session-7-1234567890.tmp"), // os.CreateTemp's, from older daemons
	}
	for _, name := range planted {
		if err := os.WriteFile(name, good[:len(good)/2], 0o600); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown()
	if got := s2.Recovered(); got != 1 {
		t.Errorf("recovered %d sessions, want 1", got)
	}
	if got := s2.mx.checkpointErrors.Load(); got != 0 {
		t.Errorf("%d checkpoint errors: a temp file was read as a checkpoint", got)
	}
	for _, name := range planted {
		if _, err := os.Stat(name); !os.IsNotExist(err) {
			t.Errorf("stale temp %s survived the start (stat: %v)", filepath.Base(name), err)
		}
	}
}

// TestRecoverySkipsPreviousVersion: a state directory written by the previous
// build holds DMSN version 3 checkpoints (the floors record changed under
// version 4). Such a file is skipped and counted at start-up, never
// half-understood and never a failed start; the session beside it recovers.
func TestRecoverySkipsPreviousVersion(t *testing.T) {
	dir := t.TempDir()
	ts := dist.RunningExample()
	cfg := Config{StateDir: dir, MetricsAddr: "off"}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s1.Shutdown() })
	cl, err := Dial(s1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var sids [2]uint64
	for i := range sids {
		if sids[i], _, err = cl.Register("acme", dist.RunningExampleProperty, ts.InitialState(), ts.Props); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	s1.crash()

	// Rewrite the first checkpoint as version 3 wrote its container: the
	// version byte, and the CRC that closes the blob over it.
	path := checkpointPath(dir, sids[0])
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if blob[4] != dist.SnapshotVersion {
		t.Fatalf("checkpoint version byte %d, want %d", blob[4], dist.SnapshotVersion)
	}
	blob[4] = dist.SnapshotVersion - 1
	body := len(blob) - 6 // end record: tag 0, length 4, CRC-32
	binary.LittleEndian.PutUint32(blob[body+2:], crc32.ChecksumIEEE(blob[:body]))
	if err := os.WriteFile(path, blob, 0o600); err != nil {
		t.Fatal(err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("a version %d checkpoint failed the start: %v", dist.SnapshotVersion-1, err)
	}
	defer s2.Shutdown()
	if got := s2.Recovered(); got != 1 {
		t.Errorf("recovered %d sessions, want 1 (the version %d one)", got, dist.SnapshotVersion)
	}
	if got := s2.mx.checkpointErrors.Load(); got != 1 {
		t.Errorf("%d checkpoint errors, want 1 for the skipped file", got)
	}
	cl2, err := Dial(s2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if _, _, err := cl2.Attach(sids[0]); err == nil {
		t.Errorf("session %d was recovered from a version %d checkpoint", sids[0], dist.SnapshotVersion-1)
	}
}
