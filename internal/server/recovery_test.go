package server

// The crash matrix: recovery by replaying the input log, as a property over
// everything a crash can leave in a state directory. Every case starts a
// daemon over some wreckage and holds it to four things: the start succeeds,
// the session's fed counts are the base plus the whole records of the log's
// valid prefix, no file of the session survives but that base and that log,
// and once the feeder has re-sent the rest the verdict set is the
// uninterrupted run's.

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"decentmon/internal/dist"
	"decentmon/internal/wire"
)

// matrixCadence and matrixFloor make a session of a few hundred events sync
// dozens of times and compact several: the constants a daemon ships with
// would ask for a hundred times the events.
const (
	matrixCadence = 16
	matrixFloor   = 1 << 10
)

// uninterrupted is the verdict set of a session fed whole to a daemon without
// a state directory.
func uninterrupted(t *testing.T, ts *dist.TraceSet, formula string, evs []*dist.Event) string {
	t.Helper()
	s := newTestServer(t, Config{MetricsAddr: "off"})
	rc, _ := dialRaw(t, s.Addr(), dist.RPCVersion)
	sid := rc.call(&dist.RPCMsg{Kind: dist.RPCRegister, Tenant: "acme", Formula: formula,
		Init: ts.InitialState(), Props: ts.Props}, dist.RPCRegistered).SID
	rc.ingest(sid, evs, len(evs))
	return codeString(rc.call(&dist.RPCMsg{Kind: dist.RPCClose, SID: sid}, dist.RPCClosed).Verdicts)
}

// crashImage is a state directory as a kill left it, taken apart: the base
// blob's event count and log generation, and the log cut into its records.
type crashImage struct {
	dir    string
	sid    uint64
	n      int
	gen    uint64
	base   int    // events inside the base blob
	log    []byte // the log file, preallocated tail and all
	bounds []int  // bounds[i] is where record i begins; the last entry is where the records end
	fed    []int  // events in the records before bounds[i]
}

// takeCrashImage feeds the first sent events of evs to a durable daemon in
// frames of five, has them acknowledged, and kills the daemon.
func takeCrashImage(t *testing.T, ts *dist.TraceSet, formula string, evs []*dist.Event, sent int) *crashImage {
	t.Helper()
	dir := t.TempDir()
	s, err := New(Config{StateDir: dir, CheckpointEvery: matrixCadence, MetricsAddr: "off"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown() })
	s.compactFloor = matrixFloor
	rc, _ := dialRaw(t, s.Addr(), dist.RPCVersion)
	sid := rc.call(&dist.RPCMsg{Kind: dist.RPCRegister, Tenant: "acme", Formula: formula,
		Init: ts.InitialState(), Props: ts.Props}, dist.RPCRegistered).SID
	rc.ingest(sid, evs[:sent], 5)
	rc.call(&dist.RPCMsg{Kind: dist.RPCAttach, SID: sid}, dist.RPCRegistered)
	rc.c.Close()
	s.crash()
	if got := s.mx.checkpointErrors.Load(); got != 0 {
		t.Fatalf("%d checkpoint errors while feeding", got)
	}

	blob, err := os.ReadFile(checkpointPath(dir, sid))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := decodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	im := &crashImage{dir: dir, sid: sid, n: len(ck.init), gen: ck.logGen, base: int(ck.events)}
	if im.log, err = os.ReadFile(logPath(dir, sid, im.gen)); os.IsNotExist(err) {
		// The last hand-off compacted and nothing was synced since.
		im.bounds, im.fed = []int{0}, []int{0}
		return im
	} else if err != nil {
		t.Fatal(err)
	}
	hdr, recs, end, err := dist.ReadInputLog(im.log)
	if err != nil || hdr.SID != sid || hdr.Gen != im.gen {
		t.Fatalf("the log the kill left reads as %+v (%v)", hdr, err)
	}
	at := len(dist.AppendInputLogHeader(nil, hdr))
	for i, rec := range recs {
		im.bounds, im.fed = append(im.bounds, at), append(im.fed, logEvents(t, recs[:i], im.n))
		at += len(dist.AppendInputLogRecord(nil, rec.Kind, rec.Payload))
	}
	im.bounds, im.fed = append(im.bounds, at), append(im.fed, logEvents(t, recs, im.n))
	if at != end {
		t.Fatalf("records end at %d, the reader says %d", at, end)
	}
	return im
}

// matrixImage kills a daemon some four fifths into the session, at a point
// where it has compacted at least twice and its log holds a few records (where
// compactions fall depends on the size of the engine's snapshots, which the
// scheduler has a say in).
func matrixImage(t *testing.T, ts *dist.TraceSet, evs []*dist.Event) *crashImage {
	t.Helper()
	for sent := len(evs) * 4 / 5; sent < len(evs); sent += matrixCadence {
		if im := takeCrashImage(t, ts, pipelineFormula, evs, sent); im.gen >= 2 && len(im.bounds) > 4 {
			return im
		}
	}
	t.Fatal("no kill point with two compactions behind it and a few records in the log")
	return nil
}

// wreck copies the image into a fresh directory and lets mutate at it; log is
// the path of the copy's log file.
func (im *crashImage) wreck(t *testing.T, mutate func(dir, log string)) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range stateFiles(t, im.dir) {
		data, err := os.ReadFile(filepath.Join(im.dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	mutate(dir, logPath(dir, im.sid, im.gen))
	return dir
}

// recoverAndFinish starts a daemon over dir and holds it to the matrix's four
// demands; wantFed is the events the session must come back with.
func (im *crashImage) recoverAndFinish(t *testing.T, dir string, wantFed int, evs []*dist.Event, want string) *Server {
	t.Helper()
	s, err := New(Config{StateDir: dir, CheckpointEvery: matrixCadence, MetricsAddr: "off"})
	if err != nil {
		t.Fatalf("the start failed: %v", err)
	}
	defer s.Shutdown()
	s.compactFloor = matrixFloor
	if got := s.Recovered(); got != 1 {
		t.Fatalf("recovered %d sessions, want 1 (%d errors)", got, s.mx.checkpointErrors.Load())
	}
	for _, name := range stateFiles(t, dir) {
		if name != filepath.Base(checkpointPath(dir, im.sid)) && name != filepath.Base(logPath(dir, im.sid, im.gen)) {
			t.Errorf("%s survived the start", name)
		}
	}
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, fed, err := cl.Attach(im.sid)
	if err != nil {
		t.Fatal(err)
	}
	if got := fed[0] + fed[1]; got != wantFed {
		t.Fatalf("recovered with %d events (fed %v), want %d", got, fed, wantFed)
	}
	if got := s.mx.logReplayed.Load(); got != int64(wantFed-im.base) {
		t.Errorf("log_replayed_events_total = %d, want %d", got, wantFed-im.base)
	}
	feedRemaining(t, cl, im.sid, evs, fed)
	codes, err := cl.CloseSession(im.sid)
	if err != nil {
		t.Fatal(err)
	}
	if got := codeString(codes); got != want {
		t.Errorf("verdicts after the recovery {%s}, uninterrupted {%s}", got, want)
	}
	if left := stateFiles(t, dir); len(left) != 0 {
		t.Errorf("the closed session left %v", left)
	}
	return s
}

// TestCrashMatrixTornLog cuts the log at every record boundary and at every
// byte of its last two records: each cut costs the records it touches and
// nothing else.
func TestCrashMatrixTornLog(t *testing.T) {
	ts, evs := pipelineTrace(t, 240)
	want := uninterrupted(t, ts, pipelineFormula, evs)
	im := matrixImage(t, ts, evs)
	last := len(im.bounds) - 1
	cuts := slices.Clone(im.bounds)
	stride := 1
	if testing.Short() {
		stride = 13
	}
	for at := im.bounds[last-2] + 1; at < im.bounds[last]; at += stride {
		cuts = append(cuts, at)
	}
	cuts = append(cuts, 0, 3, im.bounds[0]-1) // no file to speak of, half a magic, a header short of its CRC
	for _, cut := range cuts {
		whole, _ := slices.BinarySearch(im.bounds, cut+1) // records that end at or before the cut
		whole = max(whole-1, 0)
		dir := im.wreck(t, func(_, log string) {
			if err := os.Truncate(log, int64(cut)); err != nil {
				t.Fatal(err)
			}
		})
		s := im.recoverAndFinish(t, dir, im.base+im.fed[whole], evs, want)
		torn := cut != 0 && !slices.Contains(im.bounds, cut)
		if got := s.mx.logTornTails.Load(); (got == 1) != torn {
			t.Errorf("cut at %d (records begin at %v): log_torn_tails_total = %d", cut, im.bounds, got)
		}
		if t.Failed() {
			t.Fatalf("log cut at byte %d of %d", cut, im.bounds[last])
		}
	}
}

// TestCrashMatrixWreckage plants what a crash at each step of the pipeline
// leaves beside, or inside, a sound base and log.
func TestCrashMatrixWreckage(t *testing.T) {
	ts, evs := pipelineTrace(t, 240)
	want := uninterrupted(t, ts, pipelineFormula, evs)
	im := matrixImage(t, ts, evs)
	last := len(im.bounds) - 1
	mid := last / 2
	all := im.base + im.fed[last]
	plant := func(name string, data []byte) func(dir, log string) {
		return func(dir, _ string) {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
				t.Fatal(err)
			}
		}
	}
	rewrite := func(edit func(data []byte) []byte) func(dir, log string) {
		return func(_, log string) {
			if err := os.WriteFile(log, edit(bytes.Clone(im.log)), 0o600); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A log of the wrong generation that is sound in itself: were it read, its
	// record would be refused (or, worse, fed).
	stray := func(gen uint64) []byte {
		b := dist.AppendInputLogHeader(nil, dist.InputLogHeader{SID: im.sid, Gen: gen})
		return dist.AppendInputLogRecord(b, dist.LogEnd, wire.AppendInts(nil, 0))
	}
	for _, tc := range []struct {
		name    string
		mutate  func(dir, log string)
		wantFed int
		torn    int64
	}{
		{"nothing", func(string, string) {}, all, 0},
		{"an install cut short", plant(filepath.Base(checkpointTemp("", im.sid)), im.log[:40]), all, 0},
		{"the next generation's log, its base never installed", plant(filepath.Base(logPath("", im.sid, im.gen+1)), stray(im.gen+1)), all, 0},
		{"the previous generation's log, never unlinked", plant(filepath.Base(logPath("", im.sid, im.gen-1)), stray(im.gen-1)), all, 0},
		{"a log without a base", plant(filepath.Base(logPath("", im.sid+41, 0)), stray(0)), all, 0},
		{"no log at all", func(_, log string) { os.Remove(log) }, im.base, 0},
		{"the preallocated tail gone", rewrite(func(d []byte) []byte { return d[:im.bounds[last]] }), all, 0},
		{"a page of zeros where the last record's second half was", rewrite(func(d []byte) []byte {
			clear(d[(im.bounds[last-1]+im.bounds[last])/2:])
			return d
		}), im.base + im.fed[last-1], 1},
		{"one bit flipped mid-log", rewrite(func(d []byte) []byte {
			d[(im.bounds[mid]+im.bounds[mid+1])/2] ^= 0x10
			return d
		}), im.base + im.fed[mid], 1},
		{"one bit flipped in the header", rewrite(func(d []byte) []byte { d[5] ^= 0x01; return d }), im.base, 1},
		{"garbage behind the records", rewrite(func(d []byte) []byte {
			copy(d[im.bounds[last]:], "\x01\x05hello, this is not a record")
			return d
		}), all, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := im.recoverAndFinish(t, im.wreck(t, tc.mutate), tc.wantFed, evs, want)
			if got := s.mx.logTornTails.Load(); got != tc.torn {
				t.Errorf("log_torn_tails_total = %d, want %d", got, tc.torn)
			}
			if got := s.mx.checkpointErrors.Load(); got != 0 {
				t.Errorf("%d checkpoint errors", got)
			}
		})
	}
}

// TestCrashMatrixEveryHandoff kills the daemon after every cadence hand-off of
// one session, in a chain: each daemon recovers what the previous one left —
// base, log, whatever compactions fell in between — takes one more cadence of
// events, has them acknowledged and dies. Every recovery must hold exactly the
// events acknowledged so far, and the last daemon's verdicts are the
// uninterrupted run's.
func TestCrashMatrixEveryHandoff(t *testing.T) {
	perProc := 120
	if testing.Short() {
		perProc = 40
	}
	ts, evs := pipelineTrace(t, perProc)
	want := uninterrupted(t, ts, pipelineFormula, evs)
	dir := t.TempDir()
	cfg := Config{StateDir: dir, CheckpointEvery: matrixCadence, MetricsAddr: "off"}
	var sid uint64
	var bases int64
	for sent := 0; ; sent += matrixCadence {
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("start after %d events: %v", sent, err)
		}
		t.Cleanup(func() { s.Shutdown() })
		s.compactFloor = matrixFloor
		cl, err := Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		var fed []int
		if sent == 0 {
			sid, _, err = cl.Register("acme", pipelineFormula, ts.InitialState(), ts.Props)
			fed = []int{0, 0}
		} else {
			_, fed, err = cl.Attach(sid)
		}
		if err != nil {
			t.Fatalf("after %d events: %v", sent, err)
		}
		if got := fed[0] + fed[1]; got != sent {
			t.Fatalf("recovered with %d events (fed %v), %d were acknowledged", got, fed, sent)
		}
		if sent+matrixCadence > len(evs) {
			feedRemaining(t, cl, sid, evs, fed)
			codes, err := cl.CloseSession(sid)
			if err != nil {
				t.Fatal(err)
			}
			if got := codeString(codes); got != want {
				t.Errorf("verdicts after %d kills {%s}, uninterrupted {%s}", sent/matrixCadence, got, want)
			}
			cl.Close()
			s.Shutdown()
			break
		}
		feedRemaining(t, cl, sid, evs[:sent+matrixCadence], fed)
		if _, _, err := cl.Attach(sid); err != nil {
			t.Fatal(err)
		}
		cl.Close()
		s.crash()
		if got := s.mx.checkpointErrors.Load(); got != 0 {
			t.Fatalf("%d checkpoint errors after %d events", got, sent)
		}
		bases += s.mx.checkpointsTotal.Load()
	}
	if bases < 2 {
		t.Errorf("%d base blobs over the whole chain, want the registration's and at least one compaction's", bases)
	}
	if left := stateFiles(t, dir); len(left) != 0 {
		t.Errorf("the closed session left %v", left)
	}
}

// TestRecoveryOfParentCheckpoint: a base blob written by the commit before
// sessions had logs carries no log record. It is generation 0 with nothing
// logged, recovers whole, and the session carries on under the new scheme.
func TestRecoveryOfParentCheckpoint(t *testing.T) {
	// The fixture: the running example's first five events sent at cadence
	// 2, so four are inside.
	recoverFixture(t, "session-pr22.dmsn", dist.RunningExampleProperty, 4)
}

// TestRecoveryOfSubsetCheckpoint: a base blob written when monitors still
// spanned the whole declared alphabet, of a formula that reads two of the
// running example's three propositions. Its automaton fingerprint hashes δ
// over the three; the session restores through the declared-alphabet
// fingerprint and closes with a fresh server's verdicts.
func TestRecoveryOfSubsetCheckpoint(t *testing.T) {
	// The fixture: the first five events sent at cadence 4, the log compacted
	// at the first hand-off, so four are inside and none is logged beside it.
	recoverFixture(t, "session-pr30-subset.dmsn", "G (x1>=5 -> F x1=10)", 4)
}

// TestRecoveryOfStampingCheckpoint: a base blob written by the last build in
// which dlmond stamped events itself carries that stamping's clocks and its
// in-flight messages as records 2 and 3. Both are skipped like any record this
// build does not read: the session restores from its meta and engine records
// alone, and carries on with the tenant's own stamps.
func TestRecoveryOfStampingCheckpoint(t *testing.T) {
	// The fixture: the running example's send of m1, its receipt, P1's two
	// internal events and its send of m2, stamped by the server at cadence 1
	// and compacted into a base of generation 1, m2 still in flight.
	const file = "session-pr50-stamped.dmsn"
	blob, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	r, err := dist.OpenSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	var retired []int
	for {
		tag, payload, ok := r.Next()
		if !ok {
			break
		}
		if tag != ckTagMeta && tag != ckTagEngine && tag != ckTagLog && len(payload) > 1 {
			retired = append(retired, int(tag))
		}
	}
	if !slices.Equal(retired, []int{2, 3}) {
		t.Fatalf("the fixture carries records %v beside meta, engine and log, want a stamper and a token ledger (2, 3)", retired)
	}
	recoverFixture(t, file, dist.RunningExampleProperty, 5)
}

// recoverFixture starts a durable server over testdata/file as session 1,
// whose base blob holds the first inside events of the running example under
// formula, re-feeds the rest at cadence 1 and requires a fresh server's
// verdicts.
func recoverFixture(t *testing.T, file, formula string, inside int) {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(checkpointPath(dir, 1), blob, 0o600); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{StateDir: dir, CheckpointEvery: 1, MetricsAddr: "off"})
	if got := s.Recovered(); got != 1 {
		t.Fatalf("recovered %d sessions, want 1 (%d errors)", got, s.mx.checkpointErrors.Load())
	}
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	epoch, fed, err := cl.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || fed[0]+fed[1] != inside {
		t.Fatalf("the fixture came back at epoch %d with fed %v, want epoch 1 and %d events", epoch, fed, inside)
	}
	evs := exampleEvents(t)
	feedRemaining(t, cl, 1, evs, fed)
	if _, _, err := cl.Attach(1); err != nil {
		t.Fatal(err)
	}
	if got := diskEvents(t, dir, 1); got != len(evs) {
		t.Errorf("the disk holds %d events after the rest was fed at cadence 1, want %d", got, len(evs))
	}
	codes, err := cl.CloseSession(1)
	if err != nil {
		t.Fatal(err)
	}
	fresh := newTestServer(t, Config{MetricsAddr: "off"})
	fcl, err := Dial(fresh.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer fcl.Close()
	if got, want := codeString(codes), codeString(runExampleSession(t, fcl, "fresh", formula, evs)); got != want {
		t.Errorf("verdicts {%s}, a fresh server's {%s}", got, want)
	}
}

// TestRecoverySkipsRefusedLog: a log whose records are whole but wrong — of a
// kind this build does not know or no longer replays, a run that does not
// decode, under another session's header — skips its session exactly as a
// corrupt base does: counted, its files left for whoever investigates, the
// session beside it recovered.
func TestRecoverySkipsRefusedLog(t *testing.T) {
	ts, evs := pipelineTrace(t, 40)
	for name, edit := range map[string]func(t *testing.T, im *crashImage) []byte{
		"a record of an unknown kind": func(t *testing.T, im *crashImage) []byte {
			return dist.AppendInputLogRecord(im.log[:im.bounds[len(im.bounds)-1]:im.bounds[len(im.bounds)-1]], 9, []byte("?"))
		},
		"an event the server stamped itself": func(t *testing.T, im *crashImage) []byte {
			// Kind 2, the record of the retired Emit: what the previous build
			// wrote, and this one cannot replay without the stamper it rebuilt.
			rec, err := dist.AppendEventRecord(nil, evs[len(evs)-1])
			if err != nil {
				t.Fatal(err)
			}
			end := im.bounds[len(im.bounds)-1]
			return dist.AppendInputLogRecord(im.log[:end:end], 2, rec)
		},
		"a run one byte short of its last event": func(t *testing.T, im *crashImage) []byte {
			_, recs, _, _ := dist.ReadInputLog(im.log)
			end := im.bounds[len(im.bounds)-1]
			return dist.AppendInputLogRecord(im.log[:end:end], dist.LogRun, recs[0].Payload[:len(recs[0].Payload)-1])
		},
		"another session's header": func(t *testing.T, im *crashImage) []byte {
			hdr := dist.AppendInputLogHeader(nil, dist.InputLogHeader{SID: im.sid + 1, Gen: im.gen})
			return append(hdr, im.log[im.bounds[0]:]...)
		},
	} {
		t.Run(name, func(t *testing.T) {
			im := takeCrashImage(t, ts, pipelineFormula, evs, 2*matrixCadence)
			bad := edit(t, im)
			dir := im.wreck(t, func(dir, log string) {
				if err := os.WriteFile(log, bad, 0o600); err != nil {
					t.Fatal(err)
				}
				// The neighbour: the same session under another id.
				blob, err := os.ReadFile(checkpointPath(dir, im.sid))
				if err != nil {
					t.Fatal(err)
				}
				ck, err := decodeCheckpoint(blob)
				if err != nil {
					t.Fatal(err)
				}
				if ck.logGen != 0 {
					t.Fatalf("two cadences compacted the session (generation %d): the neighbour would need its log", ck.logGen)
				}
				if err := os.WriteFile(checkpointPath(dir, im.sid+7), renumber(t, blob, im.sid+7), 0o600); err != nil {
					t.Fatal(err)
				}
			})
			before := stateFiles(t, dir)
			s := newTestServer(t, Config{StateDir: dir, CheckpointEvery: matrixCadence, MetricsAddr: "off"})
			if got := s.Recovered(); got != 1 {
				t.Errorf("recovered %d sessions, want the neighbour alone", got)
			}
			if got := s.mx.checkpointErrors.Load(); got != 1 {
				t.Errorf("%d checkpoint errors, want 1", got)
			}
			if after := stateFiles(t, dir); !slices.Equal(after, before) {
				t.Errorf("the start changed the directory from %v to %v", before, after)
			}
			cl, err := Dial(s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if _, _, err := cl.Attach(im.sid); err == nil || !strings.Contains(err.Error(), "no session") {
				t.Errorf("attach to the skipped session: %v", err)
			}
			if _, _, err := cl.Attach(im.sid + 7); err != nil {
				t.Errorf("attach to its neighbour: %v", err)
			}
		})
	}
}

// renumber re-encodes a base blob under another session id.
func renumber(t *testing.T, blob []byte, sid uint64) []byte {
	t.Helper()
	r, err := dist.OpenSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	b := dist.NewSnapshotBuilder()
	for {
		tag, payload, ok := r.Next()
		if !ok {
			return b.Finish()
		}
		if tag == ckTagMeta {
			c := wire.NewCursor(payload)
			c.Uvarint()
			payload = append(wire.AppendUvarint(nil, sid), payload[len(payload)-c.Len():]...)
		}
		b.Record(tag, payload)
	}
}

// TestLogWriteFailureCompacts: a sync that fails leaves a hole in the log.
// Nothing more is appended behind it; the next hand-off writes a fresh base
// instead, and a daemon killed after that recovers every acknowledged event.
func TestLogWriteFailureCompacts(t *testing.T) {
	ts, evs := pipelineTrace(t, 40)
	dir := t.TempDir()
	cfg := Config{StateDir: dir, CheckpointEvery: matrixCadence, MetricsAddr: "off"}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown() })
	rc, _ := dialRaw(t, s.Addr(), dist.RPCVersion)
	sid := rc.call(&dist.RPCMsg{Kind: dist.RPCRegister, Tenant: "acme", Formula: pipelineFormula,
		Init: ts.InitialState(), Props: ts.Props}, dist.RPCRegistered).SID
	rc.ingest(sid, evs[:2*matrixCadence], 5)
	rc.call(&dist.RPCMsg{Kind: dist.RPCAttach, SID: sid}, dist.RPCRegistered)
	// The disk "fails": the log's descriptor is closed under the syncer. The
	// Attach reply above came after the sync, so nobody holds the semaphore.
	sess := s.reg.Get(sid)
	sess.ckpt <- struct{}{}
	sess.log.file.Close()
	<-sess.ckpt
	rc.ingest(sid, evs[2*matrixCadence:4*matrixCadence], 5)
	rc.call(&dist.RPCMsg{Kind: dist.RPCAttach, SID: sid}, dist.RPCRegistered)
	if got := s.mx.checkpointErrors.Load(); got != 1 {
		t.Errorf("%d checkpoint errors, want 1 for the failed sync", got)
	}
	if got := s.mx.checkpointsTotal.Load(); got != 2 {
		t.Errorf("checkpoints_total = %d, want the registration's base and the one that closed the hole", got)
	}
	if got := diskEvents(t, dir, sid); got != 4*matrixCadence {
		t.Errorf("the disk holds %d events, want all %d acknowledged", got, 4*matrixCadence)
	}
	rc.c.Close()
	s.crash()

	s2 := newTestServer(t, cfg)
	cl, err := Dial(s2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, fed, err := cl.Attach(sid)
	if err != nil {
		t.Fatal(err)
	}
	if got := fed[0] + fed[1]; got != 4*matrixCadence {
		t.Errorf("recovered with %d events, want %d", got, 4*matrixCadence)
	}
}

// TestIngestAheadOfDiskBound: a fire-and-forget Ingest stream is less than two
// cadences ahead of the disk at every instant — one buffer being synced, one
// filling. With the session's input lock held nothing is fed and no hand-off
// begins, so what the engine holds is fixed while the disk can only gain.
func TestIngestAheadOfDiskBound(t *testing.T) {
	const cadence = 8
	ts, evs := pipelineTrace(t, 240)
	dir := t.TempDir()
	s := newTestServer(t, Config{StateDir: dir, CheckpointEvery: cadence, MetricsAddr: "off"})
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sid, _, err := cl.Register("acme", pipelineFormula, ts.InitialState(), ts.Props)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.reg.Get(sid)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, e := range evs {
			if err := cl.Ingest(sid, e); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	looks, worst := 0, 0
	for engine := 0; engine < len(evs); looks++ {
		sess.inMu.Lock()
		fed := sess.cs.Fed()
		engine = fed[0] + fed[1]
		ahead := engine - diskEvents(t, dir, sid)
		sess.inMu.Unlock()
		worst = max(worst, ahead)
		if ahead >= 2*cadence {
			t.Fatalf("the engine holds %d events the disk does not, at cadence %d", ahead, cadence)
		}
	}
	wg.Wait()
	t.Logf("%d looks, at most %d events ahead of the disk", looks, worst)
	if _, err := cl.CloseSession(sid); err != nil {
		t.Fatal(err)
	}
}
