package core

// The seeded schedule driver: a built session's monitors run on the test's
// goroutine, one input per round, in an order a seed picks.
//
// The paper's channels are reliable, FIFO per ordered pair and of unbounded
// delay (§2.1), so a correct fleet gives the oracle's verdicts under every
// interleaving of its inputs. The driver's network delivers nothing by itself:
// a send appends the message to its pair's FIFO. A step then picks, by seed, a
// monitor and one of its sources that holds an input — its process's scripted
// feed (the events, then End's total) or the FIFO from one peer — hands that
// one input to the monitor's handler and pumps. That is a run-loop round of
// one input, which pumpBatch's comment argues is protocol-equivalent to the
// batched rounds Monitor.run takes. Feeds go through Session.Feed and
// Session.End onto the monitor's own feed queue, so the session's fed counts
// and the snapshot barrier's accounting are the ones a launched session keeps.
// The run is over when every monitor has finished the termination wave; a
// step that finds no input for an unfinished monitor is a wedge, and names it.

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/lattice"
	"decentmon/internal/ltl"
	"decentmon/internal/props"
	"decentmon/internal/transport"
)

// schedNet is the driver's network: every send appends to fifo[from][to] at
// once, and a message leaves its FIFO only when the driver hands it over.
// With values set its endpoints hand *wireMsg values over, as a ChanNetwork's
// do; without, they carry bytes only, so every message crosses the codec.
type schedNet struct {
	n      int
	values bool
	fifo   [][][]transport.Message
	kinds  [msgFloor + 1]int // messages sent, by kind
	stats  transport.Stats   // never written: the driver counts kinds instead
}

func newSchedNet(n int, values bool) *schedNet {
	nw := &schedNet{n: n, values: values, fifo: make([][][]transport.Message, n)}
	for i := range nw.fifo {
		nw.fifo[i] = make([][]transport.Message, n)
	}
	return nw
}

func (nw *schedNet) Endpoint(i int) transport.Endpoint {
	if nw.values {
		return valueEndpoint{schedEndpoint{nw, i}}
	}
	return schedEndpoint{nw, i}
}

func (nw *schedNet) N() int                  { return nw.n }
func (nw *schedNet) Close() error            { return nil }
func (nw *schedNet) Stats() *transport.Stats { return &nw.stats }

type schedEndpoint struct {
	nw *schedNet
	id int
}

func (e schedEndpoint) ID() int                         { return e.id }
func (e schedEndpoint) Inbox() <-chan transport.Message { return nil }

func (e schedEndpoint) Send(to int, payload []byte) error {
	return e.push(transport.Message{From: e.id, To: to, Payload: payload})
}

func (e schedEndpoint) push(m transport.Message) error {
	if m.To < 0 || m.To >= e.nw.n || m.To == e.id {
		return fmt.Errorf("schedNet: endpoint %d cannot send to %d", e.id, m.To)
	}
	msg, ok := m.Value.(*wireMsg)
	if !ok {
		var err error
		if msg, err = decodeMsg(m.Payload, e.nw.n); err != nil {
			return err
		}
	}
	e.nw.kinds[msg.Kind]++ // before the hand-over: a token is no longer ours after it
	e.nw.fifo[e.id][m.To] = append(e.nw.fifo[e.id][m.To], m)
	return nil
}

type valueEndpoint struct{ schedEndpoint }

func (e valueEndpoint) SendValue(to int, v any, _ int) error {
	return e.push(transport.Message{From: e.id, To: to, Value: v})
}

// schedDriver owns a built, never launched session and the script of its
// execution.
type schedDriver struct {
	s      *Session
	nw     *schedNet
	rng    *rand.Rand
	script [][]*dist.Event // script[p]: process p's events not yet fed
	ended  []bool
	steps  int
	// srcs is the step's scratch: the sources of one monitor that hold an
	// input, -1 for the feed and j for peer j's FIFO.
	srcs []int
}

// newSchedDriver builds a session over ts for mon, on a driver network of the
// given kind, schedules picked by seed, and runs every monitor's INIT.
func newSchedDriver(t *testing.T, ts *dist.TraceSet, mon *automaton.Monitor, skipFinalize, values bool, seed int64) *schedDriver {
	t.Helper()
	n := ts.N()
	nw := newSchedNet(n, values)
	s := builtSession(t, SessionConfig{
		N: n, Automaton: mon, Props: ts.Props, Init: ts.InitialState(),
		SkipFinalize: skipFinalize, Network: nw,
	})
	d := &schedDriver{s: s, nw: nw, rng: rand.New(rand.NewSource(seed)),
		script: make([][]*dist.Event, n), ended: make([]bool, n)}
	for p, tr := range ts.Traces {
		d.script[p] = tr.Events
	}
	for _, m := range s.monitors {
		m.start()
		m.roundDone(1) // the INIT round, as run counts it
	}
	return d
}

// sources fills d.srcs with monitor i's sources that hold an input; feeds
// says whether its scripted feed counts.
func (d *schedDriver) sources(i int, feeds bool) []int {
	d.srcs = d.srcs[:0]
	if feeds && !d.ended[i] {
		d.srcs = append(d.srcs, -1)
	}
	for j := range d.nw.fifo {
		if len(d.nw.fifo[j][i]) > 0 {
			d.srcs = append(d.srcs, j)
		}
	}
	return d.srcs
}

// step runs one round: a monitor picked by seed among the unfinished ones that
// have an input takes one input from one of its sources, also picked by seed.
// It reports false when no monitor has an input; feeds says whether scripted
// feeds may be picked or only messages. A monitor's panic is returned as an
// error naming the step, so that the failing seed is reported with it.
func (d *schedDriver) step(feeds bool) (_ bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("step %d: panic: %v", d.steps+1, r)
		}
	}()
	var ready []int
	for i, m := range d.s.monitors {
		if !m.finished() && len(d.sources(i, feeds)) > 0 {
			ready = append(ready, i)
		}
	}
	if len(ready) == 0 {
		return false, nil
	}
	i := ready[d.rng.Intn(len(ready))]
	m := d.s.monitors[i]
	srcs := d.sources(i, feeds)
	switch j := srcs[d.rng.Intn(len(srcs))]; {
	case j >= 0:
		msg := d.nw.fifo[j][i][0]
		d.nw.fifo[j][i] = d.nw.fifo[j][i][1:]
		m.handleMessage(msg)
	case len(d.script[i]) > 0:
		e := d.script[i][0]
		d.script[i] = d.script[i][1:]
		if err := d.s.Feed(e); err != nil {
			return false, err
		}
		m.handleFeed(<-m.feed)
	default:
		d.ended[i] = true
		if err := d.s.End(i); err != nil {
			return false, err
		}
		m.handleFeed(<-m.feed)
	}
	m.pump()
	m.roundDone(1)
	d.steps++
	if m.err != nil {
		return false, fmt.Errorf("monitor %d, step %d: %w", i, d.steps, m.err)
	}
	return true, nil
}

// maxSteps bounds a schedule, so that a fleet that keeps messaging without
// terminating fails instead of spinning.
const maxSteps = 1 << 20

// run steps until every monitor has finished the termination wave, and checks
// that what is left in the FIFOs is floor announcements, the one kind a
// finished monitor may leave unread (handshake.go).
func (d *schedDriver) run() error {
	for d.steps < maxSteps {
		ok, err := d.step(true)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
	}
	var stuck []int
	for i, m := range d.s.monitors {
		if !m.finished() {
			stuck = append(stuck, i)
		}
	}
	if len(stuck) > 0 {
		return fmt.Errorf("monitors %v stuck after %d steps", stuck, d.steps)
	}
	for j, row := range d.nw.fifo {
		for i, q := range row {
			for _, raw := range q {
				msg, ok := raw.Value.(*wireMsg)
				if !ok {
					msg, _ = decodeMsg(raw.Payload, d.nw.n)
				}
				if msg.Kind != msgFloor {
					return fmt.Errorf("a %v message from monitor %d to %d was left unread at termination", msg.Kind, j, i)
				}
			}
		}
	}
	return nil
}

// drain hands messages over, and feeds nothing, until every FIFO to an
// unfinished monitor is empty: the fleet is then quiescent.
func (d *schedDriver) drain() error {
	for {
		ok, err := d.step(false)
		if err != nil || !ok {
			return err
		}
	}
}

// scheduled runs one schedule of the cell named name to its end and returns
// the result and the verdict events in the order they were detected.
func scheduled(t *testing.T, name string, ts *dist.TraceSet, mon *automaton.Monitor, values bool, seed int64) (*RunResult, []VerdictEvent) {
	t.Helper()
	d := newSchedDriver(t, ts, mon, false, values, seed)
	if err := d.run(); err != nil {
		t.Fatalf("%s, values %v, seed %d: %v", name, values, seed, err)
	}
	res, err := d.s.collect()
	if err != nil {
		t.Fatal(err)
	}
	return res, d.s.emitted
}

// schedSeeds is K, the schedules every cell is driven on.
const schedSeeds = 8

// TestSeededSchedules drives every cell on schedSeeds seeds per endpoint kind
// — values handed over, and bytes through the codec — and holds each schedule
// to the oracle's verdict set: random formulas over executions at n = 2–4,
// and the case-study properties A–F at n = 3 (and at n = 5 without -short).
// Tokens, fetches, TERM and FINI messages interleave as the seed picks, which
// is the adversarial delivery the paper's unbounded delay allows. A repeated
// seed must give identical per-monitor Metrics and the same verdict events in
// the same order.
func TestSeededSchedules(t *testing.T) {
	type cell struct {
		name string
		ts   *dist.TraceSet
		mon  *automaton.Monitor
	}
	var cells []cell
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		ts := dist.Generate(dist.GenConfig{
			N: 2 + trial%3, InternalPerProc: 5, CommMu: 3, CommSigma: 1,
			PlantGoal: trial%2 == 0, Seed: rng.Int63(),
		})
		f := ltl.RandomFormula(rng, 7, ts.Props.Names)
		mon, err := automaton.Build(f, ts.Props.Names)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, cell{fmt.Sprintf("random/%d/n%d/%s", trial, ts.N(), f), ts, mon})
	}
	ns := []int{3}
	if !testing.Short() {
		ns = append(ns, 5)
	}
	for _, n := range ns {
		ts := dist.Generate(dist.GenConfig{
			N: n, InternalPerProc: 5, CommMu: 3, CommSigma: 1, PlantGoal: true, Seed: int64(2015 + n),
		})
		for _, name := range props.Names {
			cells = append(cells, cell{fmt.Sprintf("case/%s/n%d", name, n), ts, mustMonitor(t, propsAF(n)[name], ts.Props.Names)})
		}
	}
	for _, c := range cells {
		want, err := lattice.Evaluate(c.ts, c.mon)
		if err != nil {
			t.Fatal(err)
		}
		for _, values := range []bool{true, false} {
			for seed := int64(1); seed <= schedSeeds; seed++ {
				res, events := scheduled(t, c.name, c.ts, c.mon, values, seed)
				if got := setString(res.Verdicts); got != setString(want.VerdictSet()) {
					t.Errorf("%s, values %v, seed %d: verdicts %s, oracle %s", c.name, values, seed, got, setString(want.VerdictSet()))
				}
				if seed > 1 {
					continue
				}
				again, eventsAgain := scheduled(t, c.name, c.ts, c.mon, values, seed)
				if !reflect.DeepEqual(res.Metrics, again.Metrics) {
					t.Errorf("%s, values %v, seed %d: metrics differ on a repeated seed:\n%+v\n%+v", c.name, values, seed, res.Metrics, again.Metrics)
				}
				if !reflect.DeepEqual(events, eventsAgain) {
					t.Errorf("%s, values %v, seed %d: verdict events differ on a repeated seed:\n%v\n%v", c.name, values, seed, events, eventsAgain)
				}
			}
		}
	}
}

// TestSchedDriverNamesAWedge: a monitor that never hears the root's FINI is
// reported stuck by the driver, with the step it stopped at, instead of
// hanging the test.
func TestSchedDriverNamesAWedge(t *testing.T) {
	ts := dist.Generate(dist.GenConfig{N: 3, InternalPerProc: 3, CommMu: 3, Seed: 5})
	d := newSchedDriver(t, ts, mustMonitor(t, propsAF(3)["B"], ts.Props.Names), false, true, 1)
	for {
		ok, err := d.step(true)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || d.s.monitors[0].finished() {
			break
		}
	}
	// The root has broadcast its FINI: lose the one on its way to monitor 2.
	if q := d.nw.fifo[0][2]; len(q) == 0 || q[len(q)-1].Value.(*wireMsg).Kind != msgFini {
		t.Fatalf("the root finished without a FINI on its way to monitor 2: %v", q)
	}
	d.nw.fifo[0][2] = d.nw.fifo[0][2][:len(d.nw.fifo[0][2])-1]
	err := d.run()
	if err == nil || !strings.Contains(err.Error(), "monitors [2] stuck") {
		t.Fatalf("run over a lost FINI: %v, want monitor 2 reported stuck", err)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/engine-b3.dmsn from the current engine")

// TestEngineSnapshotGolden pins a mid-run engine snapshot byte for byte:
// case-study B at n = 3, driven on one seed to a fixed step, every FIFO then
// drained, and Session.Snapshot taken through its quiescence barrier. The
// engine's state after a schedule is a function of the seed, and the blob is
// DMSN v4, so a change to either shows up here. The committed blob must also
// restore into a session that snapshots to the same bytes and, fed the rest
// of the execution, reaches the oracle's verdicts. Regenerate with
// go test ./internal/core -run TestEngineSnapshotGolden -update, and only for
// a change meant to move the engine's state or the layout.
func TestEngineSnapshotGolden(t *testing.T) {
	const golden = "testdata/engine-b3.dmsn"
	const seed, at = 1, 40
	ts := dist.Generate(dist.GenConfig{N: 3, InternalPerProc: 5, CommMu: 3, CommSigma: 1, PlantGoal: true, Seed: 2018})
	mon := mustMonitor(t, propsAF(3)["B"], ts.Props.Names)
	d := newSchedDriver(t, ts, mon, false, true, seed)
	for d.steps < at {
		ok, err := d.step(true)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("the execution ended before step %d", at)
		}
	}
	if err := d.drain(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	blob, err := d.s.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("seed %d, step %d: the snapshot (%d bytes) differs from %s (%d bytes)", seed, at, len(blob), golden, len(want))
	}

	s, err := RestoreSession(ctx, SessionConfig{N: ts.N(), Automaton: mon, Props: ts.Props, Init: ts.InitialState()}, want)
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Errorf("the restored session snapshots to %d bytes that differ from the %d it was restored from", len(again), len(want))
	}
	fed := s.Fed()
	for p, tr := range ts.Traces {
		for _, e := range tr.Events[fed[p]:] {
			if err := s.Feed(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := setString(res.Verdicts), setString(oracleSet(t, ts, mon)); got != want {
		t.Errorf("restored from the golden and finished: verdicts %s, oracle %s", got, want)
	}
}
