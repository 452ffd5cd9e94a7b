// Command bench is the repository's benchmark: it generates each workload
// from a seed, drives it end to end (untraced) or layer by layer (traced),
// checks every verdict set against a reference, and prints every metric by
// name with its unit. README.md in this directory is the reading guide;
// BENCHMARK.json at the repository root is the contract it is run under.
//
//	bash bench/run.sh                      # all workloads, untraced then traced
//	bash bench/run.sh -workload serve-detect -seed 7 -seconds 15 -trace 0
//	bash bench/run.sh -repeat 2            # two untraced sets, must agree
//	bash bench/run.sh -smoke               # every code path in a few seconds
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric of the contract.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
}

// endToEnd are the metrics a user of the system sees; every workload reports
// all of them from its untraced run. README.md defines each.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"events_per_s", "events/s", true},
	{"cpu_us_per_event", "us", false},
	{"peak_rss_mb", "MB", false},
	{"verdict_latency_p50_ms", "ms", false},
	{"session_time_p50_ms", "ms", false},
}

// measurement is one metric value as printed.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last-line JSON object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

// options are the command's flags.
type options struct {
	root     string // the checkout: the working directory
	workload string
	seed     int64
	seconds  float64
	trace    int // 0 untraced, 1 traced, -1 both
	repeat   int
	smoke    bool
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// A run sets up at least minSetupRounds times, and goes on until it has
// spent setupBudget or reached maxSetupRounds; setup_s is the median round.
// A 25 ms set-up repeats much worse than a 400 ms one, so it gets more rounds.
const (
	minSetupRounds = 5
	maxSetupRounds = 9
	setupBudget    = 1500 * time.Millisecond
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload ("+workloadNames()+"); default all")
	flag.Int64Var(&o.seed, "seed", 2015, "derives every generator seed; same seed, same inputs")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", -1, "0: untraced end-to-end metrics; 1: traced per-layer metrics; default both")
	flag.IntVar(&o.repeat, "repeat", 0, "run the untraced set this many times and fail unless all end-to-end metrics agree within BENCHMARK.json's bounds")
	flag.BoolVar(&o.smoke, "smoke", false, "drive every code path on tiny inputs (about a second per workload, in-process dlmond)")
	flag.BoolVar(&corruptReference, "corrupt-reference", false, "test only: falsify every reference verdict set; the run must then fail")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if _, err := os.Stat(filepath.Join(root, "bench", "go.mod")); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s is not the repository root; run `bash bench/run.sh`\n", root)
		os.Exit(2)
	}
	o.root = root
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ok, err := run(ctx, o)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes what the flags ask for; ok is false when an operation failed
// its correctness check or a -repeat comparison missed its bound.
func run(ctx context.Context, o options) (ok bool, err error) {
	if o.seconds <= 0 {
		return false, fmt.Errorf("-seconds must be positive")
	}
	if o.smoke {
		o.seconds = min(o.seconds, 1)
	}
	var ws []*workload
	if o.workload == "" {
		ws = workloads
	} else if w := workloadByName(o.workload); w != nil {
		ws = []*workload{w}
	} else {
		return false, fmt.Errorf("unknown workload %q (have %s)", o.workload, workloadNames())
	}
	if o.repeat > 0 {
		return runRepeat(ctx, o, ws)
	}
	one := runWorkload
	if len(ws) > 1 {
		one = runChild
	} else {
		printHeader(o)
	}
	ok = true
	for _, traced := range []int{0, 1} {
		if o.trace >= 0 && o.trace != traced {
			continue
		}
		for _, w := range ws {
			res, err := one(ctx, o, w, traced == 1)
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			ok = ok && res.Correct
		}
	}
	return ok, nil
}

// runChild runs one workload in a process of its own, as the driver does,
// and reads its result line back. CPU time and resident set are properties
// of a process: a workload measured after another one in the same process
// would inherit its heap (replay-short read 19 MB alone and 24 MB after the
// stream workloads).
func runChild(ctx context.Context, o options, w *workload, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if corruptReference {
		args = append(args, "-corrupt-reference")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Dir, cmd.Stderr = o.root, os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		fmt.Println(last)
	}
	// A child that found an incorrect verdict exits 1 after printing its
	// result line; only a child without one is an error.
	werr := cmd.Wait()
	var res result
	if jerr := json.Unmarshal([]byte(last), &res); jerr != nil || res.Metrics == nil {
		return nil, fmt.Errorf("child run printed no result (%v)", werr)
	}
	return &res, nil
}

// printHeader records what the run ran on, so that two result files can be
// shown to be comparable.
func printHeader(o options) {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", o.root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("# bench seed=%d seconds=%g nproc=%d GOMAXPROCS=%d %s commit=%s smoke=%v\n",
		o.seed, o.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, o.smoke)
}

// env is a workload set up and ready to drive.
type env struct {
	w  *workload
	in *inputs
	d  daemon // nil for in-process workloads
}

func (e *env) tearDown() error {
	if e.d == nil {
		return nil
	}
	return e.d.stop()
}

// setUp does everything a run needs before its first measured byte:
// generate and encode the traces, decode them back, synthesize the automata,
// compute the reference verdicts, start the server (bin is the dlmond to
// start; "" for the in-process one).
func setUp(o options, w *workload, bin string) (*env, error) {
	e := &env{w: w}
	scale := 1.0
	if o.smoke {
		scale = 0.02
	}
	var err error
	if e.in, err = buildInputs(w, o.seed, scale); err != nil {
		return nil, err
	}
	if w.serve {
		if e.d, err = startDaemon(o, bin, w.durable); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func startDaemon(o options, bin string, durable bool) (daemon, error) {
	if o.smoke {
		return startLocalDaemon(o.root, durable)
	}
	return spawnDlmond(bin, o.root, durable)
}

// setUpMedian sets up several times, keeps the last environment and returns
// the median set-up time. dlmond is built from source once, before the first
// round and outside the timing: a warm `go build` is a third of a served
// round, is the part that repeats worst, and prices the Go toolchain rather
// than anything a change to this repository could move into set-up.
func setUpMedian(ctx context.Context, o options, w *workload) (*env, float64, error) {
	var bin string
	if w.serve && !o.smoke {
		var err error
		if bin, err = buildDlmond(ctx, o.root); err != nil {
			return nil, 0, err
		}
	}
	var times []float64
	start := time.Now()
	for {
		runtime.GC() // each round starts from the same heap
		t0 := time.Now()
		e, err := setUp(o, w, bin)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		n := len(times)
		if o.smoke || n >= maxSetupRounds || (n >= minSetupRounds && time.Since(start) >= setupBudget) {
			return e, median(times), nil
		}
		if err := e.tearDown(); err != nil {
			return nil, 0, fmt.Errorf("set-up round %d: %w", n, err)
		}
	}
}

// warmUp lets caches fill and lazy set-up finish before anything is timed.
func (e *env) warmUp(ctx context.Context, d time.Duration) error {
	// A session that fails here fails again in the measured window, where
	// it is counted.
	var err error
	if e.w.serve {
		_, _, err = runServe(ctx, e.w, e.in, e.d, d, serveOpts{warm: true})
	} else {
		_, err = runInproc(ctx, e.w, e.in, d, inprocOpts{})
	}
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// measure is one untraced measured run.
func (e *env) measure(ctx context.Context, d time.Duration) (*window, *serveTotals, error) {
	if e.w.serve {
		return runServe(ctx, e.w, e.in, e.d, d, serveOpts{})
	}
	win, err := runInproc(ctx, e.w, e.in, d, inprocOpts{})
	return win, nil, err
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runWorkload runs one workload once, untraced or traced, and prints its
// metrics, last of all as the contract's one-line JSON object.
func runWorkload(ctx context.Context, o options, w *workload, traced bool) (res *result, err error) {
	e, setupS, err := setUpMedian(ctx, o, w)
	if err != nil {
		return nil, err
	}
	defer func() {
		// The daemon is stopped and its state removed on every path,
		// including a failed correctness check.
		if terr := e.tearDown(); terr != nil && err == nil {
			err = terr
		}
	}()
	fmt.Printf("\n## %s (%s) trace=%v inputs: %d traces, %d events, fnv64a=%016x\n",
		w.name, loopShape(w), traced, len(e.in.pool), e.in.totalEvents(), e.in.hash)
	warm := seconds(min(1.5, o.seconds/4))
	if err := e.warmUp(ctx, warm); err != nil {
		return nil, err
	}
	if traced {
		res, err = runTraced(ctx, o, e)
	} else {
		var win *window
		if win, _, err = e.measure(ctx, seconds(o.seconds)); err == nil {
			res = summarize(win, setupS)
			printEndToEnd(w, win, res)
		}
	}
	if err != nil {
		return nil, err
	}
	// The contract's last line of standard output.
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return res, nil
}

func loopShape(w *workload) string {
	where := "in-process"
	if w.serve {
		where = "dlmond"
	}
	if w.rate > 0 {
		return fmt.Sprintf("%s, open loop %g sessions/s", where, w.rate)
	}
	return where + ", closed loop"
}

// eventsPerSec is the throughput of a window: the median slice of a closed
// loop, the achieved overall rate of an open one.
func eventsPerSec(win *window) float64 {
	if win.perTrace {
		return win.typical(func(o op) float64 { return float64(o.events) / o.dur.Seconds() })
	}
	if len(win.slices) > 0 {
		return median(win.slices)
	}
	if win.wall <= 0 {
		return 0
	}
	return float64(win.events()) / win.wall.Seconds()
}

// summarize turns an untraced window into the contract's result.
func summarize(win *window, setupS float64) *result {
	failed, mismatched := win.failed()
	events := float64(max(1, win.events()))
	vals := map[string]float64{
		"setup_s":                setupS,
		"events_per_s":           eventsPerSec(win),
		"cpu_us_per_event":       us(win.cpu) / events,
		"peak_rss_mb":            win.rssMB,
		"verdict_latency_p50_ms": win.typical(verdictMs),
		"session_time_p50_ms":    win.typical(sessionMs),
	}
	res := &result{
		// A wrong verdict set makes the result incorrect; a session that
		// errors is failed. A session that merely runs late is neither.
		Correct:   mismatched == 0 && len(win.ops) > 0,
		Attempted: max(1, len(win.ops)),
		Failed:    failed,
		Metrics:   map[string]measurement{},
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = measurement{Value: vals[m.name], Unit: m.unit}
	}
	return res
}

func printEndToEnd(w *workload, win *window, res *result) {
	for _, m := range endToEnd {
		fmt.Printf("%-28s %14.4f %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	if len(win.slices) > 0 {
		q1, q2, q3 := quartiles(win.slices)
		fmt.Printf("  events_per_s slices: n=%d q1=%.0f median=%.0f q3=%.0f\n", len(win.slices), q1, q2, q3)
	}
	lat := win.values(verdictMs)
	fmt.Printf("  verdict latency: n=%d p50=%.3f ms p99=%.3f ms\n", len(lat), percentile(lat, 50), percentile(lat, 99))
	if w.rate > 0 {
		late := win.values(lateMs)
		fmt.Printf("  generator lateness: p50=%.3f ms p99=%.3f ms max=%.3f ms; sessions past a service limit (%s late, %s to the verdict): %d\n",
			percentile(late, 50), percentile(late, 99), percentile(late, 100), lateLimit, verdictLimit, win.slow())
	}
	fmt.Printf("  VmHWM at the end: %.2f MB; CPU time stolen by the hypervisor during the window: %.1f%%\n", win.hwmMB, 100*win.stolen)
	fmt.Printf("  operations: attempted=%d failed=%d wall=%.2fs\n", res.Attempted, res.Failed, win.wall.Seconds())
	if res.Failed > 0 {
		fmt.Printf("  first failure: %s\n", win.firstFailure())
	}
}

// contract is the part of BENCHMARK.json that -repeat reads.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	RunSeconds int `json:"run_seconds"`
}

func readContract(root string) (*contract, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// runRepeat runs the untraced set o.repeat times and checks that every
// end-to-end metric of every workload agrees with the first set within the
// contract's bound.
func runRepeat(ctx context.Context, o options, ws []*workload) (bool, error) {
	c, err := readContract(o.root)
	if err != nil {
		return false, err
	}
	bound := map[string]float64{}
	for _, m := range c.EndToEnd {
		bound[m.Name] = m.Bound
	}
	sets := make([]map[string]*result, o.repeat)
	ok := true
	for i := range sets {
		sets[i] = map[string]*result{}
		fmt.Printf("\n# set %d of %d\n", i+1, o.repeat)
		for _, w := range ws {
			res, err := runChild(ctx, o, w, false)
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			ok = ok && res.Correct
			sets[i][w.name] = res
		}
	}
	fmt.Printf("\n# agreement of sets 2..%d with set 1 (worse-by share, bound)\n", o.repeat)
	for _, w := range ws {
		for _, m := range endToEnd {
			base := sets[0][w.name].Metrics[m.name].Value
			for i := 1; i < len(sets); i++ {
				got := sets[i][w.name].Metrics[m.name].Value
				// Either set may be the worse one: the check is symmetric.
				d := max(worseBy(base, got, m.higher), worseBy(got, base, m.higher))
				verdict := "ok"
				if d > bound[m.name] {
					verdict, ok = "OUTSIDE BOUND", false
				}
				fmt.Printf("%-14s %-24s set1=%-12.4f set%d=%-12.4f diff=%.3f bound=%.2f %s\n",
					w.name, m.name, base, i+1, got, d, bound[m.name], verdict)
			}
		}
	}
	return ok, nil
}
