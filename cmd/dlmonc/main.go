// dlmonc is the dlmond client: it drives a full monitoring session over the
// RPC protocol — register a property, subscribe, replay a recorded trace
// set, close — and reports the terminal verdict set the daemon computed.
// It exists for smoke tests, debugging, and light load generation; real
// tenants embed internal/server.Client (or speak the protocol directly).
//
// Usage:
//
//	tracegen -n 2 -events 5 -plant -o t.dmtb
//	dlmond &
//	dlmonc -addr 127.0.0.1:7381 -trace t.dmtb 'F (P0.p && P1.p)'
//
// Against a durable daemon (dlmond -state DIR) a session can be fed in
// installments and resumed across daemon restarts:
//
//	dlmonc -trace t.dmtb -events 100 -no-close 'F (P0.p)'  # prints the sid
//	# ... dlmond crashes or restarts ...
//	dlmonc -trace t.dmtb -attach SID                       # resumes, closes
//
// -attach asks the daemon where the session stands (per-process fed
// counts) and re-sends only what the daemon has not absorbed — including
// anything lost between the last checkpoint and the crash.
//
// Exit status: 0 on success, 1 on error, 2 on usage mistakes, and 3 when
// the verdict set contains ⊥ — the same contract as dlmon, so CI smoke
// legs gate identically on both binaries.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"decentmon/internal/dist"
	"decentmon/internal/server"
)

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dlmonc: %v\n", err)
	os.Exit(1)
}

// closeClient ends the connection. Both ways out of main close it behind a
// synchronous verb, so bytes the client never wrote mean a bug worth an exit
// status, not a line to scroll past.
func closeClient(cl *server.Client) {
	if err := cl.Close(); err != nil {
		fatal(err)
	}
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7381", "dlmond RPC address")
		tenant    = flag.String("tenant", "dlmonc", "tenant identity for admission control")
		tracePath = flag.String("trace", "", "trace set file (.json, .jsonl or .dmtb) from tracegen")
		verbose   = flag.Bool("v", false, "print each streamed verdict detection")
		attach    = flag.Uint64("attach", 0, "resume session SID on a durable daemon instead of registering")
		limit     = flag.Int("events", 0, "ingest at most N events this run (0 = all; pairs with -no-close)")
		noClose   = flag.Bool("no-close", false, "leave the session open for a later -attach instead of closing it")
	)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dlmonc -trace FILE [flags] 'formula'")
		fmt.Fprintln(os.Stderr, "       dlmonc -trace FILE -attach SID [flags]")
		fmt.Fprintln(os.Stderr, "exit status: 0 ok, 1 error, 2 usage, 3 verdict set contains ⊥ (violation)")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *tracePath == "" || (*attach == 0 && flag.NArg() != 1) || (*attach != 0 && flag.NArg() != 0) {
		flag.Usage()
		os.Exit(2)
	}
	formula := "(attached session)"
	if *attach == 0 {
		formula = flag.Arg(0)
	}

	ts, err := dist.LoadFile(*tracePath)
	if err != nil {
		fatal(err)
	}

	cl, err := server.Dial(*addr)
	if err != nil {
		fatal(err)
	}
	cl.OnAsyncError = func(m *dist.RPCMsg) {
		fmt.Fprintf(os.Stderr, "dlmonc: session %d: %s\n", m.SID, m.Err)
	}
	if *verbose {
		cl.OnVerdict = func(m *dist.RPCMsg) {
			fmt.Printf("verdict        : monitor %d -> %s (state %d, cut %v)\n",
				m.Monitor, dist.RPCVerdictString(m.Verdict), m.AutState, m.Cut)
		}
	}

	var (
		sid uint64
		hit bool
		fed []int
	)
	if *attach != 0 {
		sid = *attach
		var epoch uint64
		epoch, fed, err = cl.Attach(sid)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("attached       : session %d at epoch %d, fed %v\n", sid, epoch, fed)
	} else {
		sid, hit, err = cl.Register(*tenant, formula, ts.InitialState(), ts.Props)
		if err != nil {
			fatal(err)
		}
	}
	if err := cl.Subscribe(sid); err != nil {
		fatal(err)
	}
	src := ts.Stream()
	events := 0
	for {
		e, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal(err)
		}
		// On resume, skip the prefix the daemon already absorbed: SN is the
		// event's 1-based per-process sequence number.
		if fed != nil && e.Proc < len(fed) && e.SN <= fed[e.Proc] {
			continue
		}
		if err := cl.Ingest(sid, e); err != nil {
			fatal(err)
		}
		events++
		if *limit > 0 && events >= *limit {
			break
		}
	}
	if *noClose {
		// Ingest is fire-and-forget and the client batches it: ask the daemon
		// where the session stands, which it answers only after handling
		// every event sent before the question.
		_, fed, err := cl.Attach(sid)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("property       : %s\n", formula)
		fmt.Printf("session        : %d on %s left open after %d events, daemon at %v (resume with -attach %d)\n", sid, *addr, events, fed, sid)
		closeClient(cl)
		return
	}
	codes, err := cl.CloseSession(sid)
	if err != nil {
		fatal(err)
	}
	closeClient(cl)

	fmt.Printf("property       : %s\n", formula)
	fmt.Printf("session        : %d on %s (automaton cache %s)\n", sid, *addr, map[bool]string{true: "hit", false: "miss"}[hit])
	fmt.Printf("processes      : %d, events: %d\n", ts.N(), events)
	vs := make([]string, len(codes))
	violated := false
	for i, c := range codes {
		vs[i] = dist.RPCVerdictString(c)
		violated = violated || c == dist.RPCVerdictBottom
	}
	fmt.Printf("verdicts       : %v\n", vs)
	if violated {
		os.Exit(3)
	}
}
