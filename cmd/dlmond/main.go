// dlmond is the monitoring-as-a-service session daemon: a long-running TCP
// server hosting many concurrent decentralized monitoring sessions, one per
// registered property instance, multiplexed over client connections.
//
// Tenants speak the length-prefixed binary RPC defined in internal/dist
// (framed like ".dmtb" records): register an LTL property (compiled through
// a shared automaton cache), ingest pre-stamped event records or live-stamp
// events through server-side vector clocks, subscribe to incremental
// verdicts, and close the session for the terminal verdict set. A
// per-tenant token bucket paces ingestion so one hot tenant cannot starve
// the rest; per-session backpressure (-maxlag) bounds retained knowledge.
//
// Observability: GET /healthz and a Prometheus-text GET /metrics on the
// -metrics address (sessions live, events and verdicts ingested, retained
// knowledge bytes, verdict latency histogram, automaton cache hit rate).
//
// With -state DIR the daemon is durable: every session is kept in DIR as a
// base blob plus an append-only log of its inputs, synced every
// -checkpoint-every events, and a restarted daemon recovers them by
// re-feeding the log; clients re-adopt a recovered session with dlmonc
// -attach SID and resume feeding at the reported fed counts.
//
// Usage:
//
//	dlmond -addr 127.0.0.1:7381 -metrics 127.0.0.1:7382 -rate 10000
//	dlmonc -addr 127.0.0.1:7381 -trace t.dmtb 'F (P0.p)'   # drive it
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"decentmon/internal/server"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7381", "RPC listen address")
		metrics = flag.String("metrics", "127.0.0.1:7382", "observability HTTP listen address ('off' disables)")
		rate    = flag.Float64("rate", 0, "per-tenant admission rate, events/second (0 disables)")
		burst   = flag.Float64("burst", 0, "per-tenant burst size, events (0 = rate)")
		maxLag  = flag.Int("maxlag", 0, "per-session retained-knowledge bound (events/monitor; 0 = default)")
		state   = flag.String("state", "", "durable-session state directory (empty disables durability)")
		ckEvery = flag.Int("checkpoint-every", 0, "events between durable syncs of a session's input log: how far the disk may trail the engine (0 = default 256; needs -state)")
	)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dlmond [flags]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}

	s, err := server.New(server.Config{
		Addr:            *addr,
		MetricsAddr:     *metrics,
		Rate:            *rate,
		Burst:           *burst,
		MaxLag:          *maxLag,
		StateDir:        *state,
		CheckpointEvery: *ckEvery,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dlmond: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("dlmond: rpc on %s\n", s.Addr())
	if m := s.MetricsAddr(); m != "" {
		fmt.Printf("dlmond: metrics on http://%s/metrics\n", m)
	}
	if *state != "" {
		fmt.Printf("dlmond: durable state in %s (%d sessions recovered)\n", *state, s.Recovered())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("dlmond: shutting down")
	if err := s.Shutdown(); err != nil {
		fmt.Fprintf(os.Stderr, "dlmond: shutdown: %v\n", err)
		os.Exit(1)
	}
}
