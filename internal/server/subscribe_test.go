package server

import (
	"sync"
	"testing"
	"time"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
)

// TestSubscribeReplay subscribes to a session only after the verdicts its
// monitors detect at INIT have been pumped: the subscriber is sent each of
// them once, before its Subscribe is answered, and nothing twice. A client
// can subscribe only after Register returns, so without the replay an
// INIT-time verdict would never be streamed. Two shapes: F P0.p with P0.p
// raised initially (⊤ at INIT) and the response property, whose initial state
// is settled ('?' at INIT).
func TestSubscribeReplay(t *testing.T) {
	for _, c := range []struct {
		name, formula string
		init          dist.GlobalState
		want          automaton.Verdict
	}{
		{"init-verdict", "F P0.p", dist.GlobalState{1, 0, 0}, automaton.Top},
		{"response-property", "G (P0.p -> F (P1.p && P2.p))", dist.GlobalState{0, 0, 0}, automaton.Unknown},
	} {
		t.Run(c.name, func(t *testing.T) {
			const n = 3
			s := newTestServer(t, Config{})
			cl, err := Dial(s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			var (
				mu  sync.Mutex
				got []*dist.RPCMsg
			)
			cl.OnVerdict = func(m *dist.RPCMsg) {
				mu.Lock()
				got = append(got, m)
				mu.Unlock()
			}
			sid, _, err := cl.Register("acme", c.formula, c.init, dist.PerProcess(n, "p"))
			if err != nil {
				t.Fatal(err)
			}
			// Every monitor reports the INIT verdict once; wait for the pump
			// to take all of them.
			for deadline := time.Now().Add(10 * time.Second); s.mx.verdictsTotal.Load() < n; {
				if time.Now().After(deadline) {
					t.Fatalf("the pump took %d verdicts, want %d", s.mx.verdictsTotal.Load(), n)
				}
				time.Sleep(time.Millisecond)
			}
			if err := cl.Subscribe(sid); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			before := len(got)
			mu.Unlock()
			if before != n {
				t.Errorf("%d verdict frames before Subscribe was answered, want %d", before, n)
			}
			if _, err := cl.CloseSession(sid); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			seen := map[int]bool{}
			for _, m := range got {
				if automaton.Verdict(m.Verdict) != c.want || m.Conclusive != (c.want != automaton.Unknown) {
					t.Errorf("verdict frame %v (conclusive %v) from monitor %d, want %v", automaton.Verdict(m.Verdict), m.Conclusive, m.Monitor, c.want)
				}
				if seen[m.Monitor] {
					t.Errorf("monitor %d's verdict sent twice", m.Monitor)
				}
				seen[m.Monitor] = true
			}
			if len(seen) != n {
				t.Errorf("verdicts from %d monitors, want %d", len(seen), n)
			}
		})
	}
}
