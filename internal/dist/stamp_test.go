package dist

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestStamperProducesValidExecution drives a small two-process execution
// through the stamper and checks the result is a well-formed computation by
// the same validator recorded traces must pass.
func TestStamperProducesValidExecution(t *testing.T) {
	st := NewStamper(2)
	pm := PerProcess(2, "p")
	ts := &TraceSet{Props: pm, Traces: []*Trace{{Proc: 0}, {Proc: 1}}}
	add := func(e *Event, err error) *Event {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		ts.Traces[e.Proc].Events = append(ts.Traces[e.Proc].Events, e)
		return e
	}

	add(st.Internal(0, 1, 0.1))
	e, tok, err := st.Send(0, 1, 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	add(e, nil)
	add(st.Internal(1, 0, 0.15))
	recv := add(st.Recv(1, tok, 1, 0.3))
	add(st.Internal(1, 1, 0.4))
	add(st.Internal(0, 0, 0.5))

	if err := ts.Validate(); err != nil {
		t.Fatalf("stamped execution invalid: %v", err)
	}
	if got := recv.VC; got[0] != 2 || got[1] != 2 {
		t.Errorf("recv clock %v, want [2 2]", got)
	}
	if recv.MsgID != tok.ID || tok.ID == 0 {
		t.Errorf("message id pairing broken: event %d, token %d", recv.MsgID, tok.ID)
	}
}

// TestStamperMonotoneTime: a caller handing in a stale wall-clock reading
// must not break per-process timestamp monotonicity.
func TestStamperMonotoneTime(t *testing.T) {
	st := NewStamper(1)
	a, _ := st.Internal(0, 0, 5.0)
	b, _ := st.Internal(0, 1, 3.0) // clock went "backwards"
	if b.Time < a.Time {
		t.Errorf("timestamps not monotone: %v after %v", b.Time, a.Time)
	}
}

// TestStamperRejectsMisuse covers the error paths.
func TestStamperRejectsMisuse(t *testing.T) {
	st := NewStamper(2)
	if _, err := st.Internal(5, 0, 0); err == nil {
		t.Error("nonexistent process accepted")
	}
	if _, _, err := st.Send(0, 0, 0, 0); err == nil {
		t.Error("self-send accepted")
	}
	if _, _, err := st.Send(0, 9, 0, 0); err == nil {
		t.Error("send to nonexistent process accepted")
	}
	_, tok, err := st.Send(0, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(0, tok, 0, 0); err == nil {
		t.Error("token consumed by a process it was not addressed to")
	}
	bad := tok
	bad.VC = []int{1}
	if _, err := st.Recv(1, bad, 0, 0); err == nil {
		t.Error("mis-sized token clock accepted")
	}
	bad = tok
	bad.From = 1
	if _, err := st.Recv(1, bad, 0, 0); err == nil {
		t.Error("self-addressed sender accepted")
	}
}

// TestStamperTokenSerializes: tokens ride the application's own messages,
// so they must survive a JSON round trip.
func TestStamperTokenSerializes(t *testing.T) {
	st := NewStamper(3)
	_, tok, err := st.Send(2, 0, 1, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(tok)
	if err != nil {
		t.Fatal(err)
	}
	var back MsgToken
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.From != 2 || back.To != 0 || back.ID != tok.ID || len(back.VC) != 3 {
		t.Errorf("token did not round-trip: %+v vs %+v", back, tok)
	}
	if _, err := st.Recv(0, back, 1, 2.0); err != nil {
		t.Errorf("round-tripped token rejected: %v", err)
	}
}

// TestStamperConcurrentProcesses: concurrent stamping on distinct processes
// must be race-free and yield unique message ids (run under -race in CI).
func TestStamperConcurrentProcesses(t *testing.T) {
	const n, k = 4, 200
	st := NewStamper(n)
	ids := make([][]int, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < k; i++ {
				if _, err := st.Internal(p, LocalState(i&1), float64(i)); err != nil {
					t.Error(err)
					return
				}
				_, tok, err := st.Send(p, (p+1)%n, 0, float64(i))
				if err != nil {
					t.Error(err)
					return
				}
				ids[p] = append(ids[p], tok.ID)
			}
		}(p)
	}
	wg.Wait()
	seen := map[int]bool{}
	for p := 0; p < n; p++ {
		if len(ids[p]) != k {
			t.Fatalf("process %d produced %d sends", p, len(ids[p]))
		}
		for _, id := range ids[p] {
			if seen[id] {
				t.Fatalf("duplicate message id %d", id)
			}
			seen[id] = true
		}
	}
}

// TestStamperAbsorbReproducesState: a second stamper that absorbs a stamper's
// own output, in the order it was produced, ends with exactly the first one's
// State — counter, clocks, timestamps — and a ledger holding exactly the
// tokens still in flight. That is what lets a log of stamped events stand in
// for a snapshot of the stamper. Checked at every step of a random execution,
// not just its end: a crash can stop the log anywhere.
func TestStamperAbsorbReproducesState(t *testing.T) {
	const n = 3
	rng := rand.New(rand.NewSource(23))
	st, twin := NewStamper(n), NewStamper(n)
	inFlight, ledger := map[int]MsgToken{}, map[int]MsgToken{}
	for step := 0; step < 400; step++ {
		p := rng.Intn(n)
		at := float64(step) - 3*rng.Float64() // sometimes behind the process's last stamp: clamped
		var e *Event
		var err error
		switch kind := rng.Intn(3); {
		case kind == 0:
			e, err = st.Internal(p, LocalState(rng.Intn(4)), at)
		case kind == 1:
			var tok MsgToken
			if e, tok, err = st.Send(p, (p+1+rng.Intn(n-1))%n, LocalState(rng.Intn(4)), at); err == nil {
				inFlight[tok.ID] = tok
			}
		default:
			e, err = st.Internal(p, 0, at)
			for id, tok := range inFlight { // any message addressed to p, if there is one
				if tok.To == p {
					delete(inFlight, id)
					e, err = st.Recv(p, tok, LocalState(rng.Intn(4)), at)
					break
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := twin.Absorb(e, ledger); err != nil {
			t.Fatal(err)
		}
		if got, want := twin.State(), st.State(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%+v): absorbed state %+v, stamper's own %+v", step, e, got, want)
		}
		if !reflect.DeepEqual(ledger, inFlight) {
			t.Fatalf("step %d (%+v): ledger %v, in flight %v", step, e, ledger, inFlight)
		}
	}
	if len(inFlight) == 0 {
		t.Error("the execution left no message in flight: the ledger was not exercised to its end")
	}
	// The twin carries on where the original would: same ids, same clocks.
	a, tokA, _ := st.Send(0, 1, 1, 1000)
	b, tokB, _ := twin.Send(0, 1, 1, 1000)
	if tokA.ID != tokB.ID || !a.VC.Equal(b.VC) {
		t.Errorf("after absorbing, the next send is %d %v, the original's %d %v", tokB.ID, b.VC, tokA.ID, a.VC)
	}
	if err := twin.Absorb(&Event{Proc: n, VC: make([]int, n)}, ledger); err == nil {
		t.Error("absorbed an event of a process the stamper does not have")
	}
	if err := twin.Absorb(&Event{Proc: 0, VC: make([]int, n+1)}, ledger); err == nil {
		t.Error("absorbed an event with a clock of another width")
	}
}
