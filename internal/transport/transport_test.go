package transport

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

func testNetwork(t *testing.T, mk func(n int) Network) {
	t.Helper()

	t.Run("basic delivery", func(t *testing.T) {
		nw := mk(3)
		defer nw.Close()
		if nw.N() != 3 {
			t.Fatalf("N = %d", nw.N())
		}
		if err := nw.Endpoint(0).Send(1, []byte("hello")); err != nil {
			t.Fatal(err)
		}
		m := <-nw.Endpoint(1).Inbox()
		if m.From != 0 || m.To != 1 || string(m.Payload) != "hello" {
			t.Fatalf("got %+v", m)
		}
	})

	t.Run("per-pair FIFO", func(t *testing.T) {
		nw := mk(2)
		defer nw.Close()
		const k = 200
		for i := 0; i < k; i++ {
			if err := nw.Endpoint(0).Send(1, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < k; i++ {
			m := <-nw.Endpoint(1).Inbox()
			if m.Payload[0] != byte(i) {
				t.Fatalf("message %d arrived out of order (got %d)", i, m.Payload[0])
			}
		}
	})

	t.Run("concurrent all-to-all", func(t *testing.T) {
		const n, k = 4, 50
		nw := mk(n)
		defer nw.Close()
		var wg sync.WaitGroup
		for from := 0; from < n; from++ {
			wg.Add(1)
			go func(from int) {
				defer wg.Done()
				for i := 0; i < k; i++ {
					for to := 0; to < n; to++ {
						if to == from {
							continue
						}
						if err := nw.Endpoint(from).Send(to, []byte{byte(from), byte(i)}); err != nil {
							t.Errorf("send: %v", err)
							return
						}
					}
				}
			}(from)
		}
		counts := make([]int, n)
		var rwg sync.WaitGroup
		for to := 0; to < n; to++ {
			rwg.Add(1)
			go func(to int) {
				defer rwg.Done()
				last := map[int]int{}
				for i := 0; i < (n-1)*k; i++ {
					m := <-nw.Endpoint(to).Inbox()
					seq := int(m.Payload[1])
					if prev, ok := last[m.From]; ok && seq <= prev {
						t.Errorf("endpoint %d: pair FIFO violated from %d: %d after %d", to, m.From, seq, prev)
						return
					}
					last[m.From] = seq
					counts[to]++
				}
			}(to)
		}
		wg.Wait()
		rwg.Wait()
		for to, c := range counts {
			if c != (n-1)*k {
				t.Errorf("endpoint %d received %d messages, want %d", to, c, (n-1)*k)
			}
		}
		if got := nw.Stats().Messages(); got != int64(n*(n-1)*k) {
			t.Errorf("stats count %d, want %d", got, n*(n-1)*k)
		}
		if got := nw.Stats().Bytes(); got != int64(2*n*(n-1)*k) {
			t.Errorf("stats bytes %d, want %d", got, 2*n*(n-1)*k)
		}
	})

	t.Run("bad destinations", func(t *testing.T) {
		nw := mk(2)
		defer nw.Close()
		if err := nw.Endpoint(0).Send(0, nil); err == nil {
			t.Error("self-send accepted")
		}
		if err := nw.Endpoint(0).Send(5, nil); err == nil {
			t.Error("out-of-range destination accepted")
		}
	})

	t.Run("close closes inboxes", func(t *testing.T) {
		nw := mk(2)
		done := make(chan struct{})
		go func() {
			for range nw.Endpoint(1).Inbox() {
			}
			close(done)
		}()
		if err := nw.Endpoint(0).Send(1, []byte("x")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
		if err := nw.Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("inbox not closed after network Close")
		}
		if err := nw.Close(); err != nil {
			t.Fatal("double close should be a no-op")
		}
	})
}

func TestChanNetwork(t *testing.T) {
	testNetwork(t, func(n int) Network { return NewChanNetwork(n) })
}

func TestTCPNetwork(t *testing.T) {
	testNetwork(t, func(n int) Network {
		nw, err := NewTCPNetwork(n)
		if err != nil {
			t.Fatal(err)
		}
		return nw
	})
}

func TestSendAfterClose(t *testing.T) {
	nw := NewChanNetwork(2)
	nw.Close()
	if err := nw.Endpoint(0).Send(1, []byte("late")); err == nil {
		t.Error("send after close accepted")
	}
}

func TestStatsBytes(t *testing.T) {
	nw := NewChanNetwork(2)
	defer nw.Close()
	payload := make([]byte, 123)
	if err := nw.Endpoint(0).Send(1, payload); err != nil {
		t.Fatal(err)
	}
	<-nw.Endpoint(1).Inbox()
	if nw.Stats().Bytes() != 123 {
		t.Errorf("bytes = %d", nw.Stats().Bytes())
	}
}

// TestSendValue: a ChanNetwork endpoint hands a value over as it is — the
// receiver sees the sender's own pointer, in FIFO order with Send on the same
// pair, accounted at the size the sender declared; a TCP endpoint, whose peer
// could be anywhere, offers no such thing.
func TestSendValue(t *testing.T) {
	type envelope struct{ seq int }
	nw := NewChanNetwork(3)
	from, ok := nw.Endpoint(0).(ValueSender)
	if !ok {
		t.Fatal("a ChanNetwork endpoint is not a ValueSender")
	}
	sent := []*envelope{{0}, {1}, {2}}
	for i, v := range sent {
		if err := from.SendValue(2, v, 100+i); err != nil {
			t.Fatal(err)
		}
		if err := nw.Endpoint(0).Send(2, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range sent {
		m := <-nw.Endpoint(2).Inbox()
		if m.From != 0 || m.To != 2 || m.Payload != nil || m.Value != any(v) {
			t.Errorf("value %d arrived as %+v", i, m)
		}
		if m = <-nw.Endpoint(2).Inbox(); m.Value != nil || len(m.Payload) != 1 || m.Payload[0] != byte(i) {
			t.Errorf("payload %d arrived as %+v", i, m)
		}
	}
	st := nw.Stats()
	if st.Messages() != 6 || st.Bytes() != 100+101+102+3 {
		t.Errorf("stats %d messages, %d bytes", st.Messages(), st.Bytes())
	}
	if err := from.SendValue(0, sent[0], 1); err == nil {
		t.Error("a value sent to oneself was accepted")
	}
	if err := from.SendValue(3, sent[0], 1); err == nil {
		t.Error("a value sent to endpoint 3 of 3 was accepted")
	}
	nw.Close()
	if err := from.SendValue(1, sent[0], 1); err == nil {
		t.Error("a value sent after Close was accepted")
	}
	tcp, err := NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	if _, ok := tcp.Endpoint(0).(ValueSender); ok {
		t.Error("a TCP endpoint claims it can hand values over")
	}
}

// TestSendAllocatesNothing: a send through an idle ChanNetwork — the
// endpoint's lock, its inbox, the counters — allocates nothing.
func TestSendAllocatesNothing(t *testing.T) {
	nw := NewChanNetwork(2)
	defer nw.Close()
	from, to := nw.Endpoint(0), nw.Endpoint(1)
	payload := make([]byte, 64)
	roundTrip := func() {
		if err := from.Send(1, payload); err != nil {
			t.Fatal(err)
		}
		<-to.Inbox()
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs > 0 {
		t.Errorf("a send through an idle network allocates %.1f objects", allocs)
	}
}

func TestManyEndpoints(t *testing.T) {
	// Smoke test at the paper's maximum scale (5 devices) over TCP.
	nw, err := NewTCPNetwork(5)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i == j {
				continue
			}
			if err := nw.Endpoint(i).Send(j, []byte(fmt.Sprintf("%d->%d", i, j))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for j := 0; j < 5; j++ {
		for k := 0; k < 4; k++ {
			<-nw.Endpoint(j).Inbox()
		}
	}
}

// TestTCPCloseRace pins the Close-never-wedges guarantee at the TCP layer
// under the race detector: Close racing in-flight Sends, read loops mid-
// frame, stuffed inboxes that nobody drains, and a concurrent second Close.
// Every failure mode here is a hang (caught by the deadline) or a data
// race (caught by -race); after Close returns, every inbox must be closed
// and every Send must fail cleanly.
func TestTCPCloseRace(t *testing.T) {
	for round := 0; round < 3; round++ {
		nw, err := NewTCPNetwork(4)
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte("x"), 512)
		var senders sync.WaitGroup
		stopSend := make(chan struct{})
		// Hammer every ordered pair. Endpoint 0's inbox is deliberately
		// never drained, so its read loops end up blocked on a full inbox —
		// the exact wedge the stop channel exists to break.
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if i == j {
					continue
				}
				senders.Add(1)
				go func(i, j int) {
					defer senders.Done()
					ep := nw.Endpoint(i)
					for {
						select {
						case <-stopSend:
							return
						default:
						}
						if err := ep.Send(j, payload); err != nil {
							return // closed under us: expected
						}
					}
				}(i, j)
			}
		}
		// Drain inboxes 1..3 until they close; inbox 0 stays stuffed.
		var drainers sync.WaitGroup
		for i := 1; i < 4; i++ {
			drainers.Add(1)
			go func(i int) {
				defer drainers.Done()
				for range nw.Endpoint(i).Inbox() {
				}
			}(i)
		}
		time.Sleep(5 * time.Millisecond) // let traffic build up

		closed := make(chan error, 2)
		go func() { closed <- nw.Close() }()
		go func() { closed <- nw.Close() }() // concurrent double Close
		for k := 0; k < 2; k++ {
			select {
			case err := <-closed:
				if err != nil {
					t.Fatalf("round %d: Close: %v", round, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d: Close wedged", round)
			}
		}
		close(stopSend)
		senders.Wait()
		drainers.Wait()
		// After Close: inboxes closed (reads don't block), Sends fail.
		for i := 0; i < 4; i++ {
			select {
			case _, ok := <-nw.Endpoint(i).Inbox():
				for ok {
					_, ok = <-nw.Endpoint(i).Inbox()
				}
			case <-time.After(time.Second):
				t.Fatalf("round %d: inbox %d not closed after Close", round, i)
			}
			if err := nw.Endpoint(i).Send((i+1)%4, payload); err == nil {
				t.Fatalf("round %d: Send succeeded after Close", round)
			}
		}
	}
}
