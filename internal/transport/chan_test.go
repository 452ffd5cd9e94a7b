package transport

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// awaitGoroutines waits for the process's goroutine count to come down to
// want: a relay that has cleared its flag has still to return.
func awaitGoroutines(t *testing.T, want int, when string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > want; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d", when, runtime.NumGoroutine(), want)
		}
	}
}

// TestChanNetworkStartsNoGoroutine: a network without latency owns no
// goroutine until an inbox overflows, and none again once the overflow has
// drained. Three senders race k > inboxSlots messages each at a reader that is
// not reading; once it reads, every sender's messages arrive in the order they
// were sent, direct sends and relayed ones alike.
func TestChanNetworkStartsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	nw := NewChanNetwork(16)
	defer nw.Close()
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("NewChanNetwork(16) left %d goroutines running, want none (%d before, %d after)", got-base, base, got)
	}

	const senders, k = 3, 4 * inboxSlots
	to := &nw.eps[0]
	var wg sync.WaitGroup
	for from := 1; from <= senders; from++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < k; i++ {
				var err error
				if i%2 == 0 {
					err = nw.eps[from].Send(0, []byte{byte(i)})
				} else {
					err = nw.eps[from].SendValue(0, i, 1)
				}
				if err != nil {
					t.Errorf("sender %d, message %d: %v", from, i, err)
					return
				}
			}
		}()
	}
	wg.Wait() // nobody read: Send never blocks on the reader
	to.mu.Lock()
	relaying := to.relaying
	to.mu.Unlock()
	if !relaying || len(to.inbox) != inboxSlots {
		t.Fatalf("before the reader starts: relaying=%v, %d of %d inbox slots taken", relaying, len(to.inbox), inboxSlots)
	}

	next := make([]int, senders+1)
	for got := 0; got < senders*k; got++ {
		m := <-to.Inbox()
		seq, ok := m.Value.(int)
		if !ok {
			seq = int(m.Payload[0])
		}
		if seq != next[m.From] {
			t.Fatalf("message %d of sender %d arrived where its message %d was due", seq, m.From, next[m.From])
		}
		next[m.From]++
	}
	awaitGoroutines(t, base, "after the overflow drained")
	to.mu.Lock()
	relaying = to.relaying
	to.mu.Unlock()
	if relaying {
		t.Error("the relay returned with its flag still set")
	}

	// A direct send again, behind everything the relay moved.
	if err := nw.eps[1].Send(0, []byte{255}); err != nil {
		t.Fatal(err)
	}
	if m := <-to.Inbox(); m.From != 1 || m.Payload[0] != 255 {
		t.Errorf("after the relay: got %+v", m)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("a send into an inbox with room started a goroutine (%d, want %d)", got, base)
	}
}

// TestChanNetworkCloseUnderBacklog: Close with a full inbox, a non-empty
// overflow and a relay blocked between the two returns — nobody is reading and
// nobody will — with senders still sending; afterwards every send reports the
// closed network and the inbox is closed behind what it still held.
func TestChanNetworkCloseUnderBacklog(t *testing.T) {
	base := runtime.NumGoroutine()
	nw := NewChanNetwork(3)
	for i := 0; i < 3*inboxSlots; i++ {
		if err := nw.Endpoint(1).Send(0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // a sender that races Close
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := nw.Endpoint(2).Send(0, nil); err != nil {
				if !errors.Is(err, errClosed) {
					t.Errorf("send racing Close: %v", err)
				}
				return
			}
		}
	}()
	closed := make(chan struct{})
	go func() { nw.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close wedged behind an inbox nobody reads")
	}
	close(stop)
	wg.Wait()
	if err := nw.Endpoint(1).Send(0, []byte("late")); !errors.Is(err, errClosed) {
		t.Errorf("Send after Close: %v", err)
	}
	if err := nw.Endpoint(1).(ValueSender).SendValue(0, "late", 4); !errors.Is(err, errClosed) {
		t.Errorf("SendValue after Close: %v", err)
	}
	held := 0
	for range nw.Endpoint(0).Inbox() { // closed: the range ends
		held++
	}
	if held < inboxSlots {
		t.Errorf("the closed inbox held %d messages, want at least its %d slots", held, inboxSlots)
	}
	awaitGoroutines(t, base, "after Close")
}
