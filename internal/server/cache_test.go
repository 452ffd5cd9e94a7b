package server

import (
	"sync"
	"sync/atomic"
	"testing"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/ltl"
)

func exampleProps(t *testing.T) *dist.PropMap {
	t.Helper()
	pm := dist.NewPropMap()
	pm.MustAdd("x1>=5", 0)
	pm.MustAdd("x1=10", 0)
	pm.MustAdd("x2>=15", 1)
	return pm
}

// reorderedExampleProps declares the running example's propositions in
// another cross-owner order. Each owner keeps its own order, so every
// proposition keeps its local bit and the example's traces stay valid; only
// the letter bits move.
func reorderedExampleProps() *dist.PropMap {
	pm := dist.NewPropMap()
	pm.MustAdd("x2>=15", 1)
	pm.MustAdd("x1>=5", 0)
	pm.MustAdd("x1=10", 0)
	return pm
}

// TestServerCacheKeepsLetterOrder registers one formula twice on one server,
// over the running example's declaration and over the reordered one, and
// requires each session to return what it returns on a fresh server: the
// second registration must not be handed the first one's monitor.
func TestServerCacheKeepsLetterOrder(t *testing.T) {
	ts, evs := dist.RunningExample(), exampleEvents(t)
	declarations := []*dist.PropMap{ts.Props, reorderedExampleProps()}
	run := func(cl *Client, formula string, pm *dist.PropMap) string {
		t.Helper()
		sid, _, err := cl.Register("acme", formula, ts.InitialState(), pm)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range evs {
			if err := cl.Ingest(sid, e); err != nil {
				t.Fatal(err)
			}
		}
		codes, err := cl.CloseSession(sid)
		if err != nil {
			t.Fatal(err)
		}
		return codeString(codes)
	}
	dial := func() *Client {
		t.Helper()
		cl, err := Dial(newTestServer(t, Config{}).Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	for _, formula := range []string{"G (x2>=15 -> x1=10)", "F (x1=10 && !x1>=5)"} {
		shared := dial()
		for i, pm := range declarations {
			want := run(dial(), formula, pm)
			if got := run(shared, formula, pm); got != want {
				t.Errorf("%s over declaration %d: {%s} on a shared server, {%s} on a fresh one", formula, i, got, want)
			}
		}
	}
}

// TestCacheSingleConstruction pins the tenant-sharing contract: many
// tenants registering the same property concurrently trigger exactly one
// tableau construction, counted through the injectable constructor hook.
func TestCacheSingleConstruction(t *testing.T) {
	c := NewAutomatonCache()
	var builds atomic.Int64
	c.build = func(f *ltl.Formula, props []string) (*automaton.Monitor, error) {
		builds.Add(1)
		return automaton.Build(f, props)
	}
	props := exampleProps(t)
	key, f, err := CanonicalKey(dist.RunningExampleProperty, props)
	if err != nil {
		t.Fatal(err)
	}

	const tenants = 64
	mons := make([]*automaton.Monitor, tenants)
	var wg sync.WaitGroup
	for i := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mon, _, err := c.Get(key, f, props)
			if err != nil {
				t.Error(err)
				return
			}
			mons[i] = mon
		}()
	}
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("%d concurrent registrations ran %d tableau constructions, want 1", tenants, got)
	}
	for i, mon := range mons {
		if mon != mons[0] {
			t.Fatalf("tenant %d received a different monitor instance", i)
		}
	}
	hits, misses := c.Stats()
	if hits+misses != tenants || misses == 0 {
		t.Errorf("hits %d + misses %d, want %d total with at least one miss", hits, misses, tenants)
	}
	// The same key requested again is a plain hit.
	if _, hit, err := c.Get(key, f, props); err != nil || !hit {
		t.Errorf("warm Get: hit=%v err=%v", hit, err)
	}
}

// TestCacheCanonicalKeys pins key derivation: alpha-equivalent spellings of
// one formula share a key, and so do spaces that differ only in owners or in
// propositions the formula does not read; different formulas, or the read
// propositions in another order, do not.
func TestCacheCanonicalKeys(t *testing.T) {
	props := exampleProps(t)
	spellings := []string{
		dist.RunningExampleProperty,
		"G((x1>=5) -> ((x2>=15) U (x1=10)))",
		"  G ( x1>=5 ->( x2>=15 U x1=10 ) ) ",
	}
	base, _, err := CanonicalKey(spellings[0], props)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range spellings[1:] {
		key, _, err := CanonicalKey(sp, props)
		if err != nil {
			t.Fatalf("%q: %v", sp, err)
		}
		if key != base {
			t.Errorf("%q canonicalizes to a different key than %q", sp, spellings[0])
		}
	}
	other, _, err := CanonicalKey("F (x1=10)", props)
	if err != nil {
		t.Fatal(err)
	}
	if other == base {
		t.Error("distinct formulas share a cache key")
	}
	// The key is what Build reads: the propositions the formula reads, in
	// declaration order. Moving one to another owner keeps the key.
	moved := dist.NewPropMap()
	moved.MustAdd("x1>=5", 1)
	moved.MustAdd("x1=10", 0)
	moved.MustAdd("x2>=15", 1)
	if k, _, err := CanonicalKey(dist.RunningExampleProperty, moved); err != nil {
		t.Fatal(err)
	} else if k != base {
		t.Error("moving a proposition to another owner split the cache key")
	}
	// So does declaring propositions the formula does not read: one formula
	// over PerProcess(3, "p") and over PerProcess(3, "p", "q") shares a key.
	const reach = "F (P0.p && P1.p && P2.p)"
	pOnly, _, err := CanonicalKey(reach, dist.PerProcess(3, "p"))
	if err != nil {
		t.Fatal(err)
	}
	if pq, _, err := CanonicalKey(reach, dist.PerProcess(3, "p", "q")); err != nil {
		t.Fatal(err)
	} else if pq != pOnly {
		t.Error("declaring unread q propositions split the cache key")
	}
	c := NewAutomatonCache()
	for i, pm := range []*dist.PropMap{dist.PerProcess(3, "p"), dist.PerProcess(3, "p", "q")} {
		key, f, err := CanonicalKey(reach, pm)
		if err != nil {
			t.Fatal(err)
		}
		if _, hit, err := c.Get(key, f, pm); err != nil || hit != (i == 1) {
			t.Errorf("registration %d: hit %v, err %v", i, hit, err)
		}
	}
	if c.Len() != 1 {
		t.Errorf("%d cache entries, want 1", c.Len())
	}
	// Same (name, owner) pairs declared in another order → different key:
	// letter bit i is Names[i], so the monitor differs.
	if k, _, err := CanonicalKey(dist.RunningExampleProperty, reorderedExampleProps()); err != nil {
		t.Fatal(err)
	} else if k == base {
		t.Error("declaring the same propositions in another order kept the cache key")
	}
	if _, _, err := CanonicalKey("G (", props); err == nil {
		t.Error("malformed formula produced a key")
	}
}
