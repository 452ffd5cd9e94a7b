package server

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/ltl"
)

// AutomatonCache memoizes monitor synthesis across tenants. ltl2mon output
// depends only on the formula and its ordered proposition list — both pure
// inputs — so two tenants registering the same property (however they
// spelled it) over the same declaration share one compiled monitor. Entries
// are keyed by the canonical key (see CanonicalKey) and constructed at most
// once: the map mutex covers only entry lookup/insertion, the construction
// itself runs under the entry's own sync.Once so a slow synthesis never
// blocks unrelated registrations.
type AutomatonCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry

	hits   atomic.Int64
	misses atomic.Int64

	// build constructs a monitor; tests swap it for a counting hook. Nil
	// selects automaton.Build.
	build func(f *ltl.Formula, props []string) (*automaton.Monitor, error)
}

type cacheEntry struct {
	once sync.Once
	mon  *automaton.Monitor
	err  error
}

// NewAutomatonCache returns an empty cache using automaton.Build.
func NewAutomatonCache() *AutomatonCache {
	return &AutomatonCache{entries: map[string]*cacheEntry{}}
}

// CanonicalKey derives the cache key for a formula source over a
// proposition space: the parse→print normal form of the formula (so
// whitespace, redundant parentheses and operator spellings collapse) joined
// with the propositions it reads, in declaration order. That is exactly what
// automaton.Build reads: it indexes letter bit i by the i-th proposition the
// formula reads in declaration order, so the same propositions declared in
// another order may need another monitor, while owners and unread
// propositions change nothing. A read proposition the space does not declare
// is left out of the key; Build refuses every space that lacks it alike.
func CanonicalKey(formula string, props *dist.PropMap) (string, *ltl.Formula, error) {
	f, err := ltl.Parse(formula)
	if err != nil {
		return "", nil, fmt.Errorf("server: parsing property: %w", err)
	}
	read := f.Props()
	var sb strings.Builder
	sb.WriteString(f.String())
	for _, name := range props.Names {
		if slices.Contains(read, name) {
			sb.WriteString("\x00")
			sb.WriteString(name)
		}
	}
	return sb.String(), f, nil
}

// Get returns the compiled monitor for the canonical key, constructing it
// on first sight. hit reports whether a constructed entry already existed
// — concurrent first registrations of the same key all report a miss but
// still share the single construction.
func (c *AutomatonCache) Get(key string, f *ltl.Formula, props *dist.PropMap) (mon *automaton.Monitor, hit bool, err error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		build := c.build
		if build == nil {
			build = automaton.Build
		}
		e.mon, e.err = build(f, props.Names)
	})
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e.mon, ok, e.err
}

// Stats returns cumulative hit/miss counts.
func (c *AutomatonCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Len reports the number of distinct compiled properties.
func (c *AutomatonCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
