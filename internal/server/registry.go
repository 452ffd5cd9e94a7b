package server

import (
	"errors"
	"maps"
	"slices"
	"sync"
)

// registry is the session table: a map, an id counter and a lock. It is off
// the per-event path — connection handlers resolve a session id once per
// session and cache the pointer.
type registry struct {
	mu       sync.RWMutex
	sessions map[uint64]*session // nil once closed
	lastID   uint64
}

func newRegistry() *registry { return &registry{sessions: map[uint64]*session{}} }

// Add registers a session under a fresh id and returns it.
func (r *registry) Add(s *session) (uint64, error) { return r.add(0, s) }

// AddWithID registers a recovered session under its original id, advancing
// the id counter past it so later fresh registrations cannot collide.
func (r *registry) AddWithID(sid uint64, s *session) error {
	if sid == 0 {
		return errors.New("server: session id 0 is reserved")
	}
	_, err := r.add(sid, s)
	return err
}

// add registers s under sid, or under the next fresh id when sid is 0.
func (r *registry) add(sid uint64, s *session) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sessions == nil {
		return 0, errors.New("server: registry stopped")
	}
	if sid == 0 {
		sid = r.lastID + 1
	}
	r.lastID = max(r.lastID, sid)
	s.id = sid
	r.sessions[sid] = s
	return sid, nil
}

// Get resolves a session id; nil when unknown, as every id is once closed.
func (r *registry) Get(sid uint64) *session {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.sessions[sid]
}

// Del removes a session id (idempotent; a no-op once closed).
func (r *registry) Del(sid uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.sessions, sid)
}

// Fold runs fn over every live session under the read lock — fn must not
// block and must not call back into the registry.
func (r *registry) Fold(fn func(*session)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, s := range r.sessions {
		fn(s)
	}
}

// Close empties the registry and returns the sessions that were still live,
// for the server to drain; Add is refused from then on.
func (r *registry) Close() []*session {
	r.mu.Lock()
	defer r.mu.Unlock()
	live := slices.Collect(maps.Values(r.sessions))
	r.sessions = nil
	return live
}
