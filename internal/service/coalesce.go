package service

import (
	"sync"

	"dagcover/internal/store"
)

// Request coalescing for the result-cache miss path: concurrent
// requests with the same result key single-flight onto one engine run.
// The first caller in becomes the leader, runs the mapping (consuming
// an admission slot), and publishes the outcome; followers block on
// the call's done channel without holding any admission capacity.
//
// A leader that fails with its *own* context error (client gone,
// per-request deadline) must not poison its followers — their budgets
// are independent and probably intact. Followers observe the context
// error and loop: re-check the cache (the dying leader may still have
// published) and re-join the flight group, where one of them becomes
// the new leader. Non-context failures (bad library, mapper rejection) are
// deterministic for identical inputs, so followers adopt them as their
// own outcome instead of re-running a mapping that must fail the same
// way.

// flightCall is one in-flight mapping shared by a leader and any
// number of followers.
type flightCall struct {
	done chan struct{} // closed when the leader settles

	// Outcome, valid after done: on success (err nil) view carries the
	// canonical result and its sidecar metadata; on failure status and
	// err are what the leader responded with, and a context err marks a
	// leader-context failure followers should retry past.
	view   rcView
	status int
	err    error
}

// flightGroup indexes in-flight calls by result key.
type flightGroup struct {
	mu     sync.Mutex
	flight map[store.Key]*flightCall
}

func newFlightGroup() *flightGroup {
	return &flightGroup{flight: make(map[store.Key]*flightCall)}
}

// join returns the call for key, creating it (leader == true) when no
// flight is up. Followers must not touch the call before done closes.
func (g *flightGroup) join(key store.Key) (*flightCall, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.flight[key]; ok {
		return c, false
	}
	c := &flightCall{done: make(chan struct{})}
	g.flight[key] = c
	return c, true
}

// leaderDone publishes the leader's outcome (already written into c)
// and retires the flight, waking every follower. The entry is removed
// before done closes, so a follower that retries after a leader-context
// failure joins a fresh flight instead of the dead one.
func (g *flightGroup) leaderDone(key store.Key, c *flightCall) {
	g.mu.Lock()
	delete(g.flight, key)
	g.mu.Unlock()
	close(c.done)
}
