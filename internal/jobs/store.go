package jobs

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrStoreFull is returned by Add when the store is at capacity and no
// finished job can be evicted to make room — every resident job is
// still queued or running, so admitting another would make the job
// backlog unbounded. The service maps it to 429.
var ErrStoreFull = errors.New("jobs: store full: all resident jobs still active")

// ErrDuplicateID is returned by Add when the id already names a
// resident job. IDs are random 128-bit strings, so a collision means
// the caller should simply draw another.
var ErrDuplicateID = errors.New("jobs: duplicate job id")

// Store is the bounded in-memory job registry. Each admitted job gets
// a monotonically increasing generation number; when the store is at
// capacity the finished job with the lowest generation is evicted
// (deterministic, oldest-admitted-first — never dependent on map
// iteration order), and a sweep drops finished jobs older than the
// retention TTL. Sweeps run inline on Add/Get, so no background
// goroutine is needed and a test with an injected clock sees eviction
// happen at exactly the operation that crosses the TTL.
type Store struct {
	// mu orders job-pointer lifecycle; job-internal state uses each
	// Job's own lock (Store.mu is always taken first).
	mu        sync.Mutex
	jobs      map[string]*Job
	gen       uint64
	max       int
	ttl       time.Duration
	now       func() time.Time
	evictions uint64
}

// NewStore builds a store holding at most max jobs, retaining finished
// jobs for ttl. max <= 0 defaults to 512, ttl <= 0 to 15 minutes. now
// supplies the clock (nil means time.Now) so retention is testable
// without sleeping.
func NewStore(max int, ttl time.Duration, now func() time.Time) *Store {
	if max <= 0 {
		max = 512
	}
	if ttl <= 0 {
		ttl = 15 * time.Minute
	}
	if now == nil {
		now = time.Now
	}
	return &Store{
		jobs: make(map[string]*Job),
		max:  max,
		ttl:  ttl,
		now:  now,
	}
}

// Add admits a new job with the given id and per-item names, wired to
// cancel for DELETE. It sweeps expired jobs first, then evicts the
// oldest finished job if still at capacity, and fails with
// ErrStoreFull when every resident job is active.
func (s *Store) Add(id string, names []string, cancel context.CancelFunc) (*Job, error) {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked(now)
	if _, exists := s.jobs[id]; exists {
		return nil, ErrDuplicateID
	}
	if len(s.jobs) >= s.max {
		if !s.evictOldestFinishedLocked() {
			return nil, ErrStoreFull
		}
	}
	s.gen++
	j := newJob(id, s.gen, names, now, cancel)
	s.jobs[id] = j
	return j, nil
}

// Get looks a job up by id (sweeping first, so an expired job is gone
// the moment any caller asks after its TTL).
func (s *Store) Get(id string) (*Job, bool) {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked(now)
	j, ok := s.jobs[id]
	return j, ok
}

// Sweep evicts finished jobs older than the TTL and returns how many
// were dropped. Add/Get sweep implicitly; Sweep exists for
// operators and tests.
func (s *Store) Sweep() int {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweepLocked(now)
}

// sweepLocked drops finished jobs whose finish time predates now-ttl.
func (s *Store) sweepLocked(now time.Time) int {
	cutoff := now.Add(-s.ttl)
	dropped := 0
	for id, j := range s.jobs {
		j.mu.Lock()
		expired := j.state.Terminal() && j.finished.Before(cutoff)
		j.mu.Unlock()
		if expired {
			delete(s.jobs, id)
			s.evictions++
			dropped++
		}
	}
	return dropped
}

// evictOldestFinishedLocked removes the finished job with the lowest
// generation. Returns false when no resident job has finished.
func (s *Store) evictOldestFinishedLocked() bool {
	var victim *Job
	for _, j := range s.jobs {
		j.mu.Lock()
		terminal := j.state.Terminal()
		j.mu.Unlock()
		if !terminal {
			continue
		}
		if victim == nil || j.gen < victim.gen {
			victim = j
		}
	}
	if victim == nil {
		return false
	}
	delete(s.jobs, victim.ID)
	s.evictions++
	return true
}

// Len reports the resident job count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// Evictions reports the cumulative count of jobs dropped by TTL sweep
// or capacity eviction.
func (s *Store) Evictions() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictions
}

// Capacity reports the configured bounds.
func (s *Store) Capacity() (max int, ttl time.Duration) { return s.max, s.ttl }

// CountsByState tallies resident jobs per state (the /metrics
// mapd_jobs_current gauge family).
func (s *Store) CountsByState() map[State]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[State]int, 5)
	for _, j := range s.jobs {
		out[j.State()]++
	}
	return out
}
