// Package jobs is the async job subsystem behind mapd's /jobs API: a
// job is a batch of mapping work items that runs detached from the
// HTTP request that submitted it, so a million-gate mapping no longer
// ties up a client socket for the whole label/cover pass.
//
// The package owns the state machine and the in-memory store; it knows
// nothing about HTTP or mapping. The service layer creates a Job per
// accepted batch, drives it through Start/BeginItem/FinishItem/Finish
// from its worker pool, and serves three views of it: a status poll
// (Snapshot), an incremental result stream (WaitItem — items complete
// strictly in submission order, so a streamer emits record i as soon
// as item i lands), and cancellation (RequestCancel fires the job's
// context; the runner observes it and settles the remaining items).
//
// Jobs live in a Store bounded two ways: a hard capacity with
// generation-ordered eviction of finished jobs (oldest admitted first,
// so eviction order is deterministic and independent of map iteration)
// and a retention TTL after which finished jobs are swept. Running
// jobs are never evicted. The store is shared-nothing by design — N
// mapd replicas behind a dumb load balancer each keep their own store,
// and a client polls the replica that accepted its job.
package jobs

import (
	"context"
	"sync"
	"time"
)

// State is a job's lifecycle phase.
type State int

const (
	// Queued: accepted, waiting for a worker-pool slot.
	Queued State = iota
	// Running: holding a slot, mapping items.
	Running
	// Done: the run finished; individual items may still have failed
	// (their Status says so), but the batch as a whole executed.
	Done
	// Failed: a job-level error (e.g. the shared library failed to
	// compile) or every single item failed.
	Failed
	// Cancelled: stopped by DELETE before completion.
	Cancelled
)

// String renders the state as its wire form.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	}
	return "invalid"
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Cancelled }

// States lists all job states in declaration order (metrics iterate it
// so gauge families are emitted in a stable order).
func States() []State { return []State{Queued, Running, Done, Failed, Cancelled} }

// ItemState is one work item's lifecycle phase.
type ItemState int

const (
	ItemPending ItemState = iota
	ItemRunning
	ItemDone
	ItemFailed
	ItemCancelled
)

// String renders the item state as its wire form.
func (s ItemState) String() string {
	switch s {
	case ItemPending:
		return "pending"
	case ItemRunning:
		return "running"
	case ItemDone:
		return "done"
	case ItemFailed:
		return "failed"
	case ItemCancelled:
		return "cancelled"
	}
	return "invalid"
}

// Terminal reports whether the item state is final.
func (s ItemState) Terminal() bool {
	return s == ItemDone || s == ItemFailed || s == ItemCancelled
}

// Item is one unit of work in a job: one netlist mapped against the
// job's shared library. The runner fills the outcome fields when the
// item settles; Result is an opaque payload (the service stores the
// per-item NDJSON record) that Snapshot omits so status polls stay
// cheap even when results carry megabyte netlists.
type Item struct {
	// Name labels the item (client-provided, may be empty).
	Name string
	// State is the item's lifecycle phase.
	State ItemState
	// Status is the HTTP-style classification of a settled item: 200
	// mapped, 400 rejected input, 499 cancelled, 504 per-item deadline,
	// 500 internal. Zero until the item settles.
	Status int
	// Err is the failure message for non-200 items.
	Err string
	// Result is the settled item's payload (nil for failures without
	// a body). Owned by the runner; never mutated after settling.
	Result []byte
	// ElapsedMillis is the item's serving wall time.
	ElapsedMillis float64
	// PhaseMillis breaks the item's wall time down by pipeline phase
	// (parse/map/respond plus the core engine's label/cover/emit from
	// internal/obs phase accounting).
	PhaseMillis map[string]float64
}

// Job is one accepted batch. All fields under mu; the identity fields
// (ID, gen, created) are immutable after construction.
type Job struct {
	// ID is the client-visible job identifier.
	ID string

	gen     uint64
	created time.Time

	mu       sync.Mutex
	wait     chan struct{} // closed and replaced on every mutation
	state    State
	err      string
	started  time.Time
	finished time.Time
	items    []Item
	done     int // settled items (terminal in submission order)
	cancel   context.CancelFunc
}

func newJob(id string, gen uint64, names []string, created time.Time, cancel context.CancelFunc) *Job {
	items := make([]Item, len(names))
	for i, n := range names {
		items[i].Name = n
	}
	return &Job{
		ID:      id,
		gen:     gen,
		created: created,
		wait:    make(chan struct{}),
		items:   items,
		cancel:  cancel,
	}
}

// broadcastLocked wakes every waiter. Callers hold mu.
func (j *Job) broadcastLocked() {
	close(j.wait)
	j.wait = make(chan struct{})
}

// Start moves Queued → Running. It returns false when the job was
// cancelled while queued — the runner must not map anything then.
func (j *Job) Start(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != Queued {
		return false
	}
	j.state = Running
	j.started = now
	j.broadcastLocked()
	return true
}

// BeginItem marks item i running.
func (j *Job) BeginItem(i int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.items[i].State == ItemPending {
		j.items[i].State = ItemRunning
		j.broadcastLocked()
	}
}

// FinishItem settles item i with its outcome. The runner settles items
// strictly in index order; WaitItem relies on that to stream
// incrementally.
func (j *Job) FinishItem(i int, it Item) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.items[i].State.Terminal() {
		return
	}
	it.Name = j.items[i].Name
	j.items[i] = it
	j.done++
	j.broadcastLocked()
}

// Finish settles the job after the run loop: Done normally, Failed when
// every item failed. Cancelled jobs are settled by CancelRemaining
// instead, and a second settle is a no-op.
func (j *Job) Finish(now time.Time) State {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return j.state
	}
	failed := 0
	for i := range j.items {
		if j.items[i].State == ItemFailed {
			failed++
		}
	}
	if failed == len(j.items) && len(j.items) > 0 {
		j.state = Failed
	} else {
		j.state = Done
	}
	j.finished = now
	j.broadcastLocked()
	return j.state
}

// FailAll settles every unsettled item with the same failure (used for
// job-level errors like a library that fails to compile) and marks the
// job Failed.
func (j *Job) FailAll(status int, msg string, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	for i := range j.items {
		if !j.items[i].State.Terminal() {
			j.items[i].State = ItemFailed
			j.items[i].Status = status
			j.items[i].Err = msg
			j.done++
		}
	}
	j.state = Failed
	j.err = msg
	j.finished = now
	j.broadcastLocked()
}

// CancelRemaining settles every unsettled item as cancelled (status
// 499) and marks the job Cancelled. The runner calls it after the job
// context fires; items that already settled keep their results.
func (j *Job) CancelRemaining(now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	for i := range j.items {
		if !j.items[i].State.Terminal() {
			j.items[i].State = ItemCancelled
			j.items[i].Status = StatusClientClosedRequest
			j.items[i].Err = "job cancelled"
			j.done++
		}
	}
	j.state = Cancelled
	j.finished = now
	j.broadcastLocked()
}

// StatusClientClosedRequest mirrors nginx's non-standard 499, the
// classification the service already uses for client-side
// cancellation; cancelled items carry it so a streamed result record
// distinguishes "you cancelled this" from a mapper failure.
const StatusClientClosedRequest = 499

// RequestCancel fires the job's context. It returns false when the job
// had already finished (nothing to cancel). The state transition to
// Cancelled happens in the runner (CancelRemaining), which observes the
// context and knows which item was in flight.
func (j *Job) RequestCancel() bool {
	j.mu.Lock()
	terminal := j.state.Terminal()
	cancel := j.cancel
	j.mu.Unlock()
	if terminal {
		return false
	}
	if cancel != nil {
		cancel()
	}
	return true
}

// WaitItem blocks until item i has settled, then returns a copy of it.
// It returns ctx.Err() when the caller's context fires first. Because
// the runner settles items in index order (and CancelRemaining/FailAll
// settle all at once), waiting for items 0..N-1 in order streams every
// record as soon as it exists.
func (j *Job) WaitItem(ctx context.Context, i int) (Item, error) {
	if i < 0 || i >= j.Len() {
		return Item{}, context.Canceled
	}
	var it Item
	err := j.waitUntil(ctx, func() bool {
		if !j.items[i].State.Terminal() {
			return false
		}
		it = j.items[i]
		it.PhaseMillis = clonePhases(it.PhaseMillis)
		return true
	})
	return it, err
}

// WaitTerminal blocks until the job has reached a terminal state, or
// returns ctx.Err() when the caller's context fires first. The last
// item settles before the job does, so a result stream waits on this
// before it ends: a poll after the stream then sees the job finished.
func (j *Job) WaitTerminal(ctx context.Context) error {
	return j.waitUntil(ctx, func() bool { return j.state.Terminal() })
}

// waitUntil blocks until cond, evaluated under mu after every
// mutation, holds.
func (j *Job) waitUntil(ctx context.Context, cond func() bool) error {
	for {
		j.mu.Lock()
		if cond() {
			j.mu.Unlock()
			return nil
		}
		ch := j.wait
		j.mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

func clonePhases(m map[string]float64) map[string]float64 {
	if m == nil {
		return nil
	}
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Snapshot is a point-in-time copy of a job for status polls. Item
// results are omitted (stream them from WaitItem); everything else is
// deep-copied so the caller can marshal it without holding the lock.
type Snapshot struct {
	ID       string
	State    State
	Err      string
	Created  time.Time
	Started  time.Time
	Finished time.Time
	Items    []Item // Result stripped
	// Done counts settled items, Failed/Cancelled the settled subsets.
	Done      int
	Failed    int
	Cancelled int
}

// Snapshot captures the job's current state.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID:       j.ID,
		State:    j.state,
		Err:      j.err,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
		Done:     j.done,
		Items:    make([]Item, len(j.items)),
	}
	for i := range j.items {
		it := j.items[i]
		it.Result = nil
		it.PhaseMillis = clonePhases(it.PhaseMillis)
		s.Items[i] = it
		switch it.State {
		case ItemFailed:
			s.Failed++
		case ItemCancelled:
			s.Cancelled++
		}
	}
	return s
}

// State returns the job's current lifecycle phase.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Len returns the item count.
func (j *Job) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.items)
}
