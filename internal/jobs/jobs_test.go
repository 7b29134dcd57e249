package jobs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock for deterministic TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// finish drives a job through a trivial successful run.
func finish(t *testing.T, j *Job, now time.Time) {
	t.Helper()
	if !j.Start(now) {
		t.Fatalf("job %s did not start", j.ID)
	}
	for i := 0; i < j.Len(); i++ {
		j.BeginItem(i)
		j.FinishItem(i, Item{State: ItemDone, Status: 200, Result: []byte(`{}`)})
	}
	if st := j.Finish(now); st != Done {
		t.Fatalf("job %s finished as %v, want done", j.ID, st)
	}
}

func TestStateStrings(t *testing.T) {
	for _, s := range States() {
		if s.String() == "invalid" {
			t.Errorf("state %d renders invalid", s)
		}
	}
	if !Done.Terminal() || !Failed.Terminal() || !Cancelled.Terminal() || Queued.Terminal() || Running.Terminal() {
		t.Error("terminal classification wrong")
	}
}

// TestTTLSweepIsDeterministic pins the retention contract: with an
// injected clock, a finished job survives every lookup until the exact
// operation whose now() crosses finished+TTL, then disappears — no
// background timing involved.
func TestTTLSweepIsDeterministic(t *testing.T) {
	clk := newFakeClock()
	s := NewStore(8, time.Minute, clk.Now)
	j, err := s.Add("a", []string{"x"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	finish(t, j, clk.Now())

	clk.Advance(time.Minute) // exactly TTL: finished is NOT before cutoff
	if _, ok := s.Get("a"); !ok {
		t.Fatal("job evicted at exactly TTL; retention should be inclusive")
	}
	clk.Advance(time.Nanosecond)
	if _, ok := s.Get("a"); ok {
		t.Fatal("job survived past TTL")
	}
	if s.Evictions() != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions())
	}
	// Running jobs are never TTL-swept.
	j2, err := s.Add("b", []string{"x"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	j2.Start(clk.Now())
	clk.Advance(time.Hour)
	if _, ok := s.Get("b"); !ok {
		t.Fatal("running job was swept")
	}
}

// TestCapacityEvictsOldestFinishedFirst pins generation-ordered
// eviction: at capacity the finished job admitted earliest goes first,
// and when nothing has finished, Add fails with ErrStoreFull.
func TestCapacityEvictsOldestFinishedFirst(t *testing.T) {
	clk := newFakeClock()
	s := NewStore(3, time.Hour, clk.Now)
	for _, id := range []string{"g1", "g2", "g3"} {
		j, err := s.Add(id, []string{"x"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		finish(t, j, clk.Now())
	}
	if _, err := s.Add("g4", []string{"x"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("g1"); ok {
		t.Error("g1 (oldest finished) not evicted")
	}
	for _, id := range []string{"g2", "g3", "g4"} {
		if _, ok := s.Get(id); !ok {
			t.Errorf("%s missing after eviction", id)
		}
	}

	// Fill the store with active jobs: the next Add must fail.
	if j, _ := s.Get("g4"); j != nil {
		finish(t, j, clk.Now())
	}
	s2 := NewStore(2, time.Hour, clk.Now)
	for _, id := range []string{"r1", "r2"} {
		j, err := s2.Add(id, []string{"x"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		j.Start(clk.Now())
	}
	if _, err := s2.Add("r3", []string{"x"}, nil); err != ErrStoreFull {
		t.Fatalf("Add over active capacity = %v, want ErrStoreFull", err)
	}
}

func TestCancelLifecycle(t *testing.T) {
	clk := newFakeClock()
	s := NewStore(4, time.Hour, clk.Now)
	ctx, cancel := context.WithCancel(context.Background())
	j, err := s.Add("c", []string{"a", "b", "c"}, cancel)
	if err != nil {
		t.Fatal(err)
	}
	j.Start(clk.Now())
	j.BeginItem(0)
	j.FinishItem(0, Item{State: ItemDone, Status: 200})

	// The DELETE handler's path: look the job up, then request cancel.
	got, ok := s.Get("c")
	if !ok || got != j {
		t.Fatalf("Get(c) = (%p,%v), want the added job", got, ok)
	}
	if !got.RequestCancel() {
		t.Fatal("RequestCancel on a running job did not fire")
	}
	if ctx.Err() == nil {
		t.Fatal("job context did not fire")
	}
	// Runner observes the context and settles the rest.
	j.CancelRemaining(clk.Now())

	snap := j.Snapshot()
	if snap.State != Cancelled {
		t.Fatalf("state = %v, want cancelled", snap.State)
	}
	if snap.Items[0].State != ItemDone || snap.Items[0].Status != 200 {
		t.Errorf("settled item was rewritten: %+v", snap.Items[0])
	}
	for _, it := range snap.Items[1:] {
		if it.State != ItemCancelled || it.Status != StatusClientClosedRequest {
			t.Errorf("unsettled item = %+v, want cancelled/499", it)
		}
	}
	if snap.Done != 3 || snap.Cancelled != 2 {
		t.Errorf("done=%d cancelled=%d, want 3/2", snap.Done, snap.Cancelled)
	}
	// Cancelling a finished job reports fired=false.
	if got, ok := s.Get("c"); !ok || got.RequestCancel() {
		t.Errorf("second cancel of the finished job: found=%v, want found and not fired", ok)
	}
}

// TestWaitItemStreamsInOrder checks the streaming contract: a waiter
// blocked on item i wakes as soon as the runner settles it, in order,
// and a cancelled waiter context unblocks with its error.
func TestWaitItemStreamsInOrder(t *testing.T) {
	clk := newFakeClock()
	s := NewStore(4, time.Hour, clk.Now)
	j, err := s.Add("w", []string{"a", "b", "c"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Start(clk.Now())

	got := make(chan int, 3)
	go func() {
		for i := 0; i < 3; i++ {
			it, err := j.WaitItem(context.Background(), i)
			if err != nil || it.Status != 200+i {
				got <- -1
				return
			}
			got <- i
		}
	}()
	for i := 0; i < 3; i++ {
		// The waiter must not have produced item i yet.
		select {
		case v := <-got:
			t.Fatalf("item %d delivered before it settled", v)
		case <-time.After(5 * time.Millisecond):
		}
		j.BeginItem(i)
		j.FinishItem(i, Item{State: ItemDone, Status: 200 + i})
		select {
		case v := <-got:
			if v != i {
				t.Fatalf("delivered %d, want %d", v, i)
			}
		case <-time.After(time.Second):
			t.Fatalf("waiter did not wake for item %d", i)
		}
	}
	j.Finish(clk.Now())

	// A waiter whose own context fires unblocks with the error.
	ctx, cancel := context.WithCancel(context.Background())
	j2, _ := s.Add("w2", []string{"a"}, nil)
	errc := make(chan error, 1)
	go func() {
		_, err := j2.WaitItem(ctx, 0)
		errc <- err
	}()
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("WaitItem on cancelled ctx = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("WaitItem did not unblock on ctx cancel")
	}
}

// TestFailAllAndFinishClassification pins the Done/Failed rule: a
// job-level failure (or all items failing) is Failed; any surviving
// item keeps the batch Done.
func TestFailAllAndFinishClassification(t *testing.T) {
	clk := newFakeClock()
	s := NewStore(8, time.Hour, clk.Now)

	j, _ := s.Add("f1", []string{"a", "b"}, nil)
	j.Start(clk.Now())
	j.FailAll(400, "library compile: boom", clk.Now())
	snap := j.Snapshot()
	if snap.State != Failed || snap.Err == "" {
		t.Fatalf("FailAll state = %v err=%q", snap.State, snap.Err)
	}
	for _, it := range snap.Items {
		if it.State != ItemFailed || it.Status != 400 {
			t.Errorf("item = %+v, want failed/400", it)
		}
	}

	j2, _ := s.Add("f2", []string{"a", "b"}, nil)
	j2.Start(clk.Now())
	j2.FinishItem(0, Item{State: ItemFailed, Status: 400, Err: "bad blif"})
	j2.FinishItem(1, Item{State: ItemDone, Status: 200})
	if st := j2.Finish(clk.Now()); st != Done {
		t.Fatalf("mixed batch = %v, want done", st)
	}

	j3, _ := s.Add("f3", []string{"a", "b"}, nil)
	j3.Start(clk.Now())
	j3.FinishItem(0, Item{State: ItemFailed, Status: 400})
	j3.FinishItem(1, Item{State: ItemFailed, Status: 504})
	if st := j3.Finish(clk.Now()); st != Failed {
		t.Fatalf("all-failed batch = %v, want failed", st)
	}

	counts := s.CountsByState()
	if counts[Failed] != 2 || counts[Done] != 1 {
		t.Errorf("counts = %v, want 2 failed 1 done", counts)
	}
}

// TestConcurrentStoreAccess hammers the store from many goroutines
// (meaningful under -race).
func TestConcurrentStoreAccess(t *testing.T) {
	clk := newFakeClock()
	s := NewStore(16, time.Hour, clk.Now)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := fmt.Sprintf("j-%d-%d", g, i)
				j, err := s.Add(id, []string{"x", "y"}, nil)
				if err != nil {
					continue // store full under contention is legal
				}
				j.Start(clk.Now())
				j.BeginItem(0)
				j.FinishItem(0, Item{State: ItemDone, Status: 200})
				go s.Get(id)
				j.FinishItem(1, Item{State: ItemDone, Status: 200})
				j.Finish(clk.Now())
				s.CountsByState()
			}
		}(g)
	}
	wg.Wait()
}
