package service

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"dagcover"
)

// compile441 is a Cache.Get compile function for the built-in 44-1.
func compile441() (library, error) {
	cl, err := dagcover.CompileLibrary(dagcover.Lib441())
	return library{cl: cl}, err
}

func TestCacheCompilesOncePerKey(t *testing.T) {
	c := NewCache(0)
	var calls atomic.Int32
	compile := func() (library, error) {
		calls.Add(1)
		return compile441()
	}
	const workers = 16
	var wg sync.WaitGroup
	cls := make([]*dagcover.CompiledLibrary, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lib, err := c.Get("builtin:44-1", compile)
			if err != nil {
				t.Error(err)
			}
			cls[i] = lib.cl
		}(i)
	}
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("compile ran %d times, want 1", got)
	}
	for _, cl := range cls[1:] {
		if cl != cls[0] {
			t.Fatal("racing callers received different compiled libraries")
		}
	}
	hits, misses, compiles := c.Counters()
	if compiles != 1 || misses != 1 || hits != workers-1 {
		t.Fatalf("counters = hits %d misses %d compiles %d, want %d/1/1", hits, misses, compiles, workers-1)
	}
}

func TestCacheDropsFailedCompiles(t *testing.T) {
	c := NewCache(0)
	boom := errors.New("boom")
	_, err := c.Get("k", func() (library, error) { return library{}, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatalf("failed compile was cached (len %d)", c.Len())
	}
	lib, err := c.Get("k", compile441)
	if err != nil || lib.cl == nil || lib.hit {
		t.Fatalf("retry after failure: cl=%v hit=%v err=%v", lib.cl, lib.hit, err)
	}
}

func TestCacheBounded(t *testing.T) {
	c := NewCache(1)
	if _, err := c.Get("a", compile441); err != nil {
		t.Fatal(err)
	}
	// Over the bound: served, but not retained.
	if _, err := c.Get("b", compile441); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("cache grew past its bound: len %d", c.Len())
	}
	// An uncached compile fails with the same text as a cached one.
	boom := errors.New("boom")
	if _, err := c.Get("c", func() (library, error) { return library{}, boom }); !errors.Is(err, boom) || err.Error() != "library compile: boom" {
		t.Fatalf("uncached compile error = %v, want library compile: boom", err)
	}
	lib, err := c.Get("a", compile441)
	if err != nil || !lib.hit {
		t.Fatalf("bounded cache lost its retained entry: hit=%v err=%v", lib.hit, err)
	}
}
