package rescache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGetPutValidate(t *testing.T) {
	c := New[string](100, 0)
	if _, ok := c.Get("k", nil); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("k", "v", 10)
	if v, ok := c.Get("k", nil); !ok || v != "v" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	// Validation failure drops the entry and counts an invalidation.
	if _, ok := c.Get("k", func(string) bool { return false }); ok {
		t.Fatal("invalid entry served")
	}
	if _, ok := c.Get("k", nil); ok {
		t.Fatal("invalidated entry still present")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Invalidations != 1 || s.Misses != 3 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestByteBudgetEviction(t *testing.T) {
	c := New[int](100, 100)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprint(i), i, 20) // 5 fit
	}
	s := c.Stats()
	if s.Bytes > 100 {
		t.Fatalf("over budget: %d", s.Bytes)
	}
	if s.Evictions == 0 {
		t.Fatal("no evictions under byte pressure")
	}
	// The most recently inserted keys survive.
	if _, ok := c.Get("9", nil); !ok {
		t.Fatal("newest entry evicted")
	}
	if _, ok := c.Get("0", nil); ok {
		t.Fatal("oldest entry survived a full churn")
	}
}

func TestLRURecencyOrder(t *testing.T) {
	c := New[int](60, 60)
	c.Put("a", 1, 20)
	c.Put("b", 2, 20)
	c.Put("c", 3, 20)
	c.Get("a", nil) // refresh a; b is now LRU
	c.Put("d", 4, 20)
	if _, ok := c.Get("b", nil); ok {
		t.Fatal("LRU entry b survived")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k, nil); !ok {
			t.Fatalf("entry %s evicted out of LRU order", k)
		}
	}
}

func TestOversizeRefused(t *testing.T) {
	c := New[int](100, 0) // entry cap defaults to 25
	c.Put("big", 1, 26)
	if _, ok := c.Get("big", nil); ok {
		t.Fatal("oversize entry cached")
	}
	c.Put("fits", 2, 25)
	if _, ok := c.Get("fits", nil); !ok {
		t.Fatal("at-cap entry refused")
	}
}

func TestReplaceSameKey(t *testing.T) {
	c := New[int](100, 100)
	c.Put("k", 1, 40)
	c.Put("k", 2, 60)
	if v, _ := c.Get("k", nil); v != 2 {
		t.Fatalf("v = %d", v)
	}
	if s := c.Stats(); s.Bytes != 60 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestReplaceForcingEvictionAccounting pins the replace-then-evict
// path: replacing a key subtracts the old entry's size, and the
// eviction loop triggered by the new size must never pick the replaced
// key as its LRU victim (a double subtraction that would leave bytes
// negative and the cache over budget).
func TestReplaceForcingEvictionAccounting(t *testing.T) {
	c := New[int](100, 100)
	c.Put("a", 1, 60) // oldest — the LRU victim candidate
	c.Put("b", 2, 30) // bytes = 90
	// Replacing "a" with 90 bytes: old "a" (60) comes out, and fitting
	// the new value must evict "b", not the already-removed "a".
	c.Put("a", 3, 90)
	s := c.Stats()
	if s.Bytes != 90 || s.Entries != 1 {
		t.Fatalf("accounting corrupted: %+v", s)
	}
	if s.Bytes < 0 || s.Bytes > 100 {
		t.Fatalf("bytes outside budget: %d", s.Bytes)
	}
	if v, ok := c.Get("a", nil); !ok || v != 3 {
		t.Fatalf("replaced entry = %d, %v", v, ok)
	}
	if _, ok := c.Get("b", nil); ok {
		t.Fatal("b survived an eviction its bytes were charged for")
	}
}

// TestCommitOversizeRefused pins the shared guard: a flight Commit over
// the per-entry cap must be refused exactly like a Put, not evict the
// whole cache and corrupt the byte accounting.
func TestCommitOversizeRefused(t *testing.T) {
	c := New[int](100, 25)
	c.Put("warm", 1, 20)
	_, hit, fl, err := c.Do(context.Background(), "big", nil)
	if hit || err != nil || fl == nil {
		t.Fatalf("Do = hit=%v fl=%v err=%v", hit, fl, err)
	}
	fl.Commit(2, 50) // over entryCap
	if _, ok := c.Get("big", nil); ok {
		t.Fatal("oversize Commit cached")
	}
	s := c.Stats()
	if s.Bytes != 20 || s.Entries != 1 || s.Evictions != 0 {
		t.Fatalf("oversize Commit disturbed the cache: %+v", s)
	}
}

func TestSingleflightCollapse(t *testing.T) {
	c := New[int](1000, 1000)
	const n = 32
	var execs atomic.Int32
	var wg sync.WaitGroup
	results := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, fl, err := c.Do(context.Background(), "k", nil)
			if err != nil {
				t.Error(err)
				return
			}
			if hit {
				results[i] = v
				return
			}
			// Leader: simulate work, then commit.
			execs.Add(1)
			time.Sleep(20 * time.Millisecond)
			fl.Commit(42, 8)
			results[i] = 42
		}(i)
	}
	wg.Wait()
	if got := execs.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("result[%d] = %d", i, v)
		}
	}
	s := c.Stats()
	if s.Collapsed != n-1 {
		t.Fatalf("collapsed = %d, want %d", s.Collapsed, n-1)
	}
}

func TestSingleflightLeaderCancelReleasesWaiters(t *testing.T) {
	c := New[int](1000, 1000)
	_, _, fl, _ := c.Do(context.Background(), "k", nil)
	if fl == nil {
		t.Fatal("expected leadership")
	}
	waited := make(chan struct{})
	go func() {
		defer close(waited)
		_, hit, fl2, err := c.Do(context.Background(), "k", nil)
		if err != nil {
			t.Error(err)
			return
		}
		// The canceled leader stored nothing: the waiter must get
		// leadership, not a hit.
		if hit || fl2 == nil {
			t.Errorf("hit=%v fl=%v after leader cancel", hit, fl2)
			return
		}
		fl2.Cancel()
	}()
	time.Sleep(10 * time.Millisecond)
	fl.Cancel()
	select {
	case <-waited:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never released")
	}
}

func TestSingleflightAbandonCounts(t *testing.T) {
	c := New[int](1000, 1000)
	_, _, fl, _ := c.Do(context.Background(), "k", nil)
	fl.Abandon()
	fl.Abandon() // idempotent
	if s := c.Stats(); s.Abandoned != 1 {
		t.Fatalf("abandoned = %d", s.Abandoned)
	}
	if _, ok := c.Get("k", nil); ok {
		t.Fatal("abandoned flight stored an entry")
	}
}

func TestSingleflightWaiterCtxExpiry(t *testing.T) {
	c := New[int](1000, 1000)
	_, _, fl, _ := c.Do(context.Background(), "k", nil)
	defer fl.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, _, err := c.Do(ctx, "k", nil)
	if err == nil {
		t.Fatal("expired waiter returned no error")
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	c := New[int](512, 128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprint(i % 13)
				switch i % 4 {
				case 0:
					c.Put(key, i, int64(1+i%64))
				case 1:
					c.Get(key, func(int) bool { return i%7 != 0 })
				case 2:
					_, hit, fl, _ := c.Do(context.Background(), key, nil)
					if !hit && fl != nil {
						if i%2 == 0 {
							fl.Commit(i, 16)
						} else {
							fl.Cancel()
						}
					}
				case 3:
					if i%50 == 0 {
						c.Sweep(func(int) bool { return false })
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if s := c.Stats(); s.Bytes > 512 {
		t.Fatalf("budget exceeded: %+v", s)
	}
}
