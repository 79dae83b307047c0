package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// assertGoroutinesReturn polls the goroutine count back to the baseline;
// scheduler waits must never leave goroutines behind.
func assertGoroutinesReturn(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s", runtime.NumGoroutine(), base, buf[:m])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestImmediateAdmission(t *testing.T) {
	s := New(Options{MaxConcurrent: 2, QueueDepth: 4})
	rel1, err := s.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := s.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Active != 2 || st.Admitted != 2 || st.MaxActive != 2 {
		t.Fatalf("stats = %+v", st)
	}
	rel1()
	rel1() // idempotent
	rel2()
	if st := s.Stats(); st.Active != 0 || st.SlotsInUse != 0 {
		t.Fatalf("after release: %+v", st)
	}
}

func TestQueueFullRejection(t *testing.T) {
	s := New(Options{MaxConcurrent: 1, QueueDepth: 1})
	rel, err := s.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the single queue slot with a real waiter.
	admitted := make(chan func(), 1)
	go func() {
		r, err := s.Acquire(context.Background(), 1)
		if err != nil {
			t.Error(err)
		}
		admitted <- r
	}()
	waitFor(t, func() bool { return s.Stats().Waiting == 1 })
	// Third query: at MaxConcurrent and the queue is full → immediate reject.
	if _, err := s.Acquire(context.Background(), 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d", st.Rejected)
	}
	rel()
	(<-admitted)()
}

func TestQueueDepthZeroRejectsImmediately(t *testing.T) {
	s := New(Options{MaxConcurrent: 1})
	rel, err := s.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Acquire(context.Background(), 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	rel()
}

func TestQueueTimeout(t *testing.T) {
	s := New(Options{MaxConcurrent: 1, QueueDepth: 4, QueueTimeout: 20 * time.Millisecond})
	rel, err := s.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := s.Acquire(context.Background(), 1); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("want ErrQueueTimeout, got %v", err)
	}
	if e := time.Since(start); e < 15*time.Millisecond {
		t.Fatalf("timed out too early: %v", e)
	}
	st := s.Stats()
	if st.TimedOut != 1 || st.Waiting != 0 || st.TotalWait <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	rel()
	// The scheduler still admits after a timed-out waiter left.
	rel2, err := s.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rel2()
}

func TestQueuedCancellation(t *testing.T) {
	s := New(Options{MaxConcurrent: 1, QueueDepth: 4})
	rel, err := s.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Acquire(ctx, 1)
		errc <- err
	}()
	waitFor(t, func() bool { return s.Stats().Waiting == 1 })
	cancel() // client disconnect while queued, before admission
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	st := s.Stats()
	if st.Cancelled != 1 || st.Waiting != 0 || st.Active != 1 {
		t.Fatalf("stats = %+v", st)
	}
	rel()
	assertGoroutinesReturn(t, base)
}

func TestPreCancelledNeverQueues(t *testing.T) {
	s := New(Options{MaxConcurrent: 4, QueueDepth: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Acquire(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if st := s.Stats(); st.Admitted != 0 || st.Cancelled != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFIFOOrder(t *testing.T) {
	s := New(Options{MaxConcurrent: 1, QueueDepth: 8})
	rel, err := s.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		// Stagger enqueues so queue order is deterministic.
		waitFor(t, func() bool { return s.Stats().Waiting == i })
		go func() {
			defer wg.Done()
			r, err := s.Acquire(context.Background(), 1)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			r()
		}()
		waitFor(t, func() bool { return s.Stats().Waiting == i+1 })
	}
	rel()
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("admission order = %v, want FIFO", order)
		}
	}

	fifoOrderAcrossTenants(t)
}

// fifoOrderAcrossTenants is TestFIFOOrder's two-tenant input. Tenant a
// (quota 1) is parked on its own budget and tenant b waits behind a held
// global slot; each stepwise release must admit the next waiter in
// arrival order, skipping a's parked waiters until a's quota frees.
func fifoOrderAcrossTenants(t *testing.T) {
	t.Helper()
	s := New(Options{MaxConcurrent: 2, QueueDepth: 8, Tenants: map[string]TenantQuota{"a": {MaxConcurrent: 1}}})
	holdA, err := s.AcquireTag(context.Background(), 1, "a")
	if err != nil {
		t.Fatal(err)
	}
	holdB, err := s.AcquireTag(context.Background(), 1, "b")
	if err != nil {
		t.Fatal(err)
	}
	type admission struct {
		name string
		rel  func()
	}
	admitted := make(chan admission, 8)
	arrivals := []string{"a1", "b1", "a2", "b2", "b3"}
	for i, name := range arrivals {
		go func() {
			r, err := s.AcquireTag(context.Background(), 1, name[:1])
			if err != nil {
				t.Error(err)
				r = func() {}
			}
			admitted <- admission{name, r}
		}()
		waitFor(t, func() bool { return s.Stats().Waiting == i+1 })
	}
	rels := map[string]func(){"holdA": holdA, "holdB": holdB}
	// Each release frees exactly one admission; the name is who it admits.
	steps := []struct{ release, admits string }{
		{"holdB", "b1"}, // a1 is parked on a's quota, so b1 goes first
		{"b1", "b2"},    // a1 and a2 are still parked
		{"holdA", "a1"}, // a's quota frees: its head goes before b3
		{"b2", "b3"},    // a2 is parked behind a1 again
		{"a1", "a2"},
	}
	for _, st := range steps {
		rels[st.release]()
		select {
		case a := <-admitted:
			if a.name != st.admits {
				t.Fatalf("release of %s admitted %s, want %s", st.release, a.name, st.admits)
			}
			rels[a.name] = a.rel
		case <-time.After(5 * time.Second):
			t.Fatalf("release of %s admitted nothing, want %s", st.release, st.admits)
		}
		if got := s.Stats().Active; got != 2 {
			t.Fatalf("after release of %s: %d active, want 2", st.release, got)
		}
	}
	rels["b3"]()
	rels["a2"]()
	if st := s.Stats(); st.Active != 0 || st.Waiting != 0 {
		t.Fatalf("not quiescent: %+v", st)
	}
}

func TestWeightedSlots(t *testing.T) {
	// 4 slots: one cost-3 query and one cost-1 query coexist; a second
	// cost-3 must wait even though MaxConcurrent would allow it.
	s := New(Options{MaxConcurrent: 8, MaxSlots: 4, QueueDepth: 8})
	rel3, err := s.Acquire(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	rel1, err := s.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan func(), 1)
	go func() {
		r, err := s.Acquire(context.Background(), 3)
		if err != nil {
			t.Error(err)
		}
		done <- r
	}()
	waitFor(t, func() bool { return s.Stats().Waiting == 1 })
	if st := s.Stats(); st.SlotsInUse != 4 || st.MaxSlotsInUse != 4 {
		t.Fatalf("slots = %+v", st)
	}
	rel3()
	// 1 slot in use; the cost-3 head now fits.
	r := <-done
	if st := s.Stats(); st.SlotsInUse != 4 {
		t.Fatalf("after re-admit: %+v", st)
	}
	r()
	rel1()
	if st := s.Stats(); st.SlotsInUse != 0 || st.MaxSlotsInUse != 4 {
		t.Fatalf("final: %+v", st)
	}
}

func TestCostClampedToBudget(t *testing.T) {
	s := New(Options{MaxConcurrent: 2, MaxSlots: 4, QueueDepth: 2})
	// Cost 64 clamps to 4: it runs (alone) instead of deadlocking.
	rel, err := s.Acquire(context.Background(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SlotsInUse != 4 {
		t.Fatalf("slots = %d, want clamp to 4", st.SlotsInUse)
	}
	rel()
}

func TestDrainFailsWaitersAndBlocksUntilIdle(t *testing.T) {
	s := New(Options{MaxConcurrent: 1, QueueDepth: 4})
	rel, err := s.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	waiterErr := make(chan error, 1)
	go func() {
		_, err := s.Acquire(context.Background(), 1)
		waiterErr <- err
	}()
	waitFor(t, func() bool { return s.Stats().Waiting == 1 })

	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(context.Background()) }()
	// The queued waiter fails with ErrDraining.
	if err := <-waiterErr; !errors.Is(err, ErrDraining) {
		t.Fatalf("waiter: want ErrDraining, got %v", err)
	}
	// New admissions are refused while draining.
	if _, err := s.Acquire(context.Background(), 1); !errors.Is(err, ErrDraining) {
		t.Fatalf("acquire during drain: want ErrDraining, got %v", err)
	}
	// Drain has not returned: one query is still in flight.
	select {
	case err := <-drainErr:
		t.Fatalf("drain returned with a query in flight: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	rel()
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := s.Stats()
	if !st.Draining || st.Drained != 2 || st.Active != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Idempotent: draining an idle drained scheduler returns immediately.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertGoroutinesReturn(t, base)
}

func TestDrainTimeout(t *testing.T) {
	s := New(Options{MaxConcurrent: 1})
	rel, err := s.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	rel()
	// A later drain with the query gone succeeds.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentChurn hammers Acquire/release from many goroutines with
// mixed costs, cancellations and timeouts; under -race this is the
// scheduler's memory-safety check, and the invariant checks catch slot
// accounting drift.
func TestConcurrentChurn(t *testing.T) {
	s := New(Options{MaxConcurrent: 4, MaxSlots: 8, QueueDepth: 16, QueueTimeout: 5 * time.Millisecond})
	var running, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			if i%7 == 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(i%3)*time.Millisecond)
				defer cancel()
			}
			rel, err := s.Acquire(ctx, 1+i%4)
			if err != nil {
				return
			}
			n := running.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
			running.Add(-1)
			rel()
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Active != 0 || st.SlotsInUse != 0 || st.Waiting != 0 {
		t.Fatalf("not quiescent: %+v", st)
	}
	if peak.Load() > 4 || st.MaxActive > 4 {
		t.Fatalf("concurrency exceeded limit: peak=%d maxActive=%d", peak.Load(), st.MaxActive)
	}
	if st.MaxSlotsInUse > 8 {
		t.Fatalf("slot budget exceeded: %d", st.MaxSlotsInUse)
	}
	if st.Admitted == 0 {
		t.Fatal("nothing admitted")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}
