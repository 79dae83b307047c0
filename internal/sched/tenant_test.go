package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestTenantQuotaBoundsConcurrency: a declared tenant is capped by its
// own quota inside a larger global budget, and other tenants keep
// running past it.
func TestTenantQuotaBoundsConcurrency(t *testing.T) {
	s := New(Options{
		MaxConcurrent: 8,
		QueueDepth:    8,
		Tenants:       map[string]TenantQuota{"batch": {MaxConcurrent: 2}},
	})
	r1, err := s.AcquireTag(context.Background(), 1, "batch")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.AcquireTag(context.Background(), 1, "batch")
	if err != nil {
		t.Fatal(err)
	}
	// Third batch query queues: its tenant is saturated.
	blocked := make(chan func(), 1)
	go func() {
		r, err := s.AcquireTag(context.Background(), 1, "batch")
		if err != nil {
			t.Error(err)
		}
		blocked <- r
	}()
	waitFor(t, func() bool { return s.Stats().Waiting == 1 })
	// Another tenant sails past the blocked batch waiter.
	r3, err := s.AcquireTag(context.Background(), 1, "interactive")
	if err != nil {
		t.Fatalf("other tenant blocked by a saturated one: %v", err)
	}
	st := s.Stats()
	bt := st.Tenants["batch"]
	if bt.Active != 2 || bt.Waiting != 1 || bt.MaxActive != 2 || !bt.Declared || bt.MaxConcurrent != 2 {
		t.Fatalf("batch tenant stats: %+v", bt)
	}
	if it := st.Tenants["interactive"]; it.Active != 1 || it.Declared {
		t.Fatalf("interactive tenant stats: %+v", it)
	}
	r1()
	// Releasing one batch slot admits the batch waiter.
	r := <-blocked
	if got := s.Stats().Tenants["batch"].Active; got != 2 {
		t.Fatalf("batch active after re-admit = %d", got)
	}
	r()
	r2()
	r3()
	if st := s.Stats(); st.Active != 0 || st.SlotsInUse != 0 {
		t.Fatalf("not quiescent: %+v", st)
	}
}

// TestTenantSlotBudget: a tenant slot budget caps both admission and
// cost clamping independently of the global slot budget.
func TestTenantSlotBudget(t *testing.T) {
	s := New(Options{
		MaxConcurrent: 8,
		MaxSlots:      16,
		QueueDepth:    8,
		Tenants:       map[string]TenantQuota{"batch": {MaxConcurrent: 8, MaxSlots: 4}},
	})
	// Cost 64 clamps to the tenant budget 4, not the global 16.
	rel, err := s.AcquireTag(context.Background(), 64, "batch")
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats().Tenants["batch"]; st.SlotsInUse != 4 {
		t.Fatalf("tenant slots = %d, want clamp to 4", st.SlotsInUse)
	}
	// The tenant is slot-saturated: a cost-1 batch query queues while an
	// unquota'd tenant still fits.
	blocked := make(chan func(), 1)
	go func() {
		r, err := s.AcquireTag(context.Background(), 1, "batch")
		if err != nil {
			t.Error(err)
		}
		blocked <- r
	}()
	waitFor(t, func() bool { return s.Stats().Waiting == 1 })
	other, err := s.AcquireTag(context.Background(), 8, "other")
	if err != nil {
		t.Fatal(err)
	}
	rel()
	(<-blocked)()
	other()
}

// TestTenantHeadOfLineNotStarvedByTenantMates: a tenant's expensive
// query parked on the tenant's own slot budget must not be overtaken
// by the tenant's later cheap queries (the per-tenant mirror of the
// global head-of-line rule), while other tenants still pass freely.
func TestTenantHeadOfLineNotStarvedByTenantMates(t *testing.T) {
	s := New(Options{
		MaxConcurrent: 8,
		QueueDepth:    8,
		Tenants:       map[string]TenantQuota{"x": {MaxConcurrent: 8, MaxSlots: 4}},
	})
	small, err := s.AcquireTag(context.Background(), 2, "x")
	if err != nil {
		t.Fatal(err)
	}
	// The cost-4 head parks on the tenant budget (2+4 > 4).
	bigDone := make(chan func(), 1)
	go func() {
		r, err := s.AcquireTag(context.Background(), 4, "x")
		if err != nil {
			t.Error(err)
		}
		bigDone <- r
	}()
	waitFor(t, func() bool { return s.Stats().Waiting == 1 })
	// A later same-tenant cost-2 query would fit (2+2 <= 4) but must
	// queue behind its tenant's blocked head rather than overtake it.
	cheapDone := make(chan func(), 1)
	go func() {
		r, err := s.AcquireTag(context.Background(), 2, "x")
		if err != nil {
			t.Error(err)
		}
		cheapDone <- r
	}()
	waitFor(t, func() bool { return s.Stats().Waiting == 2 })
	select {
	case <-cheapDone:
		t.Fatal("cheap tenant-mate overtook the tenant's blocked head")
	case <-time.After(30 * time.Millisecond):
	}
	// Another tenant still sails past the parked pair.
	other, err := s.AcquireTag(context.Background(), 2, "y")
	if err != nil {
		t.Fatalf("other tenant blocked by a parked tenant head: %v", err)
	}
	other()
	// Releasing the small query admits the head first; the cheap
	// tenant-mate follows only once the head releases its 4 slots.
	small()
	bigRel := <-bigDone
	select {
	case <-cheapDone:
		t.Fatal("cheap query admitted while the head holds the full tenant budget")
	case <-time.After(30 * time.Millisecond):
	}
	bigRel()
	(<-cheapDone)()
	if st := s.Stats().Tenants["x"]; st.Active != 0 || st.SlotsInUse != 0 {
		t.Fatalf("not quiescent: %+v", st)
	}
}

// TestTenantQuotaZeroRejects: a declared zero quota is an administrative
// shutoff — immediate ErrTenantQuota, never queued, counted per tenant.
func TestTenantQuotaZeroRejects(t *testing.T) {
	s := New(Options{
		MaxConcurrent: 4,
		QueueDepth:    4,
		Tenants:       map[string]TenantQuota{"banned": {MaxConcurrent: 0}},
	})
	if _, err := s.AcquireTag(context.Background(), 1, "banned"); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("want ErrTenantQuota, got %v", err)
	}
	st := s.Stats()
	if st.Rejected != 1 || st.Queued != 0 {
		t.Fatalf("global stats: %+v", st)
	}
	if bt := st.Tenants["banned"]; bt.Rejected != 1 || bt.Admitted != 0 {
		t.Fatalf("banned tenant stats: %+v", bt)
	}
	// Other tenants are untouched.
	rel, err := s.AcquireTag(context.Background(), 1, "ok")
	if err != nil {
		t.Fatal(err)
	}
	rel()
}

// TestUnknownTenantFallsBackToGlobalBudget: an undeclared tenant runs
// under the global budget alone and still gets a stats entry.
func TestUnknownTenantFallsBackToGlobalBudget(t *testing.T) {
	s := New(Options{MaxConcurrent: 2})
	r1, err := s.AcquireTag(context.Background(), 1, "mystery")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.AcquireTag(context.Background(), 1, "mystery")
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats().Tenants["mystery"]
	if st.Active != 2 || st.Declared || st.MaxConcurrent != 0 {
		t.Fatalf("mystery tenant stats: %+v", st)
	}
	// The global limit still applies to it (no queue → immediate reject).
	if _, err := s.AcquireTag(context.Background(), 1, "mystery"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull under the global limit, got %v", err)
	}
	r1()
	r2()
}

// TestDrainWithMixedTenantWaiters: Drain fails queued waiters of every
// tenant, books Drained per tenant, and leaves no goroutines behind.
func TestDrainWithMixedTenantWaiters(t *testing.T) {
	s := New(Options{
		MaxConcurrent: 1,
		QueueDepth:    8,
		Tenants:       map[string]TenantQuota{"a": {MaxConcurrent: 1}},
	})
	rel, err := s.AcquireTag(context.Background(), 1, "a")
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	errs := make(chan error, 2)
	for _, tenant := range []string{"a", "b"} {
		tenant := tenant
		go func() {
			_, err := s.AcquireTag(context.Background(), 1, tenant)
			errs <- err
		}()
		waitFor(t, func() bool { return s.Stats().Tenants[tenant].Waiting == 1 })
	}
	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(context.Background()) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, ErrDraining) {
			t.Fatalf("waiter: want ErrDraining, got %v", err)
		}
	}
	rel()
	if err := <-drainErr; err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Tenants["a"].Drained != 1 || st.Tenants["b"].Drained != 1 {
		t.Fatalf("per-tenant drained: a=%+v b=%+v", st.Tenants["a"], st.Tenants["b"])
	}
	if st.Tenants["a"].Waiting != 0 || st.Tenants["b"].Waiting != 0 {
		t.Fatalf("waiting gauges after drain: %+v", st.Tenants)
	}
	assertGoroutinesReturn(t, base)
}

// TestFullQueueOfTenantBlockedWaitersAdmitsOthers: a saturated tenant
// parking QueueDepth waiters must not turn the shared queue bound into
// a lockout — an arrival from another tenant that fits free global
// capacity is admitted directly even though the queue is full.
func TestFullQueueOfTenantBlockedWaitersAdmitsOthers(t *testing.T) {
	s := New(Options{
		MaxConcurrent: 4,
		QueueDepth:    2,
		Tenants:       map[string]TenantQuota{"batch": {MaxConcurrent: 1}},
	})
	hold, err := s.AcquireTag(context.Background(), 1, "batch")
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan func(), 2)
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			r, err := s.AcquireTag(context.Background(), 1, "batch")
			if err != nil {
				t.Error(err)
			}
			admitted <- r
		}()
		waitFor(t, func() bool { return s.Stats().Waiting == i+1 })
	}
	// Queue full, every waiter tenant-blocked, 3 of 4 global slots free.
	rel, err := s.AcquireTag(context.Background(), 1, "interactive")
	if err != nil {
		t.Fatalf("full tenant-blocked queue locked another tenant out: %v", err)
	}
	rel()
	// A batch arrival is still rejected: its own waiters fill the queue
	// and it could not run anyway.
	if _, err := s.AcquireTag(context.Background(), 1, "batch"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull for the saturated tenant itself, got %v", err)
	}
	hold()
	r1 := <-admitted
	r1()
	(<-admitted)()
}

// TestFullQueueGlobalWaiterKeepsItsClaim: the full-queue bypass must not
// jump a waiter that is merely expensive (globally slot-blocked): a
// cheaper arrival that would fit is rejected instead.
func TestFullQueueGlobalWaiterKeepsItsClaim(t *testing.T) {
	s := New(Options{MaxConcurrent: 8, MaxSlots: 4, QueueDepth: 1})
	hold, err := s.Acquire(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// A cost-4 waiter is globally slot-blocked (2+4 > 4) and fills the queue.
	big := make(chan func(), 1)
	go func() {
		r, err := s.Acquire(context.Background(), 4)
		if err != nil {
			t.Error(err)
		}
		big <- r
	}()
	waitFor(t, func() bool { return s.Stats().Waiting == 1 })
	// A cost-1 arrival fits but must not starve the big waiter of the
	// capacity it is first in line for, whatever its tenant.
	for _, tenant := range []string{"", "other"} {
		if _, err := s.AcquireTag(context.Background(), 1, tenant); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("cheap arrival (tenant %q) jumped a globally blocked waiter: %v", tenant, err)
		}
	}
	hold()
	(<-big)()
}

// TestTenantMapBounded: tenant keys are wire-client-controlled, so the
// accounting map folds undeclared tenants past the cap into the
// overflow bucket instead of growing without bound.
func TestTenantMapBounded(t *testing.T) {
	s := New(Options{MaxConcurrent: 4})
	n := maxTrackedTenants + 100
	for i := 0; i < n; i++ {
		rel, err := s.AcquireTag(context.Background(), 1, fmt.Sprintf("t%05d", i))
		if err != nil {
			t.Fatal(err)
		}
		rel()
	}
	st := s.Stats()
	if len(st.Tenants) > maxTrackedTenants+1 {
		t.Fatalf("tenant map unbounded: %d entries", len(st.Tenants))
	}
	if ov := st.Tenants[OverflowTenantName]; ov.Admitted < 100 {
		t.Fatalf("overflow bucket: %+v", ov)
	}
	if st.Admitted != uint64(n) {
		t.Fatalf("global admitted = %d, want %d", st.Admitted, n)
	}
}

// TestDefaultTenantMapping: untagged admissions and the configured
// default tenant name are the same bucket, including declared quotas on
// the default tenant.
func TestDefaultTenantMapping(t *testing.T) {
	s := New(Options{
		MaxConcurrent: 4,
		DefaultTenant: "anon",
		Tenants:       map[string]TenantQuota{"anon": {MaxConcurrent: 1}},
	})
	rel, err := s.Acquire(context.Background(), 1) // untagged → "anon"
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats().Tenants["anon"]; st.Active != 1 {
		t.Fatalf("anon tenant: %+v", st)
	}
	// The declared quota of the default tenant applies to untagged work.
	if _, err := s.Acquire(context.Background(), 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull (tenant-saturated, no queue), got %v", err)
	}
	rel()
	// QuotaFor resolves the default mapping for callers outside the lock.
	if q, ok := s.Options().QuotaFor(""); !ok || q.MaxConcurrent != 1 {
		t.Fatalf("QuotaFor(\"\") = %+v, %v", q, ok)
	}
}
