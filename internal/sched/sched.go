// Package sched is the admission-controlled query scheduler behind the
// serving front end. It bounds how much of the engine a burst of
// concurrent queries can claim: each query is admitted with a weighted
// cost — its effective degree of parallelism, i.e. the number of
// morsel-exchange worker slots it may occupy — against a budget of
// concurrent queries and total worker slots. Queries that do not fit wait
// in a bounded queue with per-query timeouts and context cancellation;
// queries that cannot even queue are rejected immediately, giving clients
// a clean load-shedding signal instead of a collapsing server. That
// rejection is the cluster's only one too: a router in front of several
// replicas retries it on the next replica rather than reading their
// queues.
//
// # Tenants
//
// The scheduler is multi-tenant: every admission names a tenant.
// Tenants may be declared with their own budget (TenantQuota: max
// concurrent queries and max worker slots), which is enforced in
// addition to the global budget; undeclared tenants share the global
// budget and are still tracked for stats. Waiters are admitted first
// come, first served, under two rules. A waiter blocked only by its own
// tenant's budget is skipped by other tenants' admissions — a saturated
// tenant never holds global capacity hostage — but not by its own
// tenant-mates, so a tenant's cheap queries cannot starve its expensive
// ones. A waiter blocked by the global budget stops the scan entirely
// (expensive queries are not starved by cheaper ones arriving behind
// them). Tenant quotas are the isolation tool: a tenant that must not
// wait behind another's burst is protected by bounding that burst.
//
// The scheduler is deliberately engine-agnostic: it hands out admission
// tickets (release functions), never goroutines, so raven.DB can gate
// Query/Stmt.Query with one Acquire call and release on Rows.Close.
package sched

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Admission failure modes. Servers map these to distinct status codes
// (rejected ≠ timed out), so they are sentinel errors, not strings.
var (
	// ErrQueueFull means the query could not even wait: the scheduler is at
	// its concurrency limit and the queue is at capacity. Clients should
	// back off and retry.
	ErrQueueFull = errors.New("sched: admission queue full")
	// ErrQueueTimeout means the query waited its full queue timeout
	// without being admitted.
	ErrQueueTimeout = errors.New("sched: timed out waiting for admission")
	// ErrDraining means the scheduler is shutting down and admits nothing.
	ErrDraining = errors.New("sched: scheduler is draining")
	// ErrTenantQuota means the query's tenant is declared with a zero
	// concurrency quota: the tenant is administratively shut off and its
	// queries are rejected without queueing.
	ErrTenantQuota = errors.New("sched: tenant admission quota is zero")
)

// DefaultTenantName is the tenant untagged admissions are attributed to
// when Options.DefaultTenant is empty.
const DefaultTenantName = "default"

// maxTrackedTenants bounds the per-tenant accounting map: tenant keys
// arrive from untrusted wire clients, so without a cap a client cycling
// random names would grow the map (and every Stats snapshot) without
// bound. Undeclared tenants past the cap are folded into
// OverflowTenantName — budgets are unaffected (undeclared tenants only
// ever had the global one), only the stats label coarsens.
const maxTrackedTenants = 1024

// OverflowTenantName is the catch-all stats bucket for undeclared
// tenants seen after maxTrackedTenants distinct keys.
const OverflowTenantName = "~other"

// TenantQuota is a declared tenant's budget. MaxConcurrent <= 0 shuts
// the tenant off (its admissions fail with ErrTenantQuota); MaxSlots <= 0
// leaves the tenant bounded only by the global slot budget.
type TenantQuota struct {
	MaxConcurrent int `json:"max_concurrent"`
	MaxSlots      int `json:"max_slots,omitempty"`
}

// Options configures a Scheduler.
type Options struct {
	// MaxConcurrent is the maximum number of queries running at once.
	// Values < 1 are treated as 1.
	MaxConcurrent int
	// MaxSlots bounds the total worker slots across all running queries,
	// where a query's cost is its effective DOP. 0 disables the slot
	// budget (only MaxConcurrent limits). A query costing more than
	// MaxSlots is clamped to MaxSlots so it can still run (alone).
	MaxSlots int
	// QueueDepth is how many queries may wait for admission. 0 means no
	// queue: anything over MaxConcurrent is rejected immediately.
	QueueDepth int
	// QueueTimeout bounds how long one query waits in the queue before
	// failing with ErrQueueTimeout. 0 means wait until the query's own
	// context expires.
	QueueTimeout time.Duration
	// DefaultTenant names the tenant untagged admissions belong to;
	// empty means DefaultTenantName.
	DefaultTenant string
	// Tenants declares per-tenant budgets. Tenants absent from the map
	// run under the global budget alone.
	Tenants map[string]TenantQuota
}

// QuotaFor resolves the declared quota for a (possibly empty) tenant
// key, applying the default-tenant mapping. ok is false for undeclared
// tenants, which run under the global budget.
func (o Options) QuotaFor(tenant string) (TenantQuota, bool) {
	q, ok := o.Tenants[o.resolveTenant(tenant)]
	return q, ok
}

func (o Options) resolveTenant(tenant string) string {
	if tenant != "" {
		return tenant
	}
	if o.DefaultTenant != "" {
		return o.DefaultTenant
	}
	return DefaultTenantName
}

// waitBuckets are the upper bounds (exclusive) of the queue-wait
// histogram, in the order Stats.WaitHistogram reports them; a wait at or
// past the last bound lands in the final unbounded bucket.
var waitBuckets = []time.Duration{
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
}

// WaitBucketLabels names the histogram buckets, aligned with
// Stats.WaitHistogram.
var WaitBucketLabels = []string{"<1ms", "<10ms", "<100ms", "<1s", ">=1s"}

// TenantStats is one tenant's slice of the scheduler counters. The
// counter/gauge fields mirror Stats; Declared distinguishes a tenant
// shut off with a zero quota from one merely unconfigured.
type TenantStats struct {
	Admitted  uint64 `json:"admitted"`
	Queued    uint64 `json:"queued"`
	Rejected  uint64 `json:"rejected"`
	TimedOut  uint64 `json:"timed_out"`
	Cancelled uint64 `json:"cancelled"`
	Drained   uint64 `json:"drained"`

	Active     int `json:"active"`
	Waiting    int `json:"waiting"`
	SlotsInUse int `json:"slots_in_use"`

	MaxActive     int `json:"max_active"`
	MaxSlotsInUse int `json:"max_slots_in_use"`

	WaitHistogram [5]uint64     `json:"wait_histogram"`
	TotalWait     time.Duration `json:"total_wait_ns"`

	// Declared quota: meaningful only when Declared. MaxConcurrent 0 on
	// a declared tenant means administratively shut off (so it is
	// always emitted); MaxSlots 0 means only the global slot budget
	// applies.
	Declared      bool `json:"declared,omitempty"`
	MaxConcurrent int  `json:"max_concurrent"`
	MaxSlots      int  `json:"max_slots,omitempty"`
}

// Stats is a point-in-time snapshot of the scheduler's counters and
// gauges.
type Stats struct {
	// Cumulative counters.
	Admitted  uint64 `json:"admitted"`  // queries admitted (incl. after queueing)
	Queued    uint64 `json:"queued"`    // queries that had to wait before admission or failure
	Rejected  uint64 `json:"rejected"`  // ErrQueueFull and ErrTenantQuota
	TimedOut  uint64 `json:"timed_out"` // ErrQueueTimeout
	Cancelled uint64 `json:"cancelled"` // context cancelled/expired while waiting
	Drained   uint64 `json:"drained"`   // waiters failed by Drain

	// Gauges.
	Active     int `json:"active"`       // queries running now
	Waiting    int `json:"waiting"`      // queries queued now
	SlotsInUse int `json:"slots_in_use"` // worker slots held by running queries

	// High-water marks since construction: the acceptance check that
	// admission control actually bounded concurrency.
	MaxActive     int `json:"max_active"`
	MaxSlotsInUse int `json:"max_slots_in_use"`

	// WaitHistogram counts admitted-after-queueing queries by queue wait,
	// bucketed per WaitBucketLabels. TotalWait sums every queue wait
	// (admitted or not), for mean-wait computation.
	WaitHistogram [5]uint64     `json:"wait_histogram"`
	TotalWait     time.Duration `json:"total_wait_ns"`

	Draining bool `json:"draining"`

	// Limits echo the configuration so /stats is self-describing.
	MaxConcurrent int `json:"max_concurrent"`
	MaxSlots      int `json:"max_slots"`
	QueueDepth    int `json:"queue_depth"`

	// Tenants breaks the counters down per tenant key (every tenant ever
	// seen, declared or not).
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// tenantState is the live accounting for one tenant key.
type tenantState struct {
	name     string
	declared bool
	quota    TenantQuota

	active     int
	slotsInUse int
	waiting    int

	stats TenantStats // counters + high-water marks; gauges filled at snapshot
}

// waiter is one queued admission request. res carries the outcome: nil
// means admitted (the waiter owns its slots), non-nil means the
// scheduler failed the wait (drain). It is buffered so the scheduler
// never blocks signalling a waiter that is simultaneously giving up.
type waiter struct {
	cost      int
	ts        *tenantState
	res       chan error
	signalled bool // an outcome was sent on res; guarded by s.mu
	enqueued  time.Time
}

// failKind selects which failure counters a failed wait books.
type failKind int

const (
	failCancelled failKind = iota
	failTimedOut
)

// Scheduler is a weighted-slot, tenant-aware admission controller.
// Admission order is arrival order; see the package comment for the
// fairness rules.
type Scheduler struct {
	opts Options

	mu         sync.Mutex
	active     int
	slotsInUse int
	queue      []*waiter // arrival order
	tenants    map[string]*tenantState
	draining   bool
	drainDone  chan struct{} // closed when draining && active == 0

	stats Stats
}

// New builds a Scheduler. MaxConcurrent < 1 is raised to 1.
func New(opts Options) *Scheduler {
	if opts.MaxConcurrent < 1 {
		opts.MaxConcurrent = 1
	}
	if opts.QueueDepth < 0 {
		opts.QueueDepth = 0
	}
	if opts.MaxSlots < 0 {
		opts.MaxSlots = 0
	}
	s := &Scheduler{opts: opts, tenants: make(map[string]*tenantState)}
	// Declared tenants exist from construction so /stats shows the
	// configured fleet before any traffic arrives.
	for name, q := range opts.Tenants {
		if q.MaxConcurrent < 0 {
			q.MaxConcurrent = 0
		}
		if q.MaxSlots < 0 {
			q.MaxSlots = 0
		}
		s.tenants[name] = &tenantState{name: name, declared: true, quota: q}
	}
	return s
}

// Options returns the configured limits.
func (s *Scheduler) Options() Options { return s.opts }

// tenantLocked resolves (lazily creating) the state for a tenant key;
// callers hold s.mu. Undeclared tenants are tracked too, so per-tenant
// stats cover everyone who ever showed up — up to maxTrackedTenants
// distinct keys, past which new undeclared names share the overflow
// bucket (tenant keys are wire-client-controlled; the map must not be).
func (s *Scheduler) tenantLocked(name string) *tenantState {
	ts := s.tenants[name]
	if ts == nil {
		if len(s.tenants) >= maxTrackedTenants {
			name = OverflowTenantName
			if ts = s.tenants[name]; ts != nil {
				return ts
			}
		}
		ts = &tenantState{name: name}
		s.tenants[name] = ts
	}
	return ts
}

// clampCost normalizes a query's slot cost: at least 1, and never more
// than the global or tenant slot budget (a DOP-64 query on an 8-slot
// scheduler runs alone at cost 8 rather than deadlocking forever).
func (s *Scheduler) clampCost(ts *tenantState, cost int) int {
	if cost < 1 {
		cost = 1
	}
	if s.opts.MaxSlots > 0 && cost > s.opts.MaxSlots {
		cost = s.opts.MaxSlots
	}
	if ts.declared && ts.quota.MaxSlots > 0 && cost > ts.quota.MaxSlots {
		cost = ts.quota.MaxSlots
	}
	return cost
}

// fits reports whether a query of the given cost can start now, and if
// not, whether the binding constraint is the tenant's own budget (the
// admission scan skips tenant-blocked waiters but stops at globally
// blocked ones); callers hold s.mu.
func (s *Scheduler) fits(ts *tenantState, cost int) (ok, tenantBlocked bool) {
	if ts.declared {
		if ts.active >= ts.quota.MaxConcurrent {
			return false, true
		}
		if ts.quota.MaxSlots > 0 && ts.slotsInUse+cost > ts.quota.MaxSlots {
			return false, true
		}
	}
	if s.active >= s.opts.MaxConcurrent {
		return false, false
	}
	if s.opts.MaxSlots > 0 && s.slotsInUse+cost > s.opts.MaxSlots {
		return false, false
	}
	return true, false
}

// admitLocked marks a query running; callers hold s.mu.
func (s *Scheduler) admitLocked(ts *tenantState, cost int) {
	s.active++
	s.slotsInUse += cost
	s.stats.Admitted++
	if s.active > s.stats.MaxActive {
		s.stats.MaxActive = s.active
	}
	if s.slotsInUse > s.stats.MaxSlotsInUse {
		s.stats.MaxSlotsInUse = s.slotsInUse
	}
	ts.active++
	ts.slotsInUse += cost
	ts.stats.Admitted++
	if ts.active > ts.stats.MaxActive {
		ts.stats.MaxActive = ts.active
	}
	if ts.slotsInUse > ts.stats.MaxSlotsInUse {
		ts.stats.MaxSlotsInUse = ts.slotsInUse
	}
}

// Acquire admits an untagged query (the default tenant). See
// AcquireTag.
func (s *Scheduler) Acquire(ctx context.Context, cost int) (func(), error) {
	return s.AcquireTag(ctx, cost, "")
}

// AcquireTag admits a query of the given slot cost for tenant (empty
// means the default tenant), blocking in the queue if the scheduler is
// saturated.
// On success it returns an idempotent release function that the caller
// must invoke exactly when the query finishes (Rows.Close does). On
// failure it returns one of ErrQueueFull, ErrTenantQuota,
// ErrQueueTimeout, ErrDraining, or ctx.Err().
func (s *Scheduler) AcquireTag(ctx context.Context, cost int, tenant string) (func(), error) {
	tenant = s.opts.resolveTenant(tenant)
	// A context that is already dead never enters the queue.
	if err := ctx.Err(); err != nil {
		s.mu.Lock()
		s.stats.Cancelled++
		s.tenantLocked(tenant).stats.Cancelled++
		s.mu.Unlock()
		return nil, err
	}

	s.mu.Lock()
	ts := s.tenantLocked(tenant)
	if s.draining {
		s.stats.Drained++
		ts.stats.Drained++
		s.mu.Unlock()
		return nil, ErrDraining
	}
	// A declared zero quota is an administrative shutoff: reject without
	// queueing (the tenant could never run, so waiting is a lie).
	if ts.declared && ts.quota.MaxConcurrent <= 0 {
		s.stats.Rejected++
		ts.stats.Rejected++
		s.mu.Unlock()
		return nil, ErrTenantQuota
	}
	cost = s.clampCost(ts, cost)
	// Admit immediately when this arrival fits and nothing queued has a
	// prior claim on the capacity — one O(queue) pass. This one rule
	// covers the empty-queue fast path and overtaking an all-blocked
	// queue (a queue full of tenant-blocked waiters must not lock other
	// tenants out of free capacity).
	if ok, _ := s.fits(ts, cost); ok && !s.queueBlocksLocked(ts) {
		s.admitLocked(ts, cost)
		s.mu.Unlock()
		return s.releaseFunc(ts, cost), nil
	}
	if len(s.queue) >= s.opts.QueueDepth {
		s.stats.Rejected++
		ts.stats.Rejected++
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	w := &waiter{cost: cost, ts: ts, res: make(chan error, 1), enqueued: time.Now()}
	s.queue = append(s.queue, w)
	ts.waiting++
	s.stats.Queued++
	ts.stats.Queued++
	s.mu.Unlock()

	var timeout <-chan time.Time
	if s.opts.QueueTimeout > 0 {
		t := time.NewTimer(s.opts.QueueTimeout)
		defer t.Stop()
		timeout = t.C
	}

	select {
	case err := <-w.res:
		if err != nil {
			// Drain failed the wait; counters were booked at the drain site.
			return nil, err
		}
		s.recordWait(w, true)
		return s.releaseFunc(ts, cost), nil
	case <-ctx.Done():
		return nil, s.giveUp(w, failCancelled, ctx.Err())
	case <-timeout:
		return nil, s.giveUp(w, failTimedOut, ErrQueueTimeout)
	}
}

// bookFailureLocked moves the failure counters for one failed wait;
// callers hold s.mu.
func (s *Scheduler) bookFailureLocked(ts *tenantState, kind failKind) {
	switch kind {
	case failCancelled:
		s.stats.Cancelled++
		ts.stats.Cancelled++
	case failTimedOut:
		s.stats.TimedOut++
		ts.stats.TimedOut++
	}
}

// giveUp handles a waiter abandoning the queue (cancel/timeout). If the
// scheduler signalled the waiter concurrently, the signalled outcome is
// honored for slot accounting — an admission's slots are returned — but
// the caller's failure is still reported (the query will not run).
func (s *Scheduler) giveUp(w *waiter, kind failKind, failure error) error {
	s.mu.Lock()
	if !w.signalled {
		w.signalled = true
		s.removeWaiterLocked(w)
		d := time.Since(w.enqueued)
		s.stats.TotalWait += d
		w.ts.stats.TotalWait += d
		s.bookFailureLocked(w.ts, kind)
		// Removing a waiter can unblock others (it may have been the
		// globally blocked head the scan stopped at).
		s.admitNextLocked()
		s.mu.Unlock()
		return failure
	}
	s.mu.Unlock()
	// Lost the race: an outcome is already buffered on res. If it was an
	// admission, the caller's failure is still what happened from the
	// query's point of view, so the failure counter moves and the slots
	// go back — Admitted then overcounts by this (rare) wasted admission,
	// which the immediate release repays. If it was a drain failure, the
	// Drained counter already booked it and nothing else must (each
	// failed wait counts exactly once across the failure counters).
	if err := <-w.res; err == nil {
		s.mu.Lock()
		s.bookFailureLocked(w.ts, kind)
		s.mu.Unlock()
		s.recordWait(w, false)
		s.releaseFunc(w.ts, w.cost)()
	}
	return failure
}

// removeWaiterLocked deletes w from the queue; callers hold s.mu.
func (s *Scheduler) removeWaiterLocked(w *waiter) {
	for i, q := range s.queue {
		if q == w {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			w.ts.waiting--
			return
		}
	}
}

// recordWait books a queue wait into the histograms (admitted waits
// only) and the running totals. counted distinguishes the normal
// admission path from the gave-up-but-was-admitted race, where the wait
// still totals but the admission was wasted.
func (s *Scheduler) recordWait(w *waiter, counted bool) {
	d := time.Since(w.enqueued)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.TotalWait += d
	w.ts.stats.TotalWait += d
	if !counted {
		return
	}
	b := len(waitBuckets)
	for i, ub := range waitBuckets {
		if d < ub {
			b = i
			break
		}
	}
	s.stats.WaitHistogram[b]++
	w.ts.stats.WaitHistogram[b]++
}

// releaseFunc builds the idempotent ticket for one admitted query.
func (s *Scheduler) releaseFunc(ts *tenantState, cost int) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			s.active--
			s.slotsInUse -= cost
			ts.active--
			ts.slotsInUse -= cost
			s.admitNextLocked()
			if s.draining && s.active == 0 && s.drainDone != nil {
				close(s.drainDone)
				s.drainDone = nil
			}
			s.mu.Unlock()
		})
	}
}

// queueBlocksLocked reports whether some queued waiter has a prior
// claim on the capacity a new arrival of tenant ts would take, i.e.
// whether the admission scan run over queue+arrival would NOT admit the
// arrival:
//
//   - any queued tenant-mate blocks (the arrival would be parked behind
//     its own tenant's head, whatever that head waits on);
//   - for each other tenant only its first queued waiter speaks for it,
//     mirroring the scan: if that waiter is blocked by its own tenant's
//     budget the whole tenant is parked and claims nothing, otherwise it
//     is first in line for the capacity (globally blocked or outright
//     fitting) and the arrival must not jump it.
//
// One O(queue) pass; callers hold s.mu.
func (s *Scheduler) queueBlocksLocked(ts *tenantState) bool {
	var seen map[*tenantState]bool
	for _, w := range s.queue {
		if w.ts == ts {
			return true
		}
		if seen[w.ts] {
			continue
		}
		if _, tenantBlocked := s.fits(w.ts, w.cost); !tenantBlocked {
			return true
		}
		if seen == nil {
			seen = make(map[*tenantState]bool)
		}
		seen[w.ts] = true
	}
	return false
}

// admitNextLocked admits queued waiters in arrival order, skipping
// waiters blocked only by their own tenant's budget and stopping at the
// first waiter blocked by the global budget; callers hold s.mu.
func (s *Scheduler) admitNextLocked() {
	if s.draining || len(s.queue) == 0 {
		return
	}
	// When the global budget is exhausted fits() is false for every
	// waiter, so skip the scan entirely.
	if s.active >= s.opts.MaxConcurrent {
		return
	}
	if s.opts.MaxSlots > 0 && s.slotsInUse >= s.opts.MaxSlots {
		return // every cost is >= 1, so no waiter can fit a full slot budget
	}
	// One pass admits everything a repeated rescan would: an admission
	// only shrinks capacity (fits can flip true→false, never back),
	// removal leaves the others' order untouched, and a tenant-blocked
	// waiter stays tenant-blocked when its tenant's usage only grows —
	// so continuing the scan is sound.
	var parked map[*tenantState]bool
	for i := 0; i < len(s.queue); {
		w := s.queue[i]
		if parked[w.ts] {
			// An earlier waiter of this same tenant is parked on the
			// tenant's budget: admitting w would starve it behind its own
			// tenant's cheaper queries — the per-tenant mirror of the
			// global head-of-line rule below.
			i++
			continue
		}
		ok, tenantBlocked := s.fits(w.ts, w.cost)
		if ok {
			s.removeWaiterLocked(w)
			w.signalled = true
			s.admitLocked(w.ts, w.cost)
			w.res <- nil
			continue
		}
		if !tenantBlocked {
			// Globally blocked: the first waiter that cannot fit blocks
			// everyone behind it (no starvation of expensive queries by
			// cheap ones arriving behind them).
			return
		}
		// Tenant-blocked: park the tenant and keep scanning — a
		// saturated tenant must not hold global capacity hostage, but
		// only other tenants may pass its blocked head.
		if parked == nil {
			parked = make(map[*tenantState]bool)
		}
		parked[w.ts] = true
		i++
	}
}

// Drain stops admissions: every queued waiter fails with ErrDraining,
// new Acquire calls fail immediately, and Drain blocks until in-flight
// queries release (or ctx expires, returning ctx.Err() with queries
// still running). Drain is idempotent; concurrent calls all wait.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for _, w := range s.queue {
			w.signalled = true
			s.stats.Drained++
			w.ts.stats.Drained++
			d := time.Since(w.enqueued)
			s.stats.TotalWait += d
			w.ts.stats.TotalWait += d
			w.ts.waiting--
			w.res <- ErrDraining
		}
		s.queue = nil
	}
	if s.active == 0 {
		s.mu.Unlock()
		return nil
	}
	if s.drainDone == nil {
		s.drainDone = make(chan struct{})
	}
	done := s.drainDone
	s.mu.Unlock()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether the scheduler has begun shutting down.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Stats snapshots the counters, including the per-tenant breakdown.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Active = s.active
	st.Waiting = len(s.queue)
	st.SlotsInUse = s.slotsInUse
	st.Draining = s.draining
	st.MaxConcurrent = s.opts.MaxConcurrent
	st.MaxSlots = s.opts.MaxSlots
	st.QueueDepth = s.opts.QueueDepth
	st.Tenants = make(map[string]TenantStats, len(s.tenants))
	for name, ts := range s.tenants {
		t := ts.stats
		t.Active = ts.active
		t.Waiting = ts.waiting
		t.SlotsInUse = ts.slotsInUse
		t.Declared = ts.declared
		if ts.declared {
			t.MaxConcurrent = ts.quota.MaxConcurrent
			t.MaxSlots = ts.quota.MaxSlots
		}
		st.Tenants[name] = t
	}
	return st
}
