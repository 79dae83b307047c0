package raven

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"raven/internal/data"
	"raven/internal/ml"
)

// loadHospitalWorkload loads the hospital tables + the Fig 1 tree model
// into an engine the test Opened itself (admission tests need their own
// scheduler options, which hospitalDB's Open call would not carry).
func loadHospitalWorkload(db *DB, rows int) error {
	h, err := data.GenHospital(db.Catalog(), rows, 1000, 42)
	if err != nil {
		return err
	}
	return db.StoreModel("duration_of_stay", &ml.Pipeline{Final: fig1Tree(), InputColumns: h.FeatureCols})
}

// genHospitalInto loads the hospital workload + tree model into db.
func genHospitalInto(db *DB, rows int) (*DB, error) {
	return db, loadHospitalWorkload(db, rows)
}

// TestAdmissionBoundsEngineConcurrency drives 16 concurrent Query calls
// through a 2-slot scheduler: all succeed, the active gauge never
// exceeds the limit, and the scheduler is quiescent after.
func TestAdmissionBoundsEngineConcurrency(t *testing.T) {
	db := MustOpen(WithMaxConcurrentQueries(2), WithSchedulerQueue(32, 0))
	if _, err := genHospitalInto(db, 2000); err != nil {
		t.Fatal(err)
	}
	want, err := db.Query(predictQuery)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := db.Query(predictQuery)
			if err != nil {
				errs <- err
				return
			}
			if res.Batch.Len() != want.Batch.Len() {
				errs <- fmt.Errorf("row count drifted under concurrency: %d vs %d", res.Batch.Len(), want.Batch.Len())
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := db.Scheduler().Stats()
	if st.MaxActive > 2 {
		t.Fatalf("MaxActive = %d, admission limit 2", st.MaxActive)
	}
	if st.Active != 0 || st.SlotsInUse != 0 || st.Waiting != 0 {
		t.Fatalf("not quiescent: %+v", st)
	}
	if st.Admitted < 17 {
		t.Fatalf("admitted = %d", st.Admitted)
	}
}

// TestAdmissionSlotHeldUntilRowsClose pins the slot lifecycle: an open
// Rows holds its admission slot (second query rejects with queue depth
// 0), and Close returns it.
func TestAdmissionSlotHeldUntilRowsClose(t *testing.T) {
	db := MustOpen(WithMaxConcurrentQueries(1))
	if _, err := genHospitalInto(db, 500); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryContext(context.Background(), predictQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryContext(context.Background(), predictQuery); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull while Rows open, got %v", err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	rows2, err := db.QueryContext(context.Background(), predictQuery)
	if err != nil {
		t.Fatalf("slot not released by Close: %v", err)
	}
	rows2.Close()
	st := db.Scheduler().Stats()
	if st.Rejected != 1 || st.Active != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestStmtAdmission: prepared executions pass through admission too.
func TestStmtAdmission(t *testing.T) {
	db := MustOpen(WithMaxConcurrentQueries(1), WithSchedulerQueue(2, 30*time.Millisecond))
	if _, err := genHospitalInto(db, 500); err != nil {
		t.Fatal(err)
	}
	st, err := db.Prepare(predictQuery)
	if err != nil {
		t.Fatal(err)
	}
	release, err := db.Scheduler().Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// The statement waits in the queue, then times out.
	start := time.Now()
	if _, err := st.Query(); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("want ErrQueueTimeout, got %v", err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("did not wait for the queue timeout")
	}
	release()
	rows, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Collect(); err != nil {
		t.Fatal(err)
	}
	if got := db.Scheduler().Stats().TimedOut; got != 1 {
		t.Fatalf("TimedOut = %d", got)
	}
}

// TestMaxWorkerSlotsCapsEffectiveDOP: the slot budget is enforced at
// lowering, not just charged — a wire client requesting DOP 64 against
// a 2-slot engine runs at DOP 2.
func TestMaxWorkerSlotsCapsEffectiveDOP(t *testing.T) {
	db := MustOpen(WithMaxConcurrentQueries(4), WithMaxWorkerSlots(2))
	ctx := context.Background()
	if got := db.effectiveParallelism(ctx, QueryOptions{Parallelism: 64}); got != 2 {
		t.Fatalf("effective DOP = %d, want capped to 2", got)
	}
	if got := db.effectiveParallelism(ctx, QueryOptions{Parallelism: 1}); got != 1 {
		t.Fatalf("effective DOP = %d, want 1", got)
	}
	// Without a slot budget (or without a scheduler) the request passes
	// through untouched.
	plain := MustOpen(WithMaxConcurrentQueries(4))
	if got := plain.effectiveParallelism(ctx, QueryOptions{Parallelism: 64}); got != 64 {
		t.Fatalf("uncapped DOP = %d, want 64", got)
	}
	// A tenant slot quota caps tighter than the global budget, whether
	// the tag arrives via options or context.
	tdb := MustOpen(WithMaxConcurrentQueries(4), WithMaxWorkerSlots(8),
		WithTenantQuota("batch", 4, 1))
	if got := tdb.effectiveParallelism(ctx, QueryOptions{Parallelism: 64, Tenant: "batch"}); got != 1 {
		t.Fatalf("tenant-capped DOP = %d, want 1", got)
	}
	if got := tdb.effectiveParallelism(ContextWithTenant(ctx, "batch", 0), QueryOptions{Parallelism: 64}); got != 1 {
		t.Fatalf("ctx-tenant-capped DOP = %d, want 1", got)
	}
	if got := tdb.effectiveParallelism(ctx, QueryOptions{Parallelism: 64}); got != 8 {
		t.Fatalf("untagged DOP = %d, want global cap 8", got)
	}
	// End to end: the capped query still returns correct results and the
	// accounting matches the enforcement.
	if _, err := genHospitalInto(db, 500); err != nil {
		t.Fatal(err)
	}
	opts := DefaultQueryOptions()
	opts.Parallelism = 64
	opts.ParallelThresholdRows = 1
	res, err := db.QueryWithOptions(predictQuery, opts)
	if err != nil {
		t.Fatal(err)
	}
	serial := DefaultQueryOptions()
	serial.Parallelism = 1
	want, err := db.QueryWithOptions(predictQuery, serial)
	if err != nil {
		t.Fatal(err)
	}
	batchesIdentical(t, "capped DOP", want.Batch, res.Batch)
	if st := db.Scheduler().Stats(); st.MaxSlotsInUse > 2 {
		t.Fatalf("slot accounting exceeded budget: %+v", st)
	}
}

// TestQueryContextParams covers the ad-hoc parameterized surface: typed
// @var binding without Prepare, gated by admission before compilation.
func TestQueryContextParams(t *testing.T) {
	db := MustOpen(WithMaxConcurrentQueries(1))
	if _, err := genHospitalInto(db, 500); err != nil {
		t.Fatal(err)
	}
	q := `SELECT d.id, p.score FROM PREDICT(MODEL='duration_of_stay',
		DATA=(SELECT * FROM patient_info AS pi
		      JOIN blood_tests AS bt ON pi.id = bt.id
		      JOIN prenatal_tests AS pt ON bt.id = pt.id) AS d)
		WITH (score FLOAT) AS p WHERE d.age > @minage`
	rows, err := db.QueryContextParams(context.Background(), q, DefaultQueryOptions(), P("minage", "50"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	// Baseline with the literal inlined (DECLARE would bind as VARCHAR —
	// the typed binding is exactly what the params surface adds).
	want, err := db.Query(strings.Replace(q, "@minage", "50", 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.Len() == 0 || res.Batch.Len() != want.Batch.Len() {
		t.Fatalf("params result %d rows, DECLARE result %d", res.Batch.Len(), want.Batch.Len())
	}
	// Missing param fails cleanly — and must not leak its admission slot.
	if _, err := db.QueryContextParams(context.Background(), q, DefaultQueryOptions()); err == nil {
		t.Fatal("missing param accepted")
	}
	// Admission gates the whole call: with the slot held, even the
	// compile does not start.
	release, err := db.Scheduler().Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	compiles := db.compiles.Load()
	if _, err := db.QueryContextParams(context.Background(), q, DefaultQueryOptions(), P("minage", "50")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if got := db.compiles.Load(); got != compiles {
		t.Fatal("rejected query still compiled")
	}
	release()
	rows2, err := db.QueryContextParams(context.Background(), q, DefaultQueryOptions(), P("minage", "50"))
	if err != nil {
		t.Fatalf("slot leaked by failed calls: %v", err)
	}
	rows2.Close()
}

// TestDBStatsConsolidated checks the /stats source of truth: session
// cache, scheduler and compiles all present and plausible.
func TestDBStatsConsolidated(t *testing.T) {
	db := MustOpen(WithMaxConcurrentQueries(4))
	if _, err := genHospitalInto(db, 500); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(predictQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(predictQuery); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	// The tree model inlines rather than compiling a tensor session, so
	// only the shape of the session-cache section is checked here (its
	// counting has its own tests in internal/ort).
	if st.SessionCache.Hits < 0 || st.SessionCache.Misses < 0 {
		t.Fatalf("session cache: %+v", st.SessionCache)
	}
	if st.Scheduler == nil || st.Scheduler.Admitted != 2 || st.Scheduler.MaxConcurrent != 4 {
		t.Fatalf("scheduler: %+v", st.Scheduler)
	}
	if st.Compiles == 0 || st.CatalogVersion == 0 {
		t.Fatalf("stats: %+v", st)
	}
	// Without admission control the scheduler section is absent.
	plain := MustOpen()
	if plain.Stats().Scheduler != nil {
		t.Fatal("schedulerless engine reported scheduler stats")
	}
}

// TestTenantQuotaEndToEnd drives tagged queries through the engine: a
// zero-quota tenant is rejected with ErrTenantQuota, a bounded tenant
// queues behind its own cap while another tenant runs, and per-tenant
// stats surface through DB.Stats().
func TestTenantQuotaEndToEnd(t *testing.T) {
	db := MustOpen(
		WithMaxConcurrentQueries(4),
		WithSchedulerQueue(8, 0),
		WithTenantQuota("batch", 1, 0),
		WithTenantQuota("banned", 0, 0),
	)
	if _, err := genHospitalInto(db, 500); err != nil {
		t.Fatal(err)
	}
	// Zero quota: rejected before compiling or queueing.
	opts := DefaultQueryOptions()
	opts.Tenant = "banned"
	if _, err := db.QueryWithOptions(predictQuery, opts); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("want ErrTenantQuota, got %v", err)
	}
	// ExecContext under a context tag bills the tenant too.
	if err := db.ExecContext(ContextWithTenant(context.Background(), "banned", 0),
		`CREATE TABLE nope (k INT PRIMARY KEY)`); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("exec: want ErrTenantQuota, got %v", err)
	}
	// A batch query holds the tenant's single slot; a second batch query
	// queues while an interactive query runs immediately.
	batch := DefaultQueryOptions()
	batch.Tenant = "batch"
	rows, err := db.QueryContextWithOptions(context.Background(), predictQuery, batch)
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		r, err := db.QueryContextWithOptions(context.Background(), predictQuery, batch)
		if err == nil {
			err = r.Close()
		}
		queued <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for db.Scheduler().Stats().Tenants["batch"].Waiting == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch query never queued")
		}
		time.Sleep(time.Millisecond)
	}
	inter := DefaultQueryOptions()
	inter.Tenant = "interactive"
	inter.Priority = 5
	res, err := db.QueryWithOptions(predictQuery, inter)
	if err != nil {
		t.Fatalf("interactive query blocked by a saturated tenant: %v", err)
	}
	if res.Batch.Len() == 0 {
		t.Fatal("interactive query returned no rows")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	bt := st.Scheduler.Tenants["batch"]
	if bt.Admitted != 2 || bt.Queued != 1 || bt.MaxActive != 1 || !bt.Declared {
		t.Fatalf("batch tenant stats: %+v", bt)
	}
	if it := st.Scheduler.Tenants["interactive"]; it.Admitted != 1 || it.Declared {
		t.Fatalf("interactive tenant stats: %+v", it)
	}
	if bn := st.Scheduler.Tenants["banned"]; bn.Rejected != 2 {
		t.Fatalf("banned tenant stats: %+v", bn)
	}
}

// TestAdmissionQueuedCancellationNoLeak: a queued (not yet admitted)
// query whose context dies must unqueue promptly and leak nothing.
func TestAdmissionQueuedCancellationNoLeak(t *testing.T) {
	db := MustOpen(WithMaxConcurrentQueries(1), WithSchedulerQueue(8, 0))
	if _, err := genHospitalInto(db, 500); err != nil {
		t.Fatal(err)
	}
	release, err := db.Scheduler().Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := db.QueryContext(ctx, predictQuery)
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for db.Scheduler().Stats().Waiting == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	release()
	assertGoroutinesReturn(t, base)
	if st := db.Scheduler().Stats(); st.Cancelled != 1 || st.Admitted != 1 {
		t.Fatalf("stats: %+v", st)
	}
}
