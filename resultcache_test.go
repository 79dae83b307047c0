package raven

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// cacheTestDB is a small engine with the result cache on and a tiny
// scratch table the invalidation tests mutate.
func cacheTestDB(t *testing.T, cacheBytes int64, opts ...Option) *DB {
	t.Helper()
	db := MustOpen(append([]Option{WithResultCache(cacheBytes)}, opts...)...)
	if err := db.Exec(`CREATE TABLE t (id INT, x FLOAT);
		INSERT INTO t VALUES (1, 1.5), (2, 2.5), (3, 3.5)`); err != nil {
		t.Fatal(err)
	}
	return db
}

func collectIDs(t *testing.T, rows *Rows, err error) []int64 {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	res, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return append([]int64(nil), res.Batch.Vecs[0].Ints...)
}

func queryIDs(t *testing.T, db *DB, ctx context.Context, q string) []int64 {
	t.Helper()
	rows, err := db.QueryContext(ctx, q)
	return collectIDs(t, rows, err)
}

func stmtIDs(t *testing.T, st *Stmt, params ...Param) []int64 {
	t.Helper()
	rows, err := st.Query(params...)
	return collectIDs(t, rows, err)
}

func TestResultCacheHitServesSameRows(t *testing.T) {
	db := cacheTestDB(t, 1<<20)
	const q = `SELECT id FROM t WHERE x > 2.0`
	first := queryIDs(t, db, context.Background(), q)
	second := queryIDs(t, db, context.Background(), q)
	if fmt.Sprint(first) != fmt.Sprint(second) || len(first) != 2 {
		t.Fatalf("rows drifted: %v vs %v", first, second)
	}
	rc := db.Stats().ResultCache
	if rc == nil {
		t.Fatal("ResultCache stats missing")
	}
	if rc.Hits != 1 || rc.Misses != 1 || rc.Entries != 1 {
		t.Fatalf("stats = %+v", rc)
	}
}

// TestResultCacheInsertInvalidation is the INSERT-gap regression for the
// embedded API: the catalog version does not move on INSERT, so only the
// table data version can keep the cache honest.
func TestResultCacheInsertInvalidation(t *testing.T) {
	db := cacheTestDB(t, 1<<20)
	const q = `SELECT id FROM t WHERE x > 2.0`
	if got := queryIDs(t, db, context.Background(), q); len(got) != 2 {
		t.Fatalf("seed rows = %v", got)
	}
	catalogBefore := db.CatalogVersion()
	if err := db.Exec(`INSERT INTO t VALUES (4, 9.0)`); err != nil {
		t.Fatal(err)
	}
	if db.CatalogVersion() != catalogBefore {
		t.Fatal("INSERT bumped the catalog version — this test no longer covers the gap")
	}
	got := queryIDs(t, db, context.Background(), q)
	if len(got) != 3 || got[2] != 4 {
		t.Fatalf("stale read after INSERT: %v", got)
	}
	rc := db.Stats().ResultCache
	if rc.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1 (stats %+v)", rc.Invalidations, rc)
	}
}

func TestResultCacheDDLAndModelInvalidation(t *testing.T) {
	db, err := genHospitalInto(MustOpen(WithResultCache(1<<22)), 500)
	if err != nil {
		t.Fatal(err)
	}
	want := queryIDs(t, db, context.Background(), predictQuery)
	if got := queryIDs(t, db, context.Background(), predictQuery); len(got) != len(want) {
		t.Fatalf("cached read drifted: %d vs %d rows", len(got), len(want))
	}
	hitsAfterWarm := db.Stats().ResultCache.Hits

	// DDL bumps the catalog: the cached entry must die.
	if err := db.Exec(`CREATE TABLE unrelated (id INT)`); err != nil {
		t.Fatal(err)
	}
	if got := queryIDs(t, db, context.Background(), predictQuery); len(got) != len(want) {
		t.Fatalf("read after DDL drifted: %d rows", len(got))
	}

	// Re-storing the model bumps the catalog too: results computed by the
	// old model go.
	pipe, err := db.LoadModel("duration_of_stay")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.StoreModel("duration_of_stay", pipe); err != nil {
		t.Fatal(err)
	}
	if got := queryIDs(t, db, context.Background(), predictQuery); len(got) != len(want) {
		t.Fatalf("read after model store drifted: %d rows", len(got))
	}

	rc := db.Stats().ResultCache
	if rc.Hits != hitsAfterWarm {
		t.Fatalf("a post-invalidation read hit the cache: %+v", rc)
	}
	if rc.Invalidations < 2 {
		t.Fatalf("invalidations = %d, want >= 2", rc.Invalidations)
	}
}

// TestResultCacheSingleflightCollapse drives 32 concurrent identical
// queries into a cold cache: exactly one executes (one scheduler
// admission, MaxActive <= 1), the rest are served from its flight.
// TestDropTableSweepsCaches pins the proactive sweep: cached results pin
// the tables their plans scan, so a DROP TABLE must unpin them on the
// catalog bump itself — not when LRU pressure or a chance lookup
// eventually touches each entry (on a quiet cache, never).
func TestDropTableSweepsCaches(t *testing.T) {
	db := cacheTestDB(t, 1<<20)
	const q = `SELECT id FROM t WHERE x > 2.0`
	queryIDs(t, db, context.Background(), q) // warm the result cache
	if db.results.Stats().Entries == 0 {
		t.Fatal("warm-up did not populate the cache")
	}
	if err := db.Exec(`DROP TABLE t`); err != nil {
		t.Fatal(err)
	}
	if s := db.results.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("result cache still holds data after DROP TABLE: %+v", s)
	}
}

// TestAbandonedLeaderRowsReleasesWaiters pins the leaked-leader path: a
// flight leader whose Rows is dropped without Next-to-EOF or Close must
// not wedge every later identical query in Do forever — the GC cleanup
// cancels the unsettled flight once the Rows is collected.
func TestAbandonedLeaderRowsReleasesWaiters(t *testing.T) {
	db := cacheTestDB(t, 1<<20)
	const q = `SELECT id FROM t WHERE x > 2.0`
	func() {
		rows, err := db.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		_ = rows // abandoned: never drained, never closed
	}()
	type res struct {
		n   int
		err error
	}
	done := make(chan res, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		rows, err := db.QueryContext(ctx, q)
		if err != nil {
			done <- res{0, err}
			return
		}
		r, err := rows.Collect()
		if err != nil {
			done <- res{0, err}
			return
		}
		done <- res{r.Batch.Len(), nil}
	}()
	deadline := time.After(15 * time.Second)
	for {
		runtime.GC() // drive the Rows cleanup
		select {
		case got := <-done:
			if got.err != nil || got.n != 2 {
				t.Fatalf("waiter result: %d rows, err %v", got.n, got.err)
			}
			return
		case <-deadline:
			t.Fatal("waiter still blocked on the abandoned leader's flight")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestResultCacheSingleflightCollapse(t *testing.T) {
	db := MustOpen(WithResultCache(1<<22), WithParallelism(1),
		WithMaxConcurrentQueries(4), WithSchedulerQueue(64, 0))
	if _, err := genHospitalInto(db, 2000); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	const n = 32
	var wg sync.WaitGroup
	lens := make([]int, n)
	errs := make(chan error, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res, err := db.QueryWithOptions(predictQuery, DefaultQueryOptions())
			if err != nil {
				errs <- err
				return
			}
			lens[i] = res.Batch.Len()
		}(i)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if lens[i] != lens[0] {
			t.Fatalf("row counts diverged: %v", lens)
		}
	}
	rc := db.Stats().ResultCache
	if rc.Misses != 1 || rc.Hits != n-1 {
		t.Fatalf("misses=%d hits=%d, want 1/%d (collapsed=%d)", rc.Misses, rc.Hits, n-1, rc.Collapsed)
	}
	// Setup scripts and the one flight leader each ran alone: the
	// scheduler never saw two concurrent admissions, because 31 of the 32
	// queries never touched it.
	if ma := db.Stats().Scheduler.MaxActive; ma > 1 {
		t.Fatalf("MaxActive = %d, want <= 1", ma)
	}
	assertGoroutinesReturn(t, base)
}

func TestResultCacheEvictionUnderBytePressure(t *testing.T) {
	db := MustOpen(WithResultCache(2048), WithParallelism(1))
	if err := db.Exec(`CREATE TABLE big (id INT, x FLOAT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := db.Exec(fmt.Sprintf(`INSERT INTO big VALUES (%d, %d.5)`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Each distinct query caches ~40 ids (~384 bytes + overhead): a few
	// of them overflow the 2KB budget.
	for round := 0; round < 8; round++ {
		q := fmt.Sprintf(`SELECT id FROM big WHERE x > -%d.0`, round+1)
		if got := queryIDs(t, db, context.Background(), q); len(got) != 40 {
			t.Fatalf("round %d: %d rows", round, len(got))
		}
	}
	rc := db.Stats().ResultCache
	if rc.Evictions == 0 {
		t.Fatalf("no evictions under byte pressure: %+v", rc)
	}
	if rc.Bytes > rc.MaxBytes {
		t.Fatalf("over budget: %+v", rc)
	}
	// Evicted entries re-execute correctly.
	if got := queryIDs(t, db, context.Background(), `SELECT id FROM big WHERE x > -1.0`); len(got) != 40 {
		t.Fatalf("post-eviction read: %d rows", len(got))
	}
}

// TestResultCacheOversizeAbandonedMidStream: a result that outgrows the
// per-entry cap (maxBytes/4) is dropped while streaming — the query
// itself still returns every row, and nothing lands in the cache.
func TestResultCacheOversizeAbandoned(t *testing.T) {
	db := MustOpen(WithResultCache(4096), WithParallelism(1)) // entry cap: 1KB
	if err := db.Exec(`CREATE TABLE big (id INT, x FLOAT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := db.Exec(fmt.Sprintf(`INSERT INTO big VALUES (%d, %d.5)`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	const q = `SELECT id, x FROM big WHERE x > -1.0`
	if got := queryIDs(t, db, context.Background(), q); len(got) != 200 {
		t.Fatalf("rows = %d", len(got))
	}
	rc := db.Stats().ResultCache
	if rc.Abandoned != 1 || rc.Entries != 0 {
		t.Fatalf("stats = %+v, want 1 abandoned, 0 entries", rc)
	}
	// The next identical query misses (nothing was cached) and still
	// returns the full result.
	if got := queryIDs(t, db, context.Background(), q); len(got) != 200 {
		t.Fatalf("re-read rows = %d", len(got))
	}
	if rc := db.Stats().ResultCache; rc.Hits != 0 {
		t.Fatalf("oversize result served from cache: %+v", rc)
	}
}

func TestResultCacheTenantBilledHits(t *testing.T) {
	db := cacheTestDB(t, 1<<20)
	const q = `SELECT id FROM t WHERE x > 2.0`
	acme := ContextWithTenant(context.Background(), "acme", 0)
	queryIDs(t, db, acme, q)                 // miss: leader, billed to no one
	queryIDs(t, db, acme, q)                 // hit: billed to acme
	queryIDs(t, db, context.Background(), q) // hit: default tenant
	opts := DefaultQueryOptions()
	opts.Tenant = "beta"
	rows, err := db.QueryContextWithOptions(context.Background(), q, opts)
	collectIDs(t, rows, err) // hit: options-level tag
	rc := db.Stats().ResultCache
	want := map[string]uint64{"acme": 1, "default": 1, "beta": 1}
	for tenant, n := range want {
		if rc.HitsByTenant[tenant] != n {
			t.Fatalf("HitsByTenant = %v, want %v", rc.HitsByTenant, want)
		}
	}
}

// TestResultCacheHitSkipsAdmission: a hit is served before admission. With
// the one query slot held by an open Rows and a zero-depth queue every
// miss is rejected outright, yet a warmed key still answers and the
// scheduler admits nothing for it.
func TestResultCacheHitSkipsAdmission(t *testing.T) {
	db := cacheTestDB(t, 1<<20, WithMaxConcurrentQueries(1), WithSchedulerQueue(0, 0))
	const q = `SELECT id FROM t WHERE x > 2.0`
	want := queryIDs(t, db, context.Background(), q)

	uncached := ContextWithoutResultCache(context.Background())
	held, err := db.QueryContext(uncached, `SELECT id FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	if _, err := db.QueryContext(uncached, q); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("scheduler not saturated: uncached query got %v, want ErrQueueFull", err)
	}

	before := db.Stats()
	for i := 0; i < 10; i++ {
		if got := queryIDs(t, db, context.Background(), q); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("hit %d under saturation: %v, want %v", i, got, want)
		}
	}
	after := db.Stats()
	if after.Scheduler.Admitted != before.Scheduler.Admitted || after.Scheduler.Rejected != before.Scheduler.Rejected {
		t.Fatalf("cache hits reached the scheduler: admitted %d -> %d, rejected %d -> %d",
			before.Scheduler.Admitted, after.Scheduler.Admitted, before.Scheduler.Rejected, after.Scheduler.Rejected)
	}
	if hits := after.ResultCache.Hits - before.ResultCache.Hits; hits != 10 {
		t.Fatalf("hits = %d, want 10", hits)
	}
}

func TestResultCacheBypasses(t *testing.T) {
	db := cacheTestDB(t, 1<<20)
	const q = `SELECT id FROM t WHERE x > 2.0`

	opts := DefaultQueryOptions()
	opts.NoResultCache = true
	for i := 0; i < 2; i++ {
		rows, err := db.QueryContextWithOptions(context.Background(), q, opts)
		collectIDs(t, rows, err)
	}
	ctx := ContextWithoutResultCache(context.Background())
	queryIDs(t, db, ctx, q)

	rc := db.Stats().ResultCache
	if rc.Hits != 0 || rc.Misses != 0 || rc.Entries != 0 {
		t.Fatalf("bypassed calls touched the cache: %+v", rc)
	}
}

// TestResultCacheSideEffectScriptsNeverCached: a script with an INSERT
// must run its side effect on every call, so it can neither populate
// nor be served from the cache.
func TestResultCacheSideEffectScriptNotCached(t *testing.T) {
	db := cacheTestDB(t, 1<<20)
	const script = `INSERT INTO t VALUES (100, 50.0); SELECT id FROM t WHERE x > 40.0`
	if got := queryIDs(t, db, context.Background(), script); len(got) != 1 {
		t.Fatalf("first run rows = %v", got)
	}
	if got := queryIDs(t, db, context.Background(), script); len(got) != 2 {
		t.Fatalf("second run rows = %v — the INSERT was skipped or the result served stale", got)
	}
	if rc := db.Stats().ResultCache; rc.Hits != 0 || rc.Misses != 0 {
		t.Fatalf("side-effect script consulted the cache: %+v", rc)
	}
}

func TestPreparedResultCacheParamsKeying(t *testing.T) {
	db, err := genHospitalInto(MustOpen(WithResultCache(1<<22)), 500)
	if err != nil {
		t.Fatal(err)
	}
	st, err := db.Prepare(`SELECT id FROM patient_info WHERE age > @minage`)
	if err != nil {
		t.Fatal(err)
	}
	a1 := stmtIDs(t, st, P("minage", "30"))
	a2 := stmtIDs(t, st, P("minage", "30"))
	b := stmtIDs(t, st, P("minage", "80"))
	if fmt.Sprint(a1) != fmt.Sprint(a2) {
		t.Fatalf("same params drifted: %d vs %d rows", len(a1), len(a2))
	}
	if len(b) >= len(a1) {
		t.Fatalf("param keying broken: minage=80 returned %d rows vs %d", len(b), len(a1))
	}
	rc := db.Stats().ResultCache
	if rc.Hits != 1 || rc.Misses != 2 {
		t.Fatalf("stats = %+v, want hits=1 misses=2", rc)
	}

	// INSERT invalidation through the prepared surface.
	if err := db.Exec(`INSERT INTO patient_info VALUES (100000, 99.0, 0, 0, 80.0)`); err != nil {
		t.Fatal(err)
	}
	after := stmtIDs(t, st, P("minage", "30"))
	if len(after) != len(a1)+1 {
		t.Fatalf("stale prepared read after INSERT: %d rows, want %d", len(after), len(a1)+1)
	}
}
