package server

import (
	"context"
	"testing"

	"raven"
)

// TestWireResultCache drives the engine result cache end-to-end over the
// wire: repeated reads hit, no_cache bypasses on both the ad-hoc and
// prepared paths, an INSERT through /query invalidates exactly the
// entries that read the table, and /stats surfaces the counters.
func TestWireResultCache(t *testing.T) {
	db := raven.MustOpen(raven.WithResultCache(1 << 20))
	c, _, _ := startServer(t, db, Options{})

	if err := c.ExecContext(context.Background(), `CREATE TABLE kv (k INT PRIMARY KEY, v FLOAT); INSERT INTO kv VALUES (1, 10.5), (2, 20.5)`); err != nil {
		t.Fatal(err)
	}

	const sel = `SELECT k, v FROM kv`
	r1, err := c.QueryContext(context.Background(), QueryRequest{SQL: sel})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.QueryContext(context.Background(), QueryRequest{SQL: sel})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Fingerprint() != r2.Fingerprint() || len(r2.Rows) != 2 {
		t.Fatalf("cached read diverged: %q vs %q", r1.Fingerprint(), r2.Fingerprint())
	}
	st, err := c.StatsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rc := st.Engine.ResultCache
	if rc == nil {
		t.Fatal("stats carry no result_cache section")
	}
	if rc.Hits != 1 || rc.Misses != 1 {
		t.Fatalf("hits=%d misses=%d after identical reads, want 1/1", rc.Hits, rc.Misses)
	}

	// no_cache: same SQL, but neither served from nor admitted to the cache.
	if _, err := c.QueryContext(context.Background(), QueryRequest{SQL: sel, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	st, err = c.StatsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rc2 := st.Engine.ResultCache; rc2.Hits != 1 || rc2.Misses != 1 {
		t.Fatalf("no_cache touched the cache: hits=%d misses=%d", rc2.Hits, rc2.Misses)
	}

	// INSERT over the wire must invalidate the cached read — the catalog
	// version does not move on INSERT, so this exercises the data-version
	// path end-to-end.
	if err := c.ExecContext(context.Background(), `INSERT INTO kv VALUES (3, 30.5)`); err != nil {
		t.Fatal(err)
	}
	r3, err := c.QueryContext(context.Background(), QueryRequest{SQL: sel})
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.Rows) != 3 {
		t.Fatalf("stale read after wire INSERT: %d rows, want 3", len(r3.Rows))
	}
}

// TestWireResultCachePrepared covers the prepared path: hits keyed by
// parameter values, and the per-request no_cache flag travelling by
// context (a Stmt's options are fixed at prepare time).
func TestWireResultCachePrepared(t *testing.T) {
	db := raven.MustOpen(raven.WithResultCache(1 << 20))
	c, _, _ := startServer(t, db, Options{})

	if err := c.ExecContext(context.Background(), `CREATE TABLE kv (k INT PRIMARY KEY, v FLOAT); INSERT INTO kv VALUES (1, 10.5), (2, 20.5)`); err != nil {
		t.Fatal(err)
	}
	pr, err := c.PrepareContext(context.Background(), QueryRequest{SQL: `SELECT k, v FROM kv WHERE k >= @lo`}, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := func(lo string, noCache bool) int {
		t.Helper()
		res, err := c.StmtQueryContext(context.Background(), pr.ID, QueryRequest{Params: map[string]string{"lo": lo}, NoCache: noCache})
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows)
	}
	if n := q("1", false); n != 2 {
		t.Fatalf("lo=1: %d rows", n)
	}
	q("1", false) // hit
	if n := q("2", false); n != 1 {
		t.Fatalf("lo=2: %d rows (param must key the cache)", n)
	}
	st, err := c.StatsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rc := st.Engine.ResultCache
	if rc.Hits != 1 || rc.Misses != 2 {
		t.Fatalf("prepared path hits=%d misses=%d, want 1/2", rc.Hits, rc.Misses)
	}
	q("1", true) // no_cache via context: no lookup, no population
	st, err = c.StatsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rc2 := st.Engine.ResultCache; rc2.Hits != 1 || rc2.Misses != 2 {
		t.Fatalf("prepared no_cache touched the cache: hits=%d misses=%d", rc2.Hits, rc2.Misses)
	}
}
