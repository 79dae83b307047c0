package raven

import (
	"context"
	"fmt"
	"testing"

	"raven/internal/sched"
)

// TestResultCacheTenantHitOverflowFold pins the per-tenant hit map's
// bound: past maxTenantHitKeys distinct tenants, further hits fold into
// the scheduler's overflow bucket (sched.OverflowTenantName) so the two
// per-tenant stats surfaces share one catch-all label.
func TestResultCacheTenantHitOverflowFold(t *testing.T) {
	db := MustOpen(WithResultCache(1 << 20))
	if err := db.Exec(`CREATE TABLE fold_t (a INT)`); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(`INSERT INTO fold_t VALUES (1), (2), (3)`); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := `SELECT COUNT(*) AS n FROM fold_t`

	// Populate the cache: the leader's result commits when the rows are
	// drained and closed.
	rows, err := db.QueryContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}

	// Hits from more distinct tenants than the map tracks.
	const extra = 12
	for i := 0; i < maxTenantHitKeys+extra; i++ {
		opts := DefaultQueryOptions()
		opts.Tenant = fmt.Sprintf("fold-tenant-%04d", i)
		r, err := db.QueryContextWithOptions(ctx, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
	}

	info := db.Stats().ResultCache
	if info.Hits < maxTenantHitKeys+extra {
		t.Fatalf("expected every tenant call to hit, got %d hits", info.Hits)
	}
	if got := info.HitsByTenant[sched.OverflowTenantName]; got != extra {
		t.Fatalf("overflow bucket %q has %d hits, want %d", sched.OverflowTenantName, got, extra)
	}
	if len(info.HitsByTenant) != maxTenantHitKeys+1 {
		t.Fatalf("hit map has %d keys, want %d tracked + 1 overflow", len(info.HitsByTenant), maxTenantHitKeys)
	}
}
