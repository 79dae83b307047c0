package raven

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"raven/internal/exec"
	"raven/internal/rescache"
	"raven/internal/sched"
	"raven/internal/sql"
	"raven/internal/storage"
	"raven/internal/types"
)

// WithResultCache enables the semantic result cache: maxBytes of
// materialized query results, keyed by (SQL, options fingerprint,
// referenced session variables, parameter values) and validated at
// lookup against the catalog version and the data versions of every
// table the plan reads — so DDL, model stores and INSERTs all
// invalidate exactly the entries they affect. Hits are served before
// admission control (zero scheduler slots) and concurrent identical
// misses collapse to one execution. Values <= 0 leave the cache off.
// A single result larger than maxBytes/4 is never cached.
func WithResultCache(maxBytes int64) Option {
	return func(db *DB) {
		if maxBytes > 0 {
			db.results = rescache.New[*resultEntry](maxBytes, 0)
		}
	}
}

// resultEntry is one cached materialized result with the dependency
// snapshot its validity is checked against.
type resultEntry struct {
	schema  *types.Schema
	batch   *types.Batch
	applied []string
	// version is the catalog version the plan compiled against; tables
	// and tableVers snapshot the data versions of every table the plan
	// reads, captured before execution opened (so an append racing the
	// execution always invalidates, never goes unseen).
	version   uint64
	tables    []*storage.Table
	tableVers []uint64
}

// resultEntryValid is the lookup predicate: the catalog and every
// referenced table must be exactly where they were when the entry was
// captured.
func (db *DB) resultEntryValid(e *resultEntry) bool {
	if e.version != db.catalog.Version() {
		return false
	}
	for i, t := range e.tables {
		if t.DataVersion() != e.tableVers[i] {
			return false
		}
	}
	return true
}

// noResultCacheKey marks a context whose calls bypass the result cache
// (the wire no_cache flag on prepared-statement executions, which have
// no per-call options).
type noResultCacheKey struct{}

// ContextWithoutResultCache returns a context whose queries skip the
// result cache entirely: no lookups, no population. Wire front ends
// map a per-request no_cache flag to it.
func ContextWithoutResultCache(ctx context.Context) context.Context {
	return context.WithValue(ctx, noResultCacheKey{}, true)
}

func resultCacheBypassed(ctx context.Context) bool {
	b, _ := ctx.Value(noResultCacheKey{}).(bool)
	return b
}

// resultCacheEligible gates the cache to calls it can serve correctly:
// the cache exists, nothing opted out, the plan is not specialized to a
// data range (UseStatistics prunes the model by the data's min/max at
// compile time, and INSERTs don't bump the catalog version), and the
// script is read-only — a script with side effects must execute every
// one of them on every call, so it can neither be served from cache nor
// funneled through singleflight.
func (db *DB) resultCacheEligible(ctx context.Context, opts QueryOptions, q string) bool {
	if db.results == nil || opts.NoResultCache || opts.UseStatistics {
		return false
	}
	if resultCacheBypassed(ctx) {
		return false
	}
	return sql.ClassifyScript(q) == sql.ScriptReadOnly
}

// resultKey extends planKey (SQL, options fingerprint, referenced vars)
// with the execute-time parameter values — the full semantic identity
// of one result. The catalog and data versions are
// deliberately absent: they are validated at lookup, so an invalidated
// entry is dropped (and counted) instead of stranded under a dead key.
func (db *DB) resultKey(q string, opts QueryOptions, allowParams bool, vars map[string]string, params []Param) string {
	key := db.planKey(q, opts, allowParams, vars)
	if len(params) == 0 {
		return key
	}
	sorted := append([]Param(nil), params...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	h := sha256.New()
	for _, p := range sorted {
		fmt.Fprintf(h, "%d:%s=%d:%s;", len(p.Name), p.Name, len(p.Value), p.Value)
	}
	return key + "|p=" + hex.EncodeToString(h.Sum(nil)[:12])
}

// planKey fingerprints every compile-relevant input that is not the
// catalog version (which is checked at lookup): the identity of a
// compiled plan, and so the stem of the result-cache key and of a
// specialized model's session key. Execution knobs (parallelism, morsel
// size, thresholds) are deliberately absent — they are applied when the
// template lowers to operators, so one result serves every DOP. vars is
// the session-variable snapshot the caller also compiles with, so key
// and plan cannot disagree under a concurrent Exec DECLARE.
func (db *DB) planKey(q string, opts QueryOptions, allowParams bool, vars map[string]string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "x=%t s=%t di=%t dn=%t dp=%t dj=%t m=%d dc=%t ap=%t",
		opts.CrossOptimize, opts.UseStatistics,
		opts.DisableInlining, opts.DisableNNTranslation, opts.DisablePruning,
		opts.DisableProjectionPushdown, opts.Mode,
		opts.DisableSessionCache, allowParams)
	// Session variables bind as literals, so the ones this statement
	// references are compile inputs too. Only referenced vars enter the
	// key: otherwise every unrelated DECLARE would strand the whole
	// cache's entries under dead keys. The reference scan is textual
	// (cheap, runs before parsing); a false positive — an @name inside a
	// string literal — only adds harmless key entropy.
	if len(vars) > 0 {
		names := make([]string, 0, len(vars))
		for k := range vars {
			if referencesVar(q, k) {
				names = append(names, k)
			}
		}
		if len(names) > 0 {
			sort.Strings(names)
			// Length-prefix each field so values containing the join
			// characters cannot collide two different environments onto
			// one fingerprint.
			h := sha256.New()
			for _, k := range names {
				fmt.Fprintf(h, "%d:%s=%d:%s;", len(k), k, len(vars[k]), vars[k])
			}
			sb.WriteString("|v=" + hex.EncodeToString(h.Sum(nil)[:8]))
		}
	}
	sb.WriteString("|")
	sb.WriteString(q)
	return sb.String()
}

// referencesVar reports whether q contains an @name token for the given
// variable, requiring a non-identifier character after the name so @min
// does not match @minage.
func referencesVar(q, name string) bool {
	for i := 0; i+len(name) < len(q); {
		j := strings.Index(q[i:], "@"+name)
		if j < 0 {
			return false
		}
		end := i + j + 1 + len(name)
		if end >= len(q) || !isIdentChar(q[end]) {
			return true
		}
		i = end
	}
	return false
}

func isIdentChar(c byte) bool {
	return c == '_' || (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// sweepStaleResults eagerly drops result-cache entries computed against
// an older catalog version. Lookups already validate, so staleness is
// never served either way — this pass exists for memory: entries pin
// the tables their plans scan, so after a DROP TABLE the dropped table's
// column data would otherwise stay reachable until LRU pressure or a
// chance lookup happened to touch each entry. Called after any statement
// or model store that bumps the catalog version.
func (db *DB) sweepStaleResults() {
	if db.results == nil {
		return
	}
	current := db.catalog.Version()
	db.results.Sweep(func(e *resultEntry) bool { return e.version == current })
}

// resultLookup consults the cache under singleflight. Outcomes:
// (rows, nil, nil) — a hit, served without touching admission;
// (nil, flight, nil) — a miss with leadership, the caller must execute
// and settle the flight; (nil, nil, err) — ctx expired while waiting on
// another caller's flight.
func (db *DB) resultLookup(ctx context.Context, key string, opts QueryOptions, start time.Time) (*Rows, *rescache.Flight[*resultEntry], error) {
	e, hit, fl, err := db.results.Do(ctx, key, db.resultEntryValid)
	if !hit {
		return nil, fl, err
	}
	db.noteResultHit(ctx, opts)
	rows, err := newRows(ctx, &cachedBatchOp{schema: e.schema, batch: e.batch}, e.applied, time.Since(start), nil)
	return rows, nil, err
}

// noteResultHit attributes a cache hit to the call's tenant, mirroring
// the scheduler's attribution rules so billing and admission agree on
// identity even though hits never reach the scheduler.
func (db *DB) noteResultHit(ctx context.Context, opts QueryOptions) {
	tenant := db.tenantFor(ctx, opts)
	if tenant == "" {
		if tenant = db.schedOpts.DefaultTenant; tenant == "" {
			tenant = sched.DefaultTenantName
		}
	}
	db.resHitMu.Lock()
	defer db.resHitMu.Unlock()
	if db.resHitsByTenant == nil {
		db.resHitsByTenant = make(map[string]uint64)
	}
	if _, ok := db.resHitsByTenant[tenant]; !ok && len(db.resHitsByTenant) >= maxTenantHitKeys {
		tenant = sched.OverflowTenantName
	}
	db.resHitsByTenant[tenant]++
}

// maxTenantHitKeys bounds the per-tenant hit map; beyond it, new
// tenants fold into the scheduler's overflow bucket so an unbounded
// tenant-name stream cannot grow the stats snapshot without limit —
// and so the cache's catch-all label always matches the scheduler's
// (sched.OverflowTenantName) in merged per-tenant dashboards.
const maxTenantHitKeys = 128

// ResultCacheInfo is the result cache's stats snapshot (see
// Stats.ResultCache).
type ResultCacheInfo struct {
	rescache.Stats
	HitsByTenant map[string]uint64 `json:"hits_by_tenant,omitempty"`
}

func (db *DB) resultCacheInfo() *ResultCacheInfo {
	if db.results == nil {
		return nil
	}
	info := &ResultCacheInfo{Stats: db.results.Stats()}
	db.resHitMu.Lock()
	if len(db.resHitsByTenant) > 0 {
		info.HitsByTenant = make(map[string]uint64, len(db.resHitsByTenant))
		for k, v := range db.resHitsByTenant {
			info.HitsByTenant[k] = v
		}
	}
	db.resHitMu.Unlock()
	return info
}

// cachedBatchOp serves one cached batch as an operator so hits flow
// through the ordinary Rows machinery. The batch is shared zero-copy
// across concurrent hits; consumers must not mutate it — the same
// contract as zero-copy table scans.
type cachedBatchOp struct {
	schema *types.Schema
	batch  *types.Batch
	done   bool
}

func (o *cachedBatchOp) Open() error           { return nil }
func (o *cachedBatchOp) Close() error          { return nil }
func (o *cachedBatchOp) Schema() *types.Schema { return o.schema }
func (o *cachedBatchOp) Next() (*types.Batch, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	return o.batch, nil
}

// leaderRows builds the flight leader's Rows over the teed operator
// tree. Beyond newRows it arms a GC cleanup that cancels the flight if
// the Rows is abandoned without being drained or closed: an unsettled
// flight blocks every concurrent identical query in Do, so a leaked
// leader must release its waiters (at the latest when the collector
// notices the Rows is unreachable) rather than wedge the key forever.
// Settling is idempotent, so the cleanup is a no-op after the ordinary
// Commit/Abandon/Cancel paths in teeOp.
func leaderRows(ctx context.Context, db *DB, op exec.Operator, fl *rescache.Flight[*resultEntry], tpl *cachedPlan, start time.Time, release func()) (*Rows, error) {
	rows, err := newRows(ctx, db.teeResult(op, fl, tpl), tpl.applied, time.Since(start), release)
	if err == nil && fl != nil {
		// The cleanup closure must not reference rows itself (that would
		// keep it reachable forever); fl is passed as the argument.
		runtime.AddCleanup(rows, func(fl *rescache.Flight[*resultEntry]) { fl.Cancel() }, fl)
	}
	return rows, err
}

// teeResult wraps the operator tree of a flight leader so the stream
// populates the cache as it is consumed. Table data versions are
// captured here — before Open, so an append that races execution
// invalidates the entry rather than slipping under it.
func (db *DB) teeResult(op exec.Operator, fl *rescache.Flight[*resultEntry], tpl *cachedPlan) exec.Operator {
	if fl == nil {
		return op
	}
	vers := make([]uint64, len(tpl.tables))
	for i, t := range tpl.tables {
		vers[i] = t.DataVersion()
	}
	return &teeOp{
		inner: op,
		fl:    fl,
		entry: &resultEntry{
			schema:    op.Schema(),
			applied:   tpl.applied,
			version:   tpl.version,
			tables:    tpl.tables,
			tableVers: vers,
		},
		acc: types.NewBatch(op.Schema()),
		cap: db.results.EntryCap(),
	}
}

// teeOp copies every batch it relays into an accumulator (deep copies —
// upstream operators may pool and recycle their batches) and settles
// the flight at end of stream: Commit on a complete, under-cap result;
// Abandon the moment the accumulation crosses the per-entry cap;
// Cancel on error or early close, releasing waiters to execute for
// themselves. A flight settles once and ignores every later call, so
// Close need not know whether Next already settled it.
type teeOp struct {
	inner exec.Operator
	fl    *rescache.Flight[*resultEntry]
	entry *resultEntry
	acc   *types.Batch
	size  int64
	cap   int64

	abandoned bool
	eof       bool
}

func (t *teeOp) Schema() *types.Schema { return t.inner.Schema() }
func (t *teeOp) Open() error           { return t.inner.Open() }

func (t *teeOp) Next() (*types.Batch, error) {
	b, err := t.inner.Next()
	if err != nil {
		return b, err
	}
	if b == nil {
		t.eof = true
		return nil, nil
	}
	if !t.abandoned {
		if err := t.acc.Append(b); err != nil {
			t.abandoned = true
			t.acc = nil
			t.fl.Cancel()
		} else {
			t.size += batchBytes(b)
			if t.size > t.cap {
				t.abandoned = true
				t.acc = nil
				t.fl.Abandon()
			}
		}
	}
	return b, nil
}

func (t *teeOp) Close() error {
	err := t.inner.Close()
	if t.eof && !t.abandoned {
		t.entry.batch = t.acc
		t.fl.Commit(t.entry, t.size)
	} else {
		t.fl.Cancel()
	}
	return err
}

// batchBytes estimates a batch's resident size for the cache budget.
func batchBytes(b *types.Batch) int64 {
	var n int64 = 64
	for _, v := range b.Vecs {
		n += int64(len(v.Floats))*8 + int64(len(v.Ints))*8 + int64(len(v.Bools)) + int64(len(v.NullBits))*8
		for _, s := range v.Strings {
			n += int64(len(s)) + 16
		}
	}
	return n
}
