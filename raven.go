// Package raven is a Go reproduction of "Extending Relational Query
// Processing with ML Inference" (Karanasos et al., CIDR 2020): an
// in-memory relational engine with models stored in the database, a
// unified intermediate representation mixing relational and ML operators,
// a cross optimizer (predicate-based model pruning, model-projection
// pushdown, model inlining, NN translation) that decides how each model
// runs (pipeline kernel, inlined CASE or tensor session), and an
// in-process tensor runtime with session caching.
//
// # One execution model: the morsel pipeline
//
// Query execution has one shape. A table scan under per-row operators
// (filter, project, PREDICT, join probe) compiles into a single morsel
// pipeline: claim a fixed-size row morsel from a shared atomic cursor,
// run the whole operator chain — inference included — on it, emit in scan
// order. Degree of parallelism is a property of that pipeline, not a
// second operator set: with one worker it runs inline on the caller's
// goroutine (no goroutine, channel or reorder buffer, one morsel per
// batch pulled, so LIMIT stops the scan early); with more, the same
// source and stages run on worker goroutines and results merge back in
// scan order. A plan therefore returns exactly the rows, in exactly the
// order, at any degree of parallelism. Pipeline breakers (join build,
// GROUP BY, ORDER BY) consume one pipeline with the same workers and
// start the next. Inference sessions come from a byte-bounded cache that
// compiles each model at most once per key, so workers and concurrent
// queries never serialize behind one compile.
//
// The engine-wide degree of parallelism defaults to GOMAXPROCS and is set
// at Open time with WithParallelism; QueryOptions.Parallelism overrides
// it per query, with 1 running every pipeline and breaker inline. Scans of
// small tables (below QueryOptions.ParallelThresholdRows, default 50k rows)
// run as one-worker pipelines regardless, since fan-out costs more than it
// saves.
//
// # Serving API
//
// The serving surface follows the production database conventions:
// prepare-once/execute-many, streaming results, and cancellable queries.
//
//   - Prepare compiles a statement once (parse → bind → unified IR →
//     cross optimization) into a Stmt whose Query calls reuse the plan and
//     bind @var parameters per execution. The Stmt is the one owner of a
//     compiled template: ad-hoc Query calls compile on every call. DDL
//     and model stores bump the catalog version, and a Stmt whose
//     template is older re-prepares on its next execution.
//   - QueryContext (and Stmt.QueryContext) returns a streaming Rows
//     (Next/Scan/Err/Close) and honors context cancellation and deadlines
//     throughout execution: morsel-exchange workers, pipeline breakers and
//     inference predictors all observe ctx and shut down cleanly. Every
//     entry point is a thin caller of one funnel (DB.run): result-cache
//     lookup, admission, plan, parameter binding, lowering, streaming.
//   - Query and QueryWithOptions remain as thin materializing wrappers
//     returning a Result (Rows.Collect under the hood), with latency split
//     into CompileTime and ExecTime.
//
// Typical use:
//
//	db := raven.Open()
//	db.Exec(`CREATE TABLE patients (id INT PRIMARY KEY, age FLOAT, bp FLOAT)`)
//	db.StoreModel("los", pipeline)                  // a fitted *ml.Pipeline
//	st, err := db.Prepare(`SELECT p.score FROM
//	    PREDICT(MODEL='los', DATA=patients AS d) WITH (score FLOAT) AS p
//	    WHERE d.bp > @minbp`)
//	rows, err := st.QueryContext(ctx, raven.P("minbp", "120"))
//	defer rows.Close()
//	for rows.Next() {
//	    var score float64
//	    _ = rows.Scan(&score)
//	}
package raven

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"raven/internal/codegen"
	"raven/internal/exec"
	"raven/internal/expr"
	"raven/internal/ir"
	"raven/internal/ml"
	"raven/internal/plan"
	"raven/internal/relopt"
	"raven/internal/rescache"
	"raven/internal/rt"
	"raven/internal/sched"
	"raven/internal/sql"
	"raven/internal/storage"
	"raven/internal/types"
	"raven/internal/wal"
	"raven/internal/xopt"
)

// Mode has no effect: the cross optimizer decides how each model runs.
//
// Deprecated: see QueryOptions.Mode.
type Mode = rt.Mode

// ModeInProcess is the zero Mode.
//
// Deprecated: see QueryOptions.Mode.
const ModeInProcess = rt.ModeInProcess

// QueryOptions tunes one query's optimization and execution.
type QueryOptions struct {
	// CrossOptimize enables the cross optimizer (default set of rules).
	CrossOptimize bool
	// UseStatistics derives pruning predicates from table statistics.
	UseStatistics bool
	// DisableInlining / DisableNNTranslation / DisablePruning /
	// DisableProjectionPushdown ablate single rules. DisablePruning also
	// turns off topk-score-bound, the run-time pruning of a forest's rows
	// under ORDER BY score LIMIT k.
	DisableInlining           bool
	DisableNNTranslation      bool
	DisablePruning            bool
	DisableProjectionPushdown bool
	// Mode has no effect. A model runs the way the plan says: on the
	// pipeline kernel, as an inlined CASE expression, or as a tensor
	// session, chosen by the rules above.
	//
	// Deprecated: ablate the rules instead (CrossOptimize: false runs
	// every model on its kernel).
	Mode Mode
	// Parallelism is the morsel-exchange worker count; 0 = engine default
	// (GOMAXPROCS unless overridden at Open), 1 = sequential.
	Parallelism int
	// MorselSize is rows per parallel work unit; 0 = engine default.
	MorselSize int
	// ParallelThresholdRows gates parallel execution by scan size; 0 =
	// default 50k rows (set 1 to force parallelism on small tables).
	ParallelThresholdRows int
	// DisablePlanCache has no effect: there is no engine plan cache, and
	// ad-hoc queries compile on every call.
	//
	// Deprecated: use Prepare to amortize a compile and NoResultCache to
	// force a fresh execution.
	DisablePlanCache bool
	// NoResultCache makes this call bypass the result cache entirely: no
	// lookup, no population. The wire protocol's per-request no_cache
	// flag maps here. Like Tenant it never affects the compiled plan, so
	// it is absent from planKey.
	NoResultCache bool
	// Tenant attributes this query's admission to a tenant: per-tenant
	// quotas (WithTenantQuota) and per-tenant stats apply. Empty means
	// the engine's default tenant. A context tag (ContextWithTenant)
	// overrides it per call. Tenant only shapes admission — it never
	// affects the compiled plan, so it is deliberately absent from
	// planKey, and cached results and a Stmt's template are shared
	// across tenants.
	Tenant string
}

// DefaultQueryOptions is the engine's standard configuration: all
// cross-optimizations on, parallel scans.
func DefaultQueryOptions() QueryOptions {
	return QueryOptions{CrossOptimize: true, Parallelism: 0}
}

// Result is a completed, fully materialized query — the compatibility
// wrapper over the streaming Rows API (it is what Rows.Collect returns).
type Result struct {
	Batch *types.Batch
	// AppliedRules lists the cross-optimizer rules that fired.
	AppliedRules []string
	// CompileTime is the time spent producing the executable plan: parse,
	// bind, cross-optimize and lowering. Near zero on prepared
	// re-executions and result-cache hits — the observable benefit of
	// Prepare.
	CompileTime time.Duration
	// ExecTime is the time spent executing the plan and materializing rows.
	ExecTime time.Duration
	// Elapsed is end-to-end latency (CompileTime + ExecTime).
	Elapsed time.Duration
}

// DB is an embedded Raven engine instance.
type DB struct {
	catalog *storage.Catalog
	runtime *rt.Runtime
	// compiles counts full front-half compilations (parse → bind →
	// optimize): one per ad-hoc call, one per Prepare or re-prepare;
	// prepared re-executions and result-cache hits don't move it.
	compiles atomic.Uint64
	// DefaultParallelism is the morsel-exchange worker count for queries
	// that leave QueryOptions.Parallelism at 0. Defaults to GOMAXPROCS.
	DefaultParallelism int

	// sched is the admission controller gating Query/Stmt.Query; nil
	// (the default) admits everything immediately. Built at Open time
	// from the WithMaxConcurrentQueries/WithMaxWorkerSlots/
	// WithSchedulerQueue options.
	sched     *sched.Scheduler
	schedOpts sched.Options

	// results is the semantic result cache; nil (the default) unless
	// WithResultCache was given. Hits are served before admission, so
	// they cost zero scheduler slots; resHitsByTenant attributes them
	// anyway (the scheduler never sees them).
	results         *rescache.Cache[*resultEntry]
	resHitMu        sync.Mutex
	resHitsByTenant map[string]uint64

	// durable is the on-disk storage backend; nil (the default) keeps the
	// engine fully in-memory. Configured at Open by WithDataDir.
	durable     *storage.Durable
	dataDir     string
	fsyncPolicy string
	segmentRows int
}

// Admission failures, re-exported so API consumers can map them to
// load-shedding responses without importing internal packages.
var (
	// ErrQueueFull: the scheduler is saturated and its queue is at
	// capacity — the query was rejected without waiting. Retry later.
	ErrQueueFull = sched.ErrQueueFull
	// ErrQueueTimeout: the query waited its full queue timeout without
	// being admitted.
	ErrQueueTimeout = sched.ErrQueueTimeout
	// ErrDraining: the engine is shutting down and admits no new queries.
	ErrDraining = sched.ErrDraining
	// ErrTenantQuota: the query's tenant is declared with a zero quota
	// (administratively shut off) and was rejected without queueing.
	ErrTenantQuota = sched.ErrTenantQuota
)

// TenantQuota is one tenant's admission budget (see WithTenantQuota),
// aliased so API consumers can name it without importing internal
// packages.
type TenantQuota = sched.TenantQuota

// TenantStats is one tenant's slice of the scheduler counters (see
// SchedulerStats.Tenants), aliased for the same reason.
type TenantStats = sched.TenantStats

// Option configures an engine at Open time.
type Option func(*DB)

// WithParallelism sets the engine's default degree of parallelism (the
// morsel-pipeline worker count). Values < 1 are ignored, keeping the
// GOMAXPROCS default; 1 makes every query run inline on its caller's
// goroutine by default.
func WithParallelism(n int) Option {
	return func(db *DB) {
		if n >= 1 {
			db.DefaultParallelism = n
		}
	}
}

// WithMaxConcurrentQueries enables admission control: at most n queries
// execute at once; the rest queue (see WithSchedulerQueue) or fail with
// ErrQueueFull. Values < 1 are ignored, leaving admission unlimited.
func WithMaxConcurrentQueries(n int) Option {
	return func(db *DB) {
		if n >= 1 {
			db.schedOpts.MaxConcurrent = n
		}
	}
}

// WithMaxWorkerSlots bounds the total morsel-exchange worker slots
// across all running queries, where each query costs its effective DOP.
// The bound is enforced, not just accounted: a query requesting more
// parallelism than the whole budget is capped to it at lowering time,
// so a wire client asking for DOP 64 against an 8-slot engine runs
// (alone) at DOP 8 instead of spawning 64 workers under an 8-slot
// charge. It only takes effect together with WithMaxConcurrentQueries.
func WithMaxWorkerSlots(n int) Option {
	return func(db *DB) {
		if n >= 1 {
			db.schedOpts.MaxSlots = n
		}
	}
}

// WithSchedulerQueue sizes the admission queue: up to depth queries wait
// for a slot, each for at most timeout (0 = until its context expires).
// It only takes effect together with WithMaxConcurrentQueries.
func WithSchedulerQueue(depth int, timeout time.Duration) Option {
	return func(db *DB) {
		if depth >= 0 {
			db.schedOpts.QueueDepth = depth
		}
		if timeout > 0 {
			db.schedOpts.QueueTimeout = timeout
		}
	}
}

// WithTenantQuota declares a tenant's admission budget: at most
// maxConcurrent of its queries run at once (0 shuts the tenant off —
// its queries fail with ErrTenantQuota), and maxSlots bounds its total
// worker slots (0 = only the global WithMaxWorkerSlots budget applies;
// like the global budget it is enforced at lowering, so a tenant's
// query never spawns more workers than its quota charges). Undeclared
// tenants share the global budget. It only takes effect together with
// WithMaxConcurrentQueries.
func WithTenantQuota(tenant string, maxConcurrent, maxSlots int) Option {
	return func(db *DB) {
		if tenant == "" {
			return
		}
		if maxConcurrent < 0 {
			maxConcurrent = 0
		}
		if maxSlots < 0 {
			maxSlots = 0
		}
		if db.schedOpts.Tenants == nil {
			db.schedOpts.Tenants = make(map[string]sched.TenantQuota)
		}
		db.schedOpts.Tenants[tenant] = sched.TenantQuota{MaxConcurrent: maxConcurrent, MaxSlots: maxSlots}
	}
}

// WithDefaultTenant names the tenant untagged work is attributed to
// (default "default"). Declaring a quota for that name then bounds all
// untagged traffic.
func WithDefaultTenant(name string) Option {
	return func(db *DB) {
		if name != "" {
			db.schedOpts.DefaultTenant = name
		}
	}
}

// tenantCtxKey carries a per-call admission tag in a context.
type tenantCtxKey struct{}

// ContextWithTenant attributes every engine call made under the
// returned context to tenant for admission. It is the per-call
// override — it wins over QueryOptions.Tenant — and the only way to tag
// ExecContext scripts, which take no options. Wire front ends use it to
// attribute work from an X-Raven-Tenant header.
func ContextWithTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantCtxKey{}, tenant)
}

// parallelismCtxKey carries a per-call DOP in a context.
type parallelismCtxKey struct{}

// ContextWithParallelism sets the DOP of every query run under the
// returned context: it wins over QueryOptions.Parallelism, as
// ContextWithTenant wins over QueryOptions.Tenant, and so reaches a Stmt
// whose options were fixed at prepare time. Values < 1 leave the DOP to
// the options. Admission charges it and lowering spawns it, subject to
// the same slot caps as any other DOP.
func ContextWithParallelism(ctx context.Context, dop int) context.Context {
	return context.WithValue(ctx, parallelismCtxKey{}, dop)
}

// tenantFor resolves the admission tenant for one call: context tag
// first (the per-call override), then QueryOptions, then the default
// tenant (resolved inside the scheduler).
func (db *DB) tenantFor(ctx context.Context, opts QueryOptions) string {
	if t, ok := ctx.Value(tenantCtxKey{}).(string); ok {
		return t
	}
	return opts.Tenant
}

// WithDataDir makes the engine durable: every committed write is logged
// to a write-ahead log under dir, table tails seal into on-disk columnar
// segments, and Open recovers whatever a previous process — cleanly shut
// down or killed — committed there. Without it the engine is fully
// in-memory, exactly as before.
func WithDataDir(dir string) Option {
	return func(db *DB) { db.dataDir = dir }
}

// WithFsync selects the WAL sync policy for a durable engine: "always"
// (default; an acknowledged write survives power loss), "interval"
// (background sync; survives process death), or "off" (sync only at
// checkpoint/close). Ignored without WithDataDir; an unknown spelling
// fails Open.
func WithFsync(policy string) Option {
	return func(db *DB) { db.fsyncPolicy = policy }
}

// WithSegmentRows sets how many tail rows accumulate before a durable
// table seals them into an immutable segment file (default 65536).
// Smaller values bound memory: only the tail lives in RAM, so a table
// can exceed it. Ignored without WithDataDir; values < 1 are ignored.
func WithSegmentRows(n int) Option {
	return func(db *DB) {
		if n >= 1 {
			db.segmentRows = n
		}
	}
}

// Open creates an engine. In-memory (the default) it cannot fail; with
// WithDataDir it opens or recovers the data directory, so corrupt state
// or I/O problems surface here, before any query runs.
func Open(opts ...Option) (*DB, error) {
	db := &DB{
		runtime:            rt.NewRuntime(),
		DefaultParallelism: runtime.GOMAXPROCS(0),
	}
	for _, o := range opts {
		o(db)
	}
	if db.dataDir != "" {
		dopts := storage.DurableOptions{SegmentRows: db.segmentRows}
		if db.fsyncPolicy != "" {
			p, err := wal.ParsePolicy(db.fsyncPolicy)
			if err != nil {
				return nil, err
			}
			dopts.Fsync = p
		}
		c, d, err := storage.OpenDurable(db.dataDir, dopts)
		if err != nil {
			return nil, err
		}
		db.catalog = c
		db.durable = d
	} else {
		db.catalog = storage.NewCatalog()
	}
	if db.schedOpts.MaxConcurrent > 0 {
		db.sched = sched.New(db.schedOpts)
	}
	return db, nil
}

// MustOpen is Open for callers that cannot meaningfully handle an open
// error (tests, examples, in-memory engines — where Open never fails).
func MustOpen(opts ...Option) *DB {
	db, err := Open(opts...)
	if err != nil {
		panic(err)
	}
	return db
}

// Close shuts a durable engine down cleanly: a final checkpoint folds
// the WAL into segments and the manifest, so the next Open replays
// nothing. In-memory engines have nothing to close; Close is a no-op.
func (db *DB) Close() error {
	if db.durable == nil {
		return nil
	}
	return db.durable.Close(true)
}

// Abort drops a durable engine without syncing or checkpointing — the
// crash-simulation hook recovery tests and benchmarks use to model
// kill -9 in-process. No-op for in-memory engines.
func (db *DB) Abort() error {
	if db.durable == nil {
		return nil
	}
	return db.durable.Abort()
}

// Checkpoint forces a durable checkpoint now (seal tails, rotate the
// WAL, rewrite the manifest). No-op without WithDataDir.
func (db *DB) Checkpoint() error {
	if db.durable == nil {
		return nil
	}
	return db.durable.Checkpoint()
}

// QueryScheduler is the admission controller type behind DB.Scheduler,
// aliased so API consumers can name it without importing internal
// packages (the import restriction is on paths, not identities).
type QueryScheduler = sched.Scheduler

// SchedulerStats is the admission scheduler's counter snapshot (see
// Stats.Scheduler), aliased for the same nameability reason.
type SchedulerStats = sched.Stats

// Scheduler exposes the admission controller (nil when admission control
// is off) for stats and graceful drain.
func (db *DB) Scheduler() *QueryScheduler { return db.sched }

// CatalogVersion is the catalog's monotonic version counter, bumped on
// every DDL, unique-key change and model store. Cluster routers read it
// back after replicating side effects to detect replica divergence.
func (db *DB) CatalogVersion() uint64 { return db.catalog.Version() }

// effectiveParallelism is the DOP a query actually lowers with: the
// requested DOP (context tag, then options, then engine default), capped
// by the scheduler's worker slot budget and — when the call's tenant is
// declared with a slot quota — by that tenant budget. It is also exactly
// what admission charges, so the charged cost and the spawned worker
// count agree by construction. The cap is a worst-case bound — small
// scans below ParallelThresholdRows scan with one worker anyway — so
// admission stays conservative under load.
func (db *DB) effectiveParallelism(ctx context.Context, opts QueryOptions) int {
	par := opts.Parallelism
	if d, _ := ctx.Value(parallelismCtxKey{}).(int); d > 0 {
		par = d
	}
	if par == 0 {
		par = db.DefaultParallelism
	}
	if db.sched != nil {
		if ms := db.schedOpts.MaxSlots; ms > 0 && par > ms {
			par = ms
		}
		if q, ok := db.schedOpts.QuotaFor(db.tenantFor(ctx, opts)); ok && q.MaxSlots > 0 && par > q.MaxSlots {
			par = q.MaxSlots
		}
	}
	return par
}

// admit passes one query through admission control, charged at its
// effective DOP and attributed to the call's tenant.
// The returned release is non-nil even without a scheduler so callers
// can defer it blindly; Rows takes ownership of it on success (released
// at Close).
func (db *DB) admit(ctx context.Context, opts QueryOptions) (func(), error) {
	return db.admitN(ctx, db.effectiveParallelism(ctx, opts), opts)
}

// admitN acquires an admission slot of explicit cost — cost 1 for the
// single-threaded front-half work (Exec scripts, Prepare compiles). The
// tag still comes from opts/ctx, so even DDL scripts and compiles bill
// to their tenant.
func (db *DB) admitN(ctx context.Context, cost int, opts QueryOptions) (func(), error) {
	if db.sched == nil {
		return func() {}, nil
	}
	return db.sched.AcquireTag(ctx, cost, db.tenantFor(ctx, opts))
}

// Drain stops admitting queries and waits for in-flight ones to finish
// (or ctx to expire). Without admission control it is a no-op: there is
// no registry of in-flight queries to wait on.
func (db *DB) Drain(ctx context.Context) error {
	if db.sched == nil {
		return nil
	}
	return db.sched.Drain(ctx)
}

// Catalog exposes the table catalog (for generators and tools).
func (db *DB) Catalog() *storage.Catalog { return db.catalog }

// Runtime exposes the inference runtime (session cache, providers).
func (db *DB) Runtime() *rt.Runtime { return db.runtime }

// Exec runs DDL/DML statements (CREATE TABLE, DROP TABLE, INSERT).
// Multiple statements may be separated by semicolons; SELECTs are
// rejected here — use Query. So is a script holding a DECLARE: a
// variable binds only for the rest of its own script, and an Exec script
// has no SELECT to read it.
func (db *DB) Exec(script string) error {
	return db.ExecContext(context.Background(), script)
}

// ExecContext is Exec under a context: cancellation or deadline expiry
// is observed between statements (a single statement is not
// interrupted mid-flight), so a long INSERT script stops once its
// caller — e.g. a disconnected wire client — is gone. With admission
// control enabled the script runs under a cost-1 slot, like every other
// work the engine does for a caller; note a caller already holding a
// slot (an open Rows) on a fully saturated engine will queue here.
func (db *DB) ExecContext(ctx context.Context, script string) error {
	release, err := db.admitN(ctx, 1, QueryOptions{})
	if err != nil {
		return err
	}
	defer release()
	stmts, err := sql.ParseScript(script)
	if err != nil {
		return err
	}
	for _, st := range stmts {
		if _, ok := st.(*sql.DeclareStmt); ok {
			return fmt.Errorf("raven: DECLARE binds only within its own script; put it before the SELECT that uses it and run both as one query")
		}
	}
	// Sweep stale result-cache entries once the script is done (even a
	// partially-applied one changed the catalog), so a DROP TABLE does
	// not leave cached results pinning the dropped table's data.
	ver := db.catalog.Version()
	defer func() {
		if db.catalog.Version() != ver {
			db.sweepStaleResults()
		}
	}()
	for _, st := range stmts {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := db.execOne(st); err != nil {
			return err
		}
	}
	return nil
}

func (db *DB) execOne(st sql.Statement) error {
	switch x := st.(type) {
	case *sql.CreateTableStmt:
		t := storage.NewTable(x.Name, types.NewSchema(x.Cols...))
		if err := db.catalog.AddTable(t); err != nil {
			return err
		}
		if x.PrimaryKey != "" {
			if err := db.catalog.SetUniqueKey(x.Name, x.PrimaryKey); err != nil {
				return err
			}
		}
		return nil
	case *sql.DropTableStmt:
		return db.catalog.DropTable(x.Name)
	case *sql.InsertStmt:
		return db.execInsert(x)
	case *sql.SelectStmt:
		return fmt.Errorf("raven: use Query for SELECT statements")
	default:
		return fmt.Errorf("raven: unsupported statement %T", st)
	}
}

func (db *DB) execInsert(x *sql.InsertStmt) error {
	t, err := db.catalog.Table(x.Table)
	if err != nil {
		return err
	}
	sch := t.Schema()
	// Rows of one INSERT statement land as one append — and, on a
	// durable engine, one WAL record. Semantics stay row-at-a-time: a
	// bad row mid-statement still applies the valid prefix before it
	// errors, exactly as when rows were appended one by one.
	b := types.NewBatch(sch)
	flush := func() error {
		if b.Len() == 0 {
			return nil
		}
		return t.AppendBatch(b)
	}
	for _, row := range x.Rows {
		if len(row) != sch.Len() {
			if err := flush(); err != nil {
				return err
			}
			return fmt.Errorf("raven: INSERT row has %d values, table %s has %d columns", len(row), x.Table, sch.Len())
		}
		vals := make([]any, len(row))
		for i, e := range row {
			v, err := literalValue(e, sch.Columns[i].Type)
			if err != nil {
				if ferr := flush(); ferr != nil {
					return ferr
				}
				return fmt.Errorf("raven: INSERT into %s column %s: %w", x.Table, sch.Columns[i].Name, err)
			}
			vals[i] = v
		}
		if err := b.AppendRow(vals...); err != nil {
			return err
		}
	}
	return flush()
}

func literalValue(e sql.Expr, want types.DataType) (any, error) {
	switch v := e.(type) {
	case *sql.NumLit:
		switch want {
		case types.Int:
			if v.IsInt {
				return v.I, nil
			}
			return int64(v.F), nil
		case types.Float:
			if v.IsInt {
				return float64(v.I), nil
			}
			return v.F, nil
		case types.Bool:
			if v.IsInt {
				return v.I != 0, nil
			}
			return v.F != 0, nil
		}
		return nil, fmt.Errorf("numeric value for %v column", want)
	case *sql.StrLit:
		if want != types.String {
			return nil, fmt.Errorf("string value for %v column", want)
		}
		return v.S, nil
	case *sql.BoolLitE:
		if want != types.Bool {
			return nil, fmt.Errorf("bool value for %v column", want)
		}
		return v.B, nil
	default:
		return nil, fmt.Errorf("INSERT values must be literals, got %T", e)
	}
}

// StoreModel stores a fitted pipeline under name, replacing any pipeline
// stored there before. Subsequent queries invoke it via
// PREDICT(MODEL='name').
func (db *DB) StoreModel(name string, p *ml.Pipeline) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("raven: model %q: %w", name, err)
	}
	blob, err := ml.Marshal(p)
	if err != nil {
		return err
	}
	replaced, err := db.catalog.Models.Put(name, blob) // nil on a first store
	if err != nil {
		return err
	}
	// A new pipeline strands every inference session compiled from the
	// one it replaces (session keys start with that pipeline's content
	// hash), and the catalog bump invalidates every compiled plan that
	// embedded the old model (inlined trees, translated tensor graphs).
	if replaced != nil {
		db.runtime.Cache.Invalidate(replaced.Hash)
	}
	db.catalog.BumpVersion()
	db.sweepStaleResults()
	return nil
}

// StoreModelContext is StoreModel under a context: with admission
// control enabled the store runs under a cost-1 slot billed to the
// context's tenant tag (ContextWithTenant), so wire-replicated model
// stores cannot bypass the scheduler any more than DDL scripts can.
func (db *DB) StoreModelContext(ctx context.Context, name string, p *ml.Pipeline) error {
	release, err := db.admitN(ctx, 1, QueryOptions{})
	if err != nil {
		return err
	}
	defer release()
	if err := ctx.Err(); err != nil {
		return err
	}
	return db.StoreModel(name, p)
}

// LoadModel fetches the pipeline stored under name.
func (db *DB) LoadModel(name string) (*ml.Pipeline, error) {
	m, err := db.catalog.Models.Latest(name)
	if err != nil {
		return nil, err
	}
	return ml.Unmarshal(m.Bytes)
}

// Query parses, binds, optimizes and executes a SELECT (optionally with
// PREDICT), with default options, materializing the result. It is the
// compatibility wrapper over QueryContext + Rows.Collect.
func (db *DB) Query(q string) (*Result, error) {
	return db.QueryWithOptions(q, DefaultQueryOptions())
}

// QueryWithOptions runs a SELECT under explicit optimization/execution
// options, materializing the result.
func (db *DB) QueryWithOptions(q string, opts QueryOptions) (*Result, error) {
	rows, err := db.QueryContextWithOptions(context.Background(), q, opts)
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

// QueryContext compiles and executes a SELECT with default options,
// streaming the result. Cancellation or deadline expiry on ctx stops
// execution promptly — exchange workers, pipeline breakers and
// predictors all observe it — and surfaces as ctx.Err() from Rows.
func (db *DB) QueryContext(ctx context.Context, q string) (*Rows, error) {
	return db.QueryContextWithOptions(ctx, q, DefaultQueryOptions())
}

// QueryContextWithOptions is QueryContext under explicit options. With
// admission control enabled (WithMaxConcurrentQueries) the call blocks
// in the scheduler queue until admitted — compilation included, since
// cross-optimization (NN translation, inlining) is itself CPU-heavy —
// and the slot is held until Rows.Close.
func (db *DB) QueryContextWithOptions(ctx context.Context, q string, opts QueryOptions) (*Rows, error) {
	// Undeclared @vars fail inside the binder (AllowParams is off for the
	// ad-hoc surface), with an error pointing at DECLARE/Prepare.
	return db.run(ctx, q, opts, false, nil, func() (*cachedPlan, error) { return db.planFor(q, opts, false) })
}

// run is the one path every query takes, whichever entry point it came
// in by: result-cache lookup, admission, plan, parameter binding,
// lowering, and the tee that fills the cache as the stream is consumed.
// The entry points differ only in what they pass: whether @vars are
// parameters, and where the plan comes from (a fresh compile, or a
// Stmt's template).
//
// Two things are acquired here and nowhere else — a result-cache flight
// (when the call is cache-eligible and misses) and an admission slot —
// and every exit returns both exactly once: an error before the Rows
// exists releases the slot and cancels the flight (waking waiters to
// execute for themselves) right here; after that the Rows owns them, the
// slot until Close and the flight until the tee settles it.
func (db *DB) run(ctx context.Context, q string, opts QueryOptions, allowParams bool, params []Param, plan func() (*cachedPlan, error)) (*Rows, error) {
	start := time.Now()
	// The result cache is consulted before admission: a hit costs zero
	// scheduler slots, and a miss makes this call the flight leader other
	// concurrent identical calls wait on instead of queueing themselves.
	var fl *rescache.Flight[*resultEntry]
	if db.resultCacheEligible(ctx, opts, q) {
		key := db.resultKey(q, opts, allowParams, params)
		rows, flight, err := db.resultLookup(ctx, key, opts, start)
		if rows != nil || err != nil {
			return rows, err
		}
		fl = flight
	}
	release, err := db.admit(ctx, opts)
	if err != nil {
		fl.Cancel()
		return nil, err
	}
	tpl, op, err := db.instantiate(ctx, opts, params, plan)
	if err != nil {
		release()
		fl.Cancel()
		return nil, err
	}
	return leaderRows(ctx, db, op, fl, tpl, start, release)
}

// instantiate turns a plan source into this call's operator tree:
// resolve the template and lower it with the call's parameter values,
// which bind into each expression as its stage is built. The template is
// shared as it is; no plan node is copied.
func (db *DB) instantiate(ctx context.Context, opts QueryOptions, params []Param, template func() (*cachedPlan, error)) (*cachedPlan, exec.Operator, error) {
	tpl, err := template()
	if err != nil {
		return nil, nil, err
	}
	var vals map[string]string
	if len(tpl.params) > 0 || len(params) > 0 {
		if vals, err = paramValues(tpl.params, params); err != nil {
			return nil, nil, err
		}
	}
	op, err := db.lower(ctx, tpl.graph, opts, vals)
	return tpl, op, err
}

// SessionCacheInfo describes the inference-session cache: the same
// counter shape as the result cache (hits, misses, evictions,
// invalidations, bytes, entries, …).
type SessionCacheInfo = rescache.Stats

// Stats is the consolidated engine statistics snapshot served by
// ravenserved's /stats endpoint.
type Stats struct {
	SessionCache SessionCacheInfo `json:"session_cache"`
	// ResultCache is nil unless the engine was opened WithResultCache.
	ResultCache *ResultCacheInfo `json:"result_cache,omitempty"`
	// Scheduler is nil when admission control is off.
	Scheduler *SchedulerStats `json:"scheduler,omitempty"`
	// Storage is nil unless the engine was opened WithDataDir.
	Storage *StorageStats `json:"storage,omitempty"`
	// Compiles counts full front-half compilations since Open.
	Compiles       uint64 `json:"compiles"`
	CatalogVersion uint64 `json:"catalog_version"`
}

// StorageStats is the durable backend's snapshot (see Stats.Storage),
// aliased so API consumers can name it without importing internal
// packages.
type StorageStats = storage.DurableStats

// Stats snapshots the engine's caches and scheduler.
func (db *DB) Stats() Stats {
	st := Stats{
		SessionCache:   db.runtime.Cache.Stats(),
		ResultCache:    db.resultCacheInfo(),
		Compiles:       db.compiles.Load(),
		CatalogVersion: db.catalog.Version(),
	}
	if db.sched != nil {
		s := db.sched.Stats()
		st.Scheduler = &s
	}
	if db.durable != nil {
		s := db.durable.Stats()
		st.Storage = &s
	}
	return st
}

// planFor compiles a statement: the whole front half, every call.
// allowParams selects the prepare surface — @var placeholders become
// execute-time parameters and side-effecting statements are rejected
// (preparing must not mutate the database). On the ad-hoc surface,
// side-effecting statements (CREATE/INSERT/DROP) execute exactly once
// here.
func (db *DB) planFor(q string, opts QueryOptions, allowParams bool) (*cachedPlan, error) {
	current := db.catalog.Version()
	sel, vars, err := db.splitScript(q, !allowParams)
	if db.catalog.Version() != current {
		// The script's own DDL (even a partially applied one) moved the
		// catalog under the result cache, exactly as in ExecContext.
		db.sweepStaleResults()
	}
	if err != nil {
		return nil, err
	}
	db.compiles.Add(1)
	return db.buildPlan(q, sel, vars, opts, allowParams, nil)
}

// splitScript parses a query script into its single SELECT and the
// variables its DECLAREs bind. They are visible to that statement alone:
// nothing outlives the script. Side-effecting statements run via execOne
// when allowSideEffects is set and are rejected otherwise
// (Prepare/Explain).
func (db *DB) splitScript(q string, allowSideEffects bool) (sel *sql.SelectStmt, vars map[string]string, err error) {
	stmts, err := sql.ParseScript(q)
	if err != nil {
		return nil, nil, err
	}
	for _, st := range stmts {
		switch x := st.(type) {
		case *sql.DeclareStmt:
			if vars == nil {
				vars = map[string]string{}
			}
			vars[x.Name] = x.Value
		case *sql.SelectStmt:
			if sel != nil {
				return nil, nil, fmt.Errorf("raven: multiple SELECTs in one Query call")
			}
			sel = x
		default:
			if !allowSideEffects {
				return nil, nil, fmt.Errorf("raven: only DECLARE and a single SELECT are allowed here (Prepare/Explain must not mutate the database), got %T", st)
			}
			if err := db.execOne(st); err != nil {
				return nil, nil, err
			}
		}
	}
	if sel == nil {
		return nil, nil, fmt.Errorf("raven: Query needs a SELECT statement")
	}
	return sel, vars, nil
}

// buildPlan runs the front half once: bind → unified IR → cross optimizer
// (or the always-on relational pass), producing an immutable template.
// Explain is the same call with a report to fill: the bound plan and the
// IR are written as they stand before the next stage rewrites them in
// place, so what Explain prints is what a query with these options runs.
func (db *DB) buildPlan(q string, sel *sql.SelectStmt, vars map[string]string, opts QueryOptions, allowParams bool, report *strings.Builder) (*cachedPlan, error) {
	version := db.catalog.Version()
	binder := plan.NewBinder(db.catalog)
	binder.AllowParams = allowParams
	for k, v := range vars {
		binder.Vars[k] = v
	}
	logical, err := binder.BindSelect(sel)
	if err != nil {
		return nil, err
	}
	if report != nil {
		report.WriteString("== logical plan ==\n" + plan.Explain(logical))
	}

	tables := collectPlanTables(logical)
	graph, err := ir.FromPlan(logical, db.LoadModel)
	if err != nil {
		return nil, err
	}
	if report != nil {
		report.WriteString("\n== unified IR ==\n" + graph.Explain())
	}

	res, err := xopt.Optimize(graph, db.optimizerOptions(opts))
	if err != nil {
		return nil, err
	}
	// Each model operator keys its tensor sessions by its own model's stored
	// hash (a new version of the model strands them by that prefix). An
	// optimized model is specialized to what it was compiled from — the
	// planKey (text, its DECLAREs included, and every option) and the
	// catalog — which joins the key so differently-specialized sessions
	// never collide, while identical repeated queries (warm runs) still hit.
	// A model specialized by statistics is specialized to the data as well:
	// like its plan, its sessions are not cached.
	specialized := opts.CrossOptimize && len(res.Applied) > 0
	if !(specialized && opts.UseStatistics) {
		suffix := ""
		if specialized {
			sum := sha256.Sum256(fmt.Appendf(nil, "%d|%s", version, db.planKey(q, opts, allowParams)))
			suffix = "#" + hex.EncodeToString(sum[:8])
		}
		for _, op := range res.Graph.ModelOps() {
			if m, err := db.catalog.Models.Latest(op.Model); err == nil {
				op.SessionKey = m.Hash + suffix
			}
		}
	}

	return &cachedPlan{
		graph:   res.Graph,
		applied: res.Applied,
		params:  plan.CollectParams(res.Graph.Root),
		version: version,
		tables:  tables,
	}, nil
}

// collectPlanTables walks a bound logical plan for the tables it scans,
// deduplicated in first-visit order. Scan is the only node that holds a
// table, so this is the complete read set.
func collectPlanTables(n plan.Node) []*storage.Table {
	var out []*storage.Table
	seen := map[*storage.Table]bool{}
	plan.Walk(n, func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok && !seen[s.Table] {
			seen[s.Table] = true
			out = append(out, s.Table)
		}
	})
	return out
}

// optimizerOptions is the one QueryOptions → xopt.Options mapping.
func (db *DB) optimizerOptions(opts QueryOptions) xopt.Options {
	ro := &relopt.Optimizer{Catalog: db.catalog, AssumeRI: true}
	if !opts.CrossOptimize {
		// Standard DB optimizations (predicate/projection pushdown, join
		// elimination) always run — SQL Server's optimizer does not switch
		// off. Only the cross-IR rules are gated by CrossOptimize.
		return xopt.Options{Relational: true, RelOpt: ro}
	}
	xo := xopt.DefaultOptions(ro)
	xo.UseDataStatistics = opts.UseStatistics
	xo.ModelInlining = !opts.DisableInlining
	xo.NNTranslation = !opts.DisableNNTranslation
	xo.PredicateModelPruning = !opts.DisablePruning
	xo.ModelProjectionPushdown = !opts.DisableProjectionPushdown
	return xo
}

// lower turns a compiled template into a fresh executable operator tree.
// It runs per execution — cheap relative to the front half — so prepared
// templates still adapt to current table sizes (one-worker vs DOP-wide
// scans) and carry the call's context into every operator. params are
// the call's values for the template's @parameters; nil leaves them
// unbound.
func (db *DB) lower(ctx context.Context, graph *ir.Graph, opts QueryOptions, params map[string]string) (exec.Operator, error) {
	par := db.effectiveParallelism(ctx, opts)
	cfg := &codegen.Config{
		Runtime:               db.runtime,
		Ctx:                   ctx,
		Parallelism:           par,
		ParallelThresholdRows: opts.ParallelThresholdRows,
		MorselSize:            opts.MorselSize,
		Params:                params,
	}
	return codegen.Compile(graph, cfg)
}

// Explain returns a report of the query's plans: the bound logical plan,
// the unified IR before and after optimization (with engine placement
// and the rules that fired — the same list a query run with these options
// reports as AppliedRules), and the regenerated SQL.
func (db *DB) Explain(q string, opts QueryOptions) (string, error) {
	// Same statement-scoped DECLARE handling as Query/Prepare, and like
	// Prepare, explaining must not mutate the database.
	sel, vars, err := db.splitScript(q, false)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	p, err := db.buildPlan(q, sel, vars, opts, false, &sb)
	if err != nil {
		return "", err
	}
	sb.WriteString("\n== optimized IR (rules: " + strings.Join(p.applied, ", ") + ") ==\n")
	sb.WriteString(p.graph.Explain())
	sb.WriteString("\n== regenerated SQL ==\n")
	sb.WriteString(codegen.GenerateSQL(p.graph))
	return sb.String(), nil
}

// Filter is re-exported so examples can build predicates programmatically.
type Filter = expr.Expr
