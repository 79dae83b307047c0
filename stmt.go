package raven

import (
	"context"
	"fmt"
	"sync"

	"raven/internal/ir"
	"raven/internal/storage"
	"raven/internal/types"
)

// Param is one named execute-time argument of a prepared statement,
// bound to an @var placeholder in the SQL text. Values are strings typed
// by inference at bind time: "120" compares numerically, "true"/"false"
// become BIT, anything else stays VARCHAR. A numeric-looking value
// against a VARCHAR column therefore fails loudly with a type error
// rather than comparing as a string — unlike DECLAREd variables, which
// always bind as VARCHAR.
type Param struct {
	Name  string
	Value string
}

// P builds a Param.
func P(name, value string) Param { return Param{Name: name, Value: value} }

// cachedPlan is one compiled statement template: the front half of query
// processing (parse → bind → unified IR → cross optimization) done once.
// A Stmt holds one across executions; an ad-hoc call compiles its own and
// drops it. It is immutable after construction — executions lower it
// into fresh operator trees (codegen re-runs per call, so data growth
// still flips scans between one worker and DOP-wide), binding their
// parameter values into the stages they build, never into the plan.
type cachedPlan struct {
	// graph is the optimized tree; its model operators carry their
	// session-cache keys.
	graph   *ir.Graph
	applied []string
	// params names the unbound @parameters the plan needs at execute time,
	// sorted. Non-empty only for prepared statements.
	params []string
	// version is the catalog version the plan was compiled against; any
	// DDL or model store bumps it, and a Stmt holding an older template
	// re-prepares.
	version uint64
	// tables lists every table the bound plan scans, before optimization
	// can eliminate a join. The result cache snapshots their data
	// versions around execution: a template survives appends, results
	// don't.
	tables []*storage.Table
}

// Stmt is a prepared statement: parse → bind → unified IR → cross
// optimization ran once at Prepare, and every Query call reuses the
// compiled template, paying only operator lowering and execution. A Stmt
// is safe for concurrent Query calls; executions share the template as
// it is and bind their parameters only into their own operator trees.
//
// Undeclared @var references in the SQL become execute-time parameters
// supplied via Query(P("name", "value"), ...). The PREDICT model name is
// the exception: it determines the optimized plan, so MODEL=@var must be
// resolvable at prepare time (DECLARE it in the prepared script).
//
// DDL or a model store invalidates the template; the next Query
// transparently re-prepares against the current catalog.
type Stmt struct {
	db   *DB
	sql  string
	opts QueryOptions

	mu   sync.Mutex
	plan *cachedPlan
}

// Prepare compiles a statement once for repeated execution, with default
// options. The script may contain DECLAREs (prepare-time constants) and
// exactly one SELECT; side-effecting statements are rejected.
func (db *DB) Prepare(q string) (*Stmt, error) {
	return db.PrepareWithOptions(q, DefaultQueryOptions())
}

// PrepareWithOptions compiles a statement once under explicit options.
func (db *DB) PrepareWithOptions(q string, opts QueryOptions) (*Stmt, error) {
	return db.PrepareContextWithOptions(context.Background(), q, opts)
}

// PrepareContext is Prepare under a context.
func (db *DB) PrepareContext(ctx context.Context, q string) (*Stmt, error) {
	return db.PrepareContextWithOptions(ctx, q, DefaultQueryOptions())
}

// PrepareContextWithOptions compiles a statement once under explicit
// options and a context. The compile — the CPU-heavy front half, cross
// optimization included — runs under a cost-1 admission slot when
// admission control is enabled, so bursts of prepares from a wire front
// end cannot oversubscribe the engine any more than queries can; ctx
// bounds the wait for that slot.
func (db *DB) PrepareContextWithOptions(ctx context.Context, q string, opts QueryOptions) (*Stmt, error) {
	release, err := db.admitN(ctx, 1, opts)
	if err != nil {
		return nil, err
	}
	defer release()
	s := &Stmt{db: db, sql: q, opts: opts}
	if _, err := s.template(); err != nil {
		return nil, err
	}
	return s, nil
}

// template returns the compiled plan, re-preparing if the catalog moved
// (DDL or model store) since it was built. Statistics-derived plans
// (UseStatistics) are specialized to the data range at compile time and
// INSERTs don't bump the catalog version, so those re-prepare every call
// rather than risk serving a stale specialization.
func (s *Stmt) template() (*cachedPlan, error) {
	cur := s.db.catalog.Version()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.plan != nil && s.plan.version == cur && !s.opts.UseStatistics {
		return s.plan, nil
	}
	p, err := s.db.planFor(s.sql, s.opts, true)
	if err != nil {
		return nil, err
	}
	s.plan = p
	return p, nil
}

// SQL returns the statement text.
func (s *Stmt) SQL() string { return s.sql }

// ResultSchema reports the statement's output schema without executing
// it: the compiled template is lowered into an operator tree — cheap
// relative to the front half, and lowering never evaluates parameter
// placeholders — whose schema is read and which is then discarded
// unopened. Wire front ends use it to describe results (the pg extended
// protocol's Describe must answer RowDescription before any Execute).
// Like every execution it tracks the catalog: after DDL or a model
// store the template transparently re-prepares first.
func (s *Stmt) ResultSchema(ctx context.Context) (*types.Schema, error) {
	tpl, err := s.template()
	if err != nil {
		return nil, err
	}
	op, err := s.db.lower(ctx, tpl.graph, s.opts, nil)
	if err != nil {
		return nil, err
	}
	sch := op.Schema()
	op.Close()
	return sch, nil
}

// Params returns the names of the execute-time parameters the statement
// expects, sorted.
func (s *Stmt) Params() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.plan == nil {
		return nil
	}
	return append([]string(nil), s.plan.params...)
}

// Query executes the prepared statement, binding params, and streams the
// result.
func (s *Stmt) Query(params ...Param) (*Rows, error) {
	return s.QueryContext(context.Background(), params...)
}

// QueryContext executes the prepared statement under a context: the
// compiled plan is reused (no parse/bind/optimize), parameters bind as
// its expressions become stages, and cancellation reaches every operator
// and predictor. Prepared executions pass through the same admission
// control as ad-hoc queries (the slot is held until Rows.Close), so a
// fleet of warm statements cannot oversubscribe the engine either. The
// result cache is keyed with the statement text (its DECLAREs included)
// plus the call's parameter values.
func (s *Stmt) QueryContext(ctx context.Context, params ...Param) (*Rows, error) {
	return s.db.run(ctx, s.sql, s.opts, true, params, s.template)
}

// QueryContextParams is the ad-hoc parameterized query surface: like
// QueryContextWithOptions but compiled through the prepare surface, so
// undeclared @vars bind from params with type inference instead of
// erroring. Admission is acquired before compilation (unlike a
// Prepare-then-Query pair, where the compile runs un-gated), which makes
// this the right engine call for a wire front end handling untrusted
// bursts of parameterized SQL. Side-effecting statements are rejected,
// exactly as in Prepare.
func (db *DB) QueryContextParams(ctx context.Context, q string, opts QueryOptions, params ...Param) (*Rows, error) {
	return db.run(ctx, q, opts, true, params, func() (*cachedPlan, error) { return db.planFor(q, opts, true) })
}

// paramValues validates the supplied params against the declared set:
// every declared parameter needs a value, and unknown names are rejected
// (they are typos, not extensions).
func paramValues(declared []string, supplied []Param) (map[string]string, error) {
	want := make(map[string]bool, len(declared))
	for _, name := range declared {
		want[name] = true
	}
	vals := make(map[string]string, len(supplied))
	for _, p := range supplied {
		if !want[p.Name] {
			return nil, fmt.Errorf("raven: statement has no parameter @%s (expects %v)", p.Name, declared)
		}
		if _, dup := vals[p.Name]; dup {
			return nil, fmt.Errorf("raven: parameter @%s bound twice", p.Name)
		}
		vals[p.Name] = p.Value
	}
	for _, name := range declared {
		if _, ok := vals[name]; !ok {
			return nil, fmt.Errorf("raven: no value for parameter @%s", name)
		}
	}
	return vals, nil
}
