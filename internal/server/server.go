// Package server is ravenserved's HTTP/JSON wire front end over the
// raven serving API. It exposes the engine the way the paper argues
// inference should be consumed — as a served database, not a batch
// script runner:
//
//	POST /query            ad-hoc SQL (DDL/INSERT/SELECT/PREDICT), rows
//	                       streamed as NDJSON from Rows.NextBatch
//	POST /prepare          compile a statement server-side, returns {id}
//	POST /stmt/{id}/query  execute a prepared statement with @var params
//	                       (warm path: no parse/bind/optimize per call)
//	DELETE /stmt/{id}      forget a prepared statement
//	GET  /stats            consolidated engine + server statistics
//	GET  /healthz          liveness; 503 once draining
//
// Requests are multi-tenant: an X-Raven-Tenant header (or a "tenant"
// body field) attributes each request's admission to a tenant, and
// X-Raven-Priority (or "priority") picks its scheduling class. Prepared
// statements remember the tag they were registered under; per-request
// tags override it. Tenants declared with quotas (ravenserved -tenant)
// are bounded individually while other tenants keep running: a tenant
// whose quota pressure fills the queue gets per-tenant 429s with a
// Retry-After hint, and a tenant shut off with a zero quota gets 429s
// without one (the condition is permanent until reconfiguration, so
// retrying is pointless). GET /stats nests per-tenant counters under
// the scheduler section.
//
// Admission-control failures map to distinct status codes so clients can
// tell load shedding (429, retry with backoff) from queue timeouts (504)
// from shutdown (503). Streaming responses send rows as they arrive; an
// error after the first row is delivered as a final {"error": ...}
// trailer line, since the status line is already on the wire.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"raven"
	"raven/internal/ml"
	"raven/internal/server/reqopt"
	"raven/internal/server/stmtreg"
	"raven/internal/sql"
	"raven/internal/types"
)

// Options tunes the server.
type Options struct {
	// DefaultTimeout bounds queries that do not carry their own
	// timeout_ms; 0 means unbounded.
	DefaultTimeout time.Duration
	// MaxStatements bounds the server-side prepared-statement registry
	// (0 = default 1024). POST /prepare past the limit fails with 429.
	// Ignored when Statements is supplied.
	MaxStatements int
	// Statements, when non-nil, is the prepared-statement registry to
	// use — ravenserved passes one registry to both the HTTP and pg
	// front ends so prepared statements share one capacity budget and
	// one id space (a pg-prepared SELECT is executable via
	// POST /stmt/{id}/query and vice versa is droppable via DELETE).
	// Nil gets a private registry bounded by MaxStatements.
	Statements *stmtreg.Registry
	// DrainGrace is the lame-duck window between advertising draining on
	// /healthz and refusing queries: Shutdown flips healthz to 503 first,
	// waits DrainGrace (bounded by the shutdown context), and only then
	// stops admitting. A fronting router that probes /healthz can stop
	// routing inside the window, so graceful replica drains cut off zero
	// in-flight (or about-to-arrive) queries. 0 keeps the old behaviour:
	// healthz and query paths flip together.
	DrainGrace time.Duration
}

// Server serves one raven.DB over HTTP. Create with New, attach with
// Handler or run with Serve, stop with Shutdown (graceful drain).
type Server struct {
	db   *raven.DB
	opts Options
	mux  *http.ServeMux
	http *http.Server

	// reg is the front-end-agnostic prepared-statement registry
	// (possibly shared with pgwire; see Options.Statements). HTTP
	// statements register under owner "" — they outlive any one
	// connection, unlike pg statements which die with their session.
	reg *stmtreg.Registry

	// pgStats, when set (SetPgwireStats), contributes the pg front
	// end's section to GET /stats.
	pgStats func() any

	// lameduck advertises draining on /healthz while query paths still
	// accept (the probe-visible first phase of a graceful drain);
	// draining is the second phase, where query paths refuse with 503.
	lameduck atomic.Bool
	draining atomic.Bool
	queries  atomic.Uint64 // query executions started (ad-hoc + prepared)
}

// New builds a Server over db.
func New(db *raven.DB, opts Options) *Server {
	reg := opts.Statements
	if reg == nil {
		reg = stmtreg.New(opts.MaxStatements)
	}
	s := &Server{db: db, opts: opts, reg: reg}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /prepare", s.handlePrepare)
	mux.HandleFunc("POST /stmt/{id}/query", s.handleStmtQuery)
	mux.HandleFunc("DELETE /stmt/{id}", s.handleStmtDelete)
	mux.HandleFunc("POST /model", s.handleStoreModel)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux = mux
	// Built eagerly so a Shutdown racing a just-started Serve goroutine
	// always finds the server to close (a lazily built one could be
	// missed, leaving the listener accepting after Shutdown returned).
	s.http = &http.Server{Handler: mux}
	return s
}

// Handler returns the route table (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// SetPgwireStats installs the pg front end's stats snapshot as the
// "pgwire" section of GET /stats. A hook rather than an import so this
// package stays protocol-agnostic (pgwire imports server's siblings,
// never the reverse); ravenserved wires it. Call before Serve.
func (s *Server) SetPgwireStats(f func() any) { s.pgStats = f }

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like net/http (and
// immediately, if Shutdown already ran).
func (s *Server) Serve(l net.Listener) error {
	return s.http.Serve(l)
}

// BeginDrain enters the lame-duck phase: /healthz starts reporting
// draining (503) while the query paths still accept work. Health-probing
// routers notice and stop routing here, before anything is refused —
// the first half of a zero-dropped-queries drain. Idempotent; Shutdown
// calls it implicitly.
func (s *Server) BeginDrain() { s.lameduck.Store(true) }

// Draining reports whether the server has begun draining (either phase):
// lame-duck (healthz advertises, queries still run) or full drain.
func (s *Server) Draining() bool { return s.lameduck.Load() || s.draining.Load() }

// Shutdown drains gracefully in two phases. First the lame-duck window:
// healthz flips to 503 (see BeginDrain) while queries still run, for
// Options.DrainGrace (bounded by ctx) — long enough for a fronting
// router's next health probe to stop routing here. Then the real drain:
// stop admitting new queries (the engine scheduler refuses admissions),
// wait for in-flight queries to finish or ctx to expire, and close the
// HTTP listener (net/http itself waits for active handlers). Safe
// without Serve, and idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	if g := s.opts.DrainGrace; g > 0 && !s.draining.Load() {
		t := time.NewTimer(g)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}
	s.draining.Store(true)
	drainErr := s.db.Drain(ctx)
	if err := s.http.Shutdown(ctx); err != nil && drainErr == nil {
		drainErr = err
	}
	return drainErr
}

// Abort closes the listener and every active connection immediately —
// no drain, responses cut mid-stream. It exists so crash-recovery tests
// can take a replica down the way a crash would; production shutdown is
// Shutdown.
func (s *Server) Abort() error {
	s.draining.Store(true)
	return s.http.Close()
}

// ---- wire types ----

// QueryRequest is the body of POST /query and POST /stmt/{id}/query
// (which ignores SQL and Options — they were fixed at prepare time).
type QueryRequest struct {
	SQL string `json:"sql"`
	// Params bind @var placeholders (prepared path only).
	Params map[string]string `json:"params,omitempty"`
	// TimeoutMillis is this query's deadline; 0 uses the server default.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// Options tunes optimization/execution per request.
	Options *QueryOptions `json:"options,omitempty"`
	// Tenant attributes the request's admission to a tenant (quotas and
	// per-tenant stats). The X-Raven-Tenant header overrides it, so a
	// trusted proxy can tag untrusted clients; on the prepared path an
	// empty tenant falls back to the statement's prepare-time tenant.
	Tenant string `json:"tenant,omitempty"`
	// Priority orders waiting admissions (higher first). The
	// X-Raven-Priority header overrides it. A pointer so presence is
	// visible: on the prepared path an absent priority falls back to the
	// statement's registered one, while an explicit 0 (body or header)
	// demotes it.
	Priority *int `json:"priority,omitempty"`
	// NoCache bypasses the engine's result cache for this request: no
	// lookup, no population. Reads that must observe their own side
	// effects mid-script, and freshness probes, set it.
	NoCache bool `json:"no_cache,omitempty"`
}

// QueryOptions is the wire subset of raven.QueryOptions.
type QueryOptions struct {
	// CrossOptimize defaults to true when omitted.
	CrossOptimize *bool `json:"cross_optimize,omitempty"`
	// Parallelism requests a DOP; the server clamps it to 8×GOMAXPROCS
	// (on top of any engine slot budget), because goroutine fan-out is
	// allocated per request and wire clients are untrusted.
	Parallelism      int  `json:"parallelism,omitempty"`
	DisablePlanCache bool `json:"disable_plan_cache,omitempty"`
}

func (o *QueryOptions) engine() raven.QueryOptions {
	opts := raven.DefaultQueryOptions()
	if o == nil {
		return opts
	}
	if o.CrossOptimize != nil {
		opts.CrossOptimize = *o.CrossOptimize
	}
	par := o.Parallelism
	if par < 0 {
		par = 0
	}
	if cap := reqopt.MaxWireDOP(); par > cap {
		par = cap
	}
	opts.Parallelism = par
	opts.DisablePlanCache = o.DisablePlanCache
	return opts
}

// IntPtr boxes an int for optional wire fields (QueryRequest.Priority).
func IntPtr(v int) *int { return &v }

// PrepareResponse is the body of a successful POST /prepare.
type PrepareResponse struct {
	ID     string   `json:"id"`
	Params []string `json:"params,omitempty"`
}

// ExecResponse acknowledges a side-effect-only /query script.
type ExecResponse struct {
	OK bool `json:"ok"`
}

// Trailer is the last NDJSON line of a successful row stream.
type Trailer struct {
	Rows      int      `json:"rows"`
	CompileMS float64  `json:"compile_ms"`
	ExecMS    float64  `json:"exec_ms"`
	Rules     []string `json:"rules,omitempty"`
}

// ErrorLine is an error surfaced mid-stream (or the whole body of a
// pre-stream failure, where it travels with a real error status code).
type ErrorLine struct {
	Error string `json:"error"`
}

// Health is the body of GET /healthz: liveness plus the cheap load and
// version signals a cluster router's probe loop needs without paying for
// a full /stats snapshot. Status "ok" travels with 200; "draining" with
// 503 from the moment a graceful drain begins (lame-duck phase
// included, so probes stop routing before queries are refused).
type Health struct {
	Status string `json:"status"`
	// CatalogVersion lets a router detect replica divergence (missed DDL,
	// lost state after a restart) from the probe alone.
	CatalogVersion uint64 `json:"catalog_version"`
	// Queue and Active are the admission scheduler's live gauges (zero
	// without a scheduler); routers spill traffic away from replicas
	// whose queue is deep.
	Queue  int `json:"queue"`
	Active int `json:"active"`
}

// ModelRequest is the body of POST /model: a serialized pipeline stored
// under Name (the wire form of DB.StoreModel, so models replicate over
// the same protocol as DDL). Data is the gob-encoded pipeline
// (base64 in JSON).
type ModelRequest struct {
	Name   string `json:"name"`
	Data   []byte `json:"data"`
	Tenant string `json:"tenant,omitempty"`
}

// ServerStats is the server-level half of GET /stats.
type ServerStats struct {
	Statements int    `json:"statements"`
	Prepares   uint64 `json:"prepares"`
	Queries    uint64 `json:"queries"`
	Draining   bool   `json:"draining"`
}

// StatsResponse is the body of GET /stats.
type StatsResponse struct {
	Server ServerStats `json:"server"`
	Engine raven.Stats `json:"engine"`
	// Pgwire is the pg front end's section (absent when ravenserved runs
	// without -pg-addr). Raw so this package needs no pgwire types.
	Pgwire json.RawMessage `json:"pgwire,omitempty"`
}

// ---- handlers ----

func writeError(w http.ResponseWriter, err error) {
	w.Header().Set("Content-Type", "application/json")
	cl := reqopt.Classify(err)
	// Retry-After invites the client back: right for transient pressure
	// (queue full, draining), wrong for a tenant administratively shut
	// off with a zero quota — that 429 stays until the server is
	// reconfigured, so hinting a 1s retry would just generate permanent
	// polling load. The shared table carries the distinction.
	if cl.RetryAfter {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(cl.HTTPStatus)
	json.NewEncoder(w).Encode(ErrorLine{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		// An absent body is a valid empty request (e.g. executing a
		// parameter-less prepared statement without sending "{}").
		if errors.Is(err, io.EOF) {
			return nil
		}
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// maxWirePriority is the wire clamp (see reqopt.Clamp: the scheduler's
// aging guard makes unbounded priorities a parking-ahead attack).
const maxWirePriority = reqopt.MaxWirePriority

// bodyOptions lifts the JSON body's per-request fields into their
// reqopt layer. The body fields (tenant/priority/no_cache/timeout_ms/
// options.parallelism) are aliases of the X-Raven-* headers — one
// surface, two carriers; headers win (a trusted fronting proxy tags
// clients that cannot be trusted to tag themselves).
func bodyOptions(req *QueryRequest) reqopt.Options {
	o := reqopt.Options{
		Tenant:   req.Tenant,
		Priority: req.Priority,
		NoCache:  req.NoCache,
	}
	if req.TimeoutMillis > 0 {
		o.Timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
	}
	if req.Options != nil && req.Options.Parallelism > 0 {
		o.DOP = req.Options.Parallelism
	}
	return o
}

// requestOptions resolves a request's effective options across the
// HTTP layers — headers > body > per-statement (stmt, may be zero) >
// server default — and clamps the untrusted knobs.
func (s *Server) requestOptions(r *http.Request, req *QueryRequest, stmt reqopt.Options) (reqopt.Options, error) {
	hdr, err := reqopt.FromHeaders(r.Header)
	if err != nil {
		return reqopt.Options{}, err
	}
	return reqopt.Resolve(
		hdr,
		bodyOptions(req),
		stmt,
		reqopt.Options{Timeout: s.opts.DefaultTimeout},
	).Clamp(), nil
}

// requestTag is the legacy view of the resolved admission identity
// (kept for tests pinning the header/body precedence and clamps).
func requestTag(r *http.Request, req *QueryRequest) (tenant string, priority int, prioritySet bool, err error) {
	hdr, err := reqopt.FromHeaders(r.Header)
	if err != nil {
		return "", 0, false, err
	}
	ro := reqopt.Resolve(hdr, bodyOptions(req)).Clamp()
	return ro.Tenant, ro.PriorityOr(0), ro.Priority != nil, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, raven.ErrDraining)
		return
	}
	var req QueryRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		writeError(w, errors.New("missing sql"))
		return
	}
	ro, err := s.requestOptions(r, &req, reqopt.Options{})
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := ro.WithTimeout(r.Context())
	defer cancel()
	opts := req.Options.engine()
	ro.Apply(&opts)

	// A script with no SELECT is pure DDL/DML: run it through ExecContext
	// (deadline and client disconnect observed between statements; the
	// engine runs it under a cost-1 admission slot billed to the request's
	// tenant — the context tag is how option-less ExecContext gets it —
	// so DDL bursts do not bypass the scheduler or their quota). A
	// param-less script mixing DDL and a SELECT goes through Query, which
	// executes the side effects then streams the SELECT; with params the
	// script must be DECLAREs + one SELECT (the prepare surface compiles
	// it and must not mutate the database).
	if sql.ClassifyScript(req.SQL) == sql.ScriptSideEffectsOnly {
		if err := s.db.ExecContext(ro.Context(ctx), req.SQL); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, ExecResponse{OK: true})
		return
	}

	s.queries.Add(1)
	var rows *raven.Rows
	if len(req.Params) > 0 {
		// Parameterized ad-hoc query: the prepare-surface compile (typed
		// @var binding) runs inside admission, so a burst of distinct
		// parameterized texts cannot oversubscribe the CPU on compiles.
		// The plan cache makes the repeat case as cheap as a server-side
		// prepared statement.
		rows, err = s.db.QueryContextParams(ctx, req.SQL, opts, paramList(req.Params)...)
		if err != nil && strings.Contains(err.Error(), "must not mutate") {
			err = errors.New("parameterized query scripts must contain only DECLAREs and a single SELECT; run DDL/INSERT in a separate call without params")
		}
	} else {
		rows, err = s.db.QueryContextWithOptions(ctx, req.SQL, opts)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	streamRows(w, rows)
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, raven.ErrDraining)
		return
	}
	var req QueryRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		writeError(w, errors.New("missing sql"))
		return
	}
	// Refuse before compiling: a full registry must not cost a parse/
	// bind/cross-optimize per rejected request. (Re-checked at insert —
	// concurrent prepares racing past this gate can each compile, but
	// the registry never exceeds the cap.)
	if s.reg.Full() {
		writeStmtLimit(w)
		return
	}
	// PrepareContext runs the compile — the CPU the scheduler exists to
	// protect — under a cost-1 admission slot billed to the registering
	// tenant; /prepare is reachable by the same untrusted burst as
	// /query. The tag is also remembered on the registry entry
	// (per-statement tenant registration), so executions inherit it by
	// default.
	ro, err := s.requestOptions(r, &req, reqopt.Options{})
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := ro.WithTimeout(r.Context())
	defer cancel()
	opts := req.Options.engine()
	ro.Apply(&opts)
	st, err := s.db.PrepareContextWithOptions(ctx, req.SQL, opts)
	if err != nil {
		writeError(w, err)
		return
	}
	id, err := s.reg.Register("", &stmtreg.Entry{
		Stmt: st,
		Opts: reqopt.Options{Tenant: ro.Tenant, Priority: ro.Priority},
	})
	if err != nil {
		writeStmtLimit(w)
		return
	}
	writeJSON(w, PrepareResponse{ID: id, Params: st.Params()})
}

func writeStmtLimit(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	json.NewEncoder(w).Encode(ErrorLine{Error: "prepared-statement limit reached; DELETE unused statements"})
}

func (s *Server) handleStmtQuery(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, raven.ErrDraining)
		return
	}
	e, err := s.reg.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err) // 404 via the shared error table
		return
	}
	var req QueryRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	// Per-execution options: headers > body > the statement's registered
	// layer. Presence, not zeroness, decides the priority override
	// (Priority is a pointer through every layer), so an explicit 0
	// demotes a statement registered at a higher priority. The context
	// tag wins inside the engine over the Stmt's prepare-time options,
	// so overrides actually take effect on the warm path; a Stmt's
	// options were fixed at prepare time, so no_cache travels by context
	// too.
	ro, err := s.requestOptions(r, &req, e.Opts)
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := ro.WithTimeout(r.Context())
	defer cancel()
	s.queries.Add(1)
	rows, err := e.Stmt.QueryContext(ro.Context(ctx), paramList(req.Params)...)
	if err != nil {
		writeError(w, err)
		return
	}
	streamRows(w, rows)
}

func (s *Server) handleStmtDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Remove(r.PathValue("id")); err != nil {
		writeError(w, err) // 404 via the shared error table
		return
	}
	writeJSON(w, ExecResponse{OK: true})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := StatsResponse{
		Server: ServerStats{
			Statements: s.reg.Len(),
			Prepares:   s.reg.Prepares(),
			Queries:    s.queries.Load(),
			Draining:   s.draining.Load(),
		},
		Engine: s.db.Stats(),
	}
	if s.pgStats != nil {
		if b, err := json.Marshal(s.pgStats()); err == nil {
			resp.Pgwire = b
		}
	}
	writeJSON(w, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	load := s.db.SchedulerLoad()
	h := Health{
		Status:         "ok",
		CatalogVersion: s.db.CatalogVersion(),
		Queue:          load.Waiting,
		Active:         load.Active,
	}
	// Lame-duck counts: probes must see draining while queries still run,
	// so routers stop routing before anything is refused.
	if s.Draining() {
		h.Status = "draining"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(h)
}

// handleStoreModel is the wire form of DB.StoreModel: it validates the
// serialized pipeline and stores it under the given name, bumping the
// catalog version (which invalidates stale plans and sessions exactly
// like the embedded API). Routers use it to replicate models to every
// replica alongside DDL. The store runs under a cost-1 admission slot
// billed to the request's tenant — deserializing and validating a model
// is front-half CPU like any compile.
func (s *Server) handleStoreModel(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, raven.ErrDraining)
		return
	}
	var req ModelRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Name == "" || len(req.Data) == 0 {
		writeError(w, errors.New("missing model name or data"))
		return
	}
	tenant := req.Tenant
	if h := r.Header.Get("X-Raven-Tenant"); h != "" {
		tenant = h
	}
	p, err := ml.Unmarshal(req.Data)
	if err != nil {
		writeError(w, fmt.Errorf("bad model payload: %w", err))
		return
	}
	ctx, cancel := reqopt.Options{Timeout: s.opts.DefaultTimeout}.WithTimeout(r.Context())
	defer cancel()
	if err := s.db.StoreModelContext(raven.ContextWithTenant(ctx, tenant, 0), req.Name, p); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, ExecResponse{OK: true})
}

// ---- streaming ----

// streamRows writes the NDJSON stream: a header object, one array per
// row, and a trailer (or {"error": ...} if the stream broke mid-way).
// The first batch is fetched before the status line commits, so a query
// that dies before producing anything still gets a real error status;
// after that every failure ends the stream in an error line. Rows are
// written and flushed once per engine batch: its rows arrive together,
// so flushing them one by one would get none to the client sooner.
func streamRows(w http.ResponseWriter, rows *raven.Rows) {
	defer rows.Close()
	b := rows.NextBatch()
	if b == nil && rows.Err() != nil {
		writeError(w, rows.Err())
		return
	}
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)

	sch := rows.Schema()
	typeNames := make([]string, sch.Len())
	for i, c := range sch.Columns {
		typeNames[i] = c.Type.String()
	}
	enc.Encode(struct {
		Columns []string `json:"columns"`
		Types   []string `json:"types"`
	}{rows.Columns(), typeNames})

	buf := rowBufs.Get().(*[]byte)
	defer func() {
		if cap(*buf) <= 64<<10 {
			rowBufs.Put(buf)
		}
	}()
	n := 0
	var err error
	for ; b != nil; b = rows.NextBatch() {
		if *buf, err = writeBatch(w, *buf, b); err != nil {
			break
		}
		n += b.Len()
		flush()
	}
	if err == nil {
		err = rows.Err()
	}
	if err != nil {
		// After a failed write the client is gone; rows.Close cancels.
		enc.Encode(ErrorLine{Error: err.Error()})
		return
	}
	rows.Close()
	enc.Encode(Trailer{
		Rows:      n,
		CompileMS: float64(rows.CompileTime.Microseconds()) / 1000,
		ExecMS:    float64(rows.ExecTime().Microseconds()) / 1000,
		Rules:     rows.AppliedRules,
	})
	flush()
}

// rowBufs recycles the NDJSON encode buffer across requests. It starts
// small: a fresh 32 KiB per request shows on one-row cache hits.
var rowBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1<<10); return &b }}

// writeBatch encodes every row of b into buf and writes it to w at the
// end of the batch and whenever buf passes 32 KiB, returning buf emptied.
func writeBatch(w io.Writer, buf []byte, b *types.Batch) ([]byte, error) {
	for i, n := 0, b.Len(); i < n; i++ {
		buf = appendRow(buf, b.Vecs, i)
		if len(buf) >= 32<<10 || i == n-1 {
			if _, err := w.Write(buf); err != nil {
				return buf[:0], err
			}
			buf = buf[:0]
		}
	}
	return buf, nil
}

// appendRow appends row i as one NDJSON line, byte for byte what
// json.Encoder writes for the row's values as a []any — except that a
// non-finite FLOAT, which encoding/json refuses, is the string "NaN",
// "Infinity" or "-Infinity".
func appendRow(buf []byte, vecs []*types.Vector, i int) []byte {
	buf = append(buf, '[')
	for j, v := range vecs {
		if j > 0 {
			buf = append(buf, ',')
		}
		switch {
		case v.IsNull(i):
			buf = append(buf, "null"...)
		case v.Type == types.Int:
			buf = strconv.AppendInt(buf, v.IntAt(i), 10)
		case v.Type == types.Float:
			buf = appendFloat(buf, v.FloatAt(i))
		case v.Type == types.Bool:
			buf = strconv.AppendBool(buf, v.BoolAt(i))
		default:
			buf = appendString(buf, v.StringAt(i))
		}
	}
	return append(buf, ']', '\n')
}

// appendFloat spells f as encoding/json does: 'f', or 'e' below 1e-6 and
// from 1e21 up, with a one-digit negative exponent written "e-7".
func appendFloat(buf []byte, f float64) []byte {
	switch abs := math.Abs(f); {
	case math.IsNaN(f):
		return append(buf, `"NaN"`...)
	case math.IsInf(f, 1):
		return append(buf, `"Infinity"`...)
	case math.IsInf(f, -1):
		return append(buf, `"-Infinity"`...)
	case abs != 0 && (abs < 1e-6 || abs >= 1e21):
		buf = strconv.AppendFloat(buf, f, 'e', -1, 64)
		if n := len(buf); buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
		return buf
	}
	return strconv.AppendFloat(buf, f, 'f', -1, 64)
}

// appendString quotes printable ASCII that encoding/json leaves alone
// itself (it escapes <, > and & for HTML) and hands anything else to it.
func appendString(buf []byte, s string) []byte {
	for k := 0; k < len(s); k++ {
		if c := s[k]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(buf, q...)
		}
	}
	buf = append(append(buf, '"'), s...)
	return append(buf, '"')
}

func paramList(m map[string]string) []raven.Param {
	out := make([]raven.Param, 0, len(m))
	for k, v := range m {
		out = append(out, raven.P(k, v))
	}
	return out
}
