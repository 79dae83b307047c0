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
// admission is first come, first served within the tenant quotas.
// Prepared statements remember the tenant they were registered under;
// per-request tags override it. Tenants declared with quotas
// (ravenserved -tenant) are bounded individually while other tenants
// keep running: a tenant whose quota pressure fills the queue gets
// per-tenant 429s with a Retry-After hint, and a tenant shut off with a
// zero quota gets 429s without one (the condition is permanent until
// reconfiguration, so retrying is pointless). GET /stats nests
// per-tenant counters under the scheduler section.
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
	// Statements, when non-nil, is the prepared-statement registry to
	// use — ravenserved passes one registry to both the HTTP and pg
	// front ends so prepared statements share one capacity budget and
	// one id space (a pg-prepared SELECT is executable via
	// POST /stmt/{id}/query and vice versa is droppable via DELETE).
	// Nil gets a private registry of stmtreg.DefaultMax statements;
	// POST /prepare past the limit fails with 429.
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
		reg = stmtreg.New(0)
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

// QueryRequest is the body of POST /query and POST /stmt/{id}/query.
// The statement route fixes only sql and options.cross_optimize at
// prepare time; every other field, options.parallelism included, applies
// to each execution.
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
	// NoCache bypasses the engine's result cache for this request: no
	// lookup, no population. Reads that must observe their own side
	// effects mid-script, and freshness probes, set it.
	NoCache bool `json:"no_cache,omitempty"`
}

// QueryOptions is the wire subset of raven.QueryOptions.
type QueryOptions struct {
	// CrossOptimize defaults to true when omitted.
	CrossOptimize *bool `json:"cross_optimize,omitempty"`
	// Parallelism requests a DOP, an alias of the X-Raven-DOP header;
	// reqopt clamps it to 8×GOMAXPROCS (on top of any engine slot
	// budget), because goroutine fan-out is allocated per request and
	// wire clients are untrusted.
	Parallelism int `json:"parallelism,omitempty"`
}

// engine is the engine options a request starts from: the defaults with
// its cross_optimize. The resolved request options (Options.Apply) set
// the rest, the DOP included.
func (o *QueryOptions) engine() raven.QueryOptions {
	opts := raven.DefaultQueryOptions()
	if o != nil && o.CrossOptimize != nil {
		opts.CrossOptimize = *o.CrossOptimize
	}
	return opts
}

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

// WriteError answers with err's status and an ErrorLine: an *HTTPError
// in err's chain keeps its own status (a router relaying a replica's
// verdict, or naming its own), anything else takes the shared error
// table's. A bare *HTTPError is written as its Msg.
func WriteError(w http.ResponseWriter, err error) {
	cl, msg := reqopt.Classify(err), err.Error()
	var he *HTTPError
	if errors.As(err, &he) {
		cl = reqopt.Class{HTTPStatus: he.Status}
		if error(he) == err {
			msg = he.Msg
		}
	}
	// Retry-After invites the client back: right for transient pressure
	// (queue full, draining), wrong for a tenant administratively shut
	// off with a zero quota — that 429 stays until the server is
	// reconfigured, so hinting a 1s retry would just generate permanent
	// polling load. The shared table carries the distinction.
	if cl.RetryAfter {
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, cl.HTTPStatus, ErrorLine{Error: msg})
}

// WriteJSON answers with status and v as a JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// Request body limits, past which a route answers 413: a query, prepare
// or statement body is SQL and parameters; a model body carries a
// serialized pipeline.
const (
	maxQueryBody = 4 << 20
	maxModelBody = 64 << 20
)

// DecodeQuery decodes the body of POST /query, /prepare or
// /stmt/{id}/query — the one decoder the server and the cluster router
// share — and resolves what the request itself asks for (see
// wireOptions). needSQL is false on the statement route, whose SQL was
// fixed at prepare time.
func DecodeQuery(w http.ResponseWriter, r *http.Request, needSQL bool) (QueryRequest, reqopt.Options, error) {
	var req QueryRequest
	if err := decodeBody(w, r, maxQueryBody, &req); err != nil {
		return req, reqopt.Options{}, err
	}
	if needSQL && strings.TrimSpace(req.SQL) == "" {
		return req, reqopt.Options{}, errors.New("missing sql")
	}
	ro, err := wireOptions(r, bodyOptions(&req))
	return req, ro, err
}

// DecodeModel decodes the body of POST /model, its Tenant resolved the
// way every route resolves it (X-Raven-Tenant over the body field).
func DecodeModel(w http.ResponseWriter, r *http.Request) (ModelRequest, error) {
	var req ModelRequest
	if err := decodeBody(w, r, maxModelBody, &req); err != nil {
		return req, err
	}
	if req.Name == "" || len(req.Data) == 0 {
		return req, errors.New("missing model name or data")
	}
	ro, err := wireOptions(r, reqopt.Options{Tenant: req.Tenant})
	req.Tenant = ro.Tenant
	return req, err
}

// decodeBody decodes at most limit bytes of r's body into v, refusing
// unknown fields: a field this protocol does not have is a 400 naming
// it, never silently ignored.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
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

// bodyOptions lifts the JSON body's per-request fields into their
// reqopt layer. The body fields (tenant/no_cache/timeout_ms/
// options.parallelism) are aliases of the X-Raven-* headers — one
// surface, two carriers.
func bodyOptions(req *QueryRequest) reqopt.Options {
	o := reqopt.Options{Tenant: req.Tenant, NoCache: req.NoCache}
	if req.TimeoutMillis > 0 {
		o.Timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
	}
	if req.Options != nil && req.Options.Parallelism > 0 {
		o.DOP = req.Options.Parallelism
	}
	return o
}

// wireOptions resolves what a request itself asks for: the X-Raven-*
// headers over its body layer, with the untrusted knobs clamped. Headers
// win: a trusted fronting proxy tags clients that cannot be trusted to
// tag themselves. A replica layers the statement's and the server's
// defaults below it (Server.resolve); the cluster router routes by its
// tenant.
func wireOptions(r *http.Request, body reqopt.Options) (reqopt.Options, error) {
	hdr, err := reqopt.FromHeaders(r.Header)
	if err != nil {
		return reqopt.Options{}, err
	}
	return reqopt.Resolve(hdr, body).Clamp(), nil
}

// resolve completes a request's options below its own layer: the
// per-statement layer (stmt, may be zero), then the server default.
func (s *Server) resolve(ro, stmt reqopt.Options) reqopt.Options {
	return reqopt.Resolve(ro, stmt, reqopt.Options{Timeout: s.opts.DefaultTimeout}).Clamp()
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteError(w, raven.ErrDraining)
		return
	}
	req, ro, err := DecodeQuery(w, r, true)
	if err != nil {
		WriteError(w, err)
		return
	}
	ro = s.resolve(ro, reqopt.Options{})
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
			WriteError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, ExecResponse{OK: true})
		return
	}

	s.queries.Add(1)
	var rows *raven.Rows
	if len(req.Params) > 0 {
		// Parameterized ad-hoc query: the prepare-surface compile (typed
		// @var binding) runs inside admission, so a burst of distinct
		// parameterized texts cannot oversubscribe the CPU on compiles.
		// A client repeating one text should /prepare it instead.
		rows, err = s.db.QueryContextParams(ctx, req.SQL, opts, paramList(req.Params)...)
		if err != nil && strings.Contains(err.Error(), "must not mutate") {
			err = errors.New("parameterized query scripts must contain only DECLAREs and a single SELECT; run DDL/INSERT in a separate call without params")
		}
	} else {
		rows, err = s.db.QueryContextWithOptions(ctx, req.SQL, opts)
	}
	if err != nil {
		WriteError(w, err)
		return
	}
	streamRows(w, rows)
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteError(w, raven.ErrDraining)
		return
	}
	req, ro, err := DecodeQuery(w, r, true)
	if err != nil {
		WriteError(w, err)
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
	ro = s.resolve(ro, reqopt.Options{})
	ctx, cancel := ro.WithTimeout(r.Context())
	defer cancel()
	opts := req.Options.engine()
	ro.Apply(&opts)
	st, err := s.db.PrepareContextWithOptions(ctx, req.SQL, opts)
	if err != nil {
		WriteError(w, err)
		return
	}
	id, err := s.reg.Register("", &stmtreg.Entry{
		Stmt: st,
		Opts: reqopt.Options{Tenant: ro.Tenant},
	})
	if err != nil {
		writeStmtLimit(w)
		return
	}
	WriteJSON(w, http.StatusOK, PrepareResponse{ID: id, Params: st.Params()})
}

func writeStmtLimit(w http.ResponseWriter) {
	WriteJSON(w, http.StatusTooManyRequests, ErrorLine{Error: "prepared-statement limit reached; DELETE unused statements"})
}

func (s *Server) handleStmtQuery(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteError(w, raven.ErrDraining)
		return
	}
	e, err := s.reg.Get(r.PathValue("id"))
	if err != nil {
		WriteError(w, err) // 404 via the shared error table
		return
	}
	req, ro, err := DecodeQuery(w, r, false)
	if err != nil {
		WriteError(w, err)
		return
	}
	// Per-execution options: headers > body > the statement's registered
	// layer. The context tag wins inside the engine over the Stmt's
	// prepare-time options, so overrides actually take effect on the
	// warm path; a Stmt's options were fixed at prepare time, so the DOP
	// and no_cache travel by context too.
	ro = s.resolve(ro, e.Opts)
	ctx, cancel := ro.WithTimeout(r.Context())
	defer cancel()
	s.queries.Add(1)
	rows, err := e.Stmt.QueryContext(ro.Context(ctx), paramList(req.Params)...)
	if err != nil {
		WriteError(w, err)
		return
	}
	streamRows(w, rows)
}

func (s *Server) handleStmtDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Remove(r.PathValue("id")); err != nil {
		WriteError(w, err) // 404 via the shared error table
		return
	}
	WriteJSON(w, http.StatusOK, ExecResponse{OK: true})
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
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	load := s.db.SchedulerLoad()
	h := Health{
		Status:         "ok",
		CatalogVersion: s.db.CatalogVersion(),
		Queue:          load.Waiting,
		Active:         load.Active,
	}
	// Lame-duck counts: probes must see draining while queries still run,
	// so routers stop routing before anything is refused.
	status := http.StatusOK
	if s.Draining() {
		h.Status, status = "draining", http.StatusServiceUnavailable
	}
	WriteJSON(w, status, h)
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
		WriteError(w, raven.ErrDraining)
		return
	}
	req, err := DecodeModel(w, r)
	if err != nil {
		WriteError(w, err)
		return
	}
	p, err := ml.Unmarshal(req.Data)
	if err != nil {
		WriteError(w, fmt.Errorf("bad model payload: %w", err))
		return
	}
	ctx, cancel := reqopt.Options{Timeout: s.opts.DefaultTimeout}.WithTimeout(r.Context())
	defer cancel()
	if err := s.db.StoreModelContext(raven.ContextWithTenant(ctx, req.Tenant), req.Name, p); err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, ExecResponse{OK: true})
}

// ---- streaming ----

// streamRows writes the NDJSON stream: a header object, one array per
// row, and a trailer (or {"error": ...} if the stream broke mid-way).
// The first batch is fetched before the status line commits, so a query
// that dies before producing anything still gets a real error status;
// after that every failure ends the stream in an error line. A batch is
// written and then flushed only if another follows, so a one-batch
// result (a point lookup, a cache hit) leaves in one write, sized by
// net/http up to 2 KiB, like pgwire's one flush per Sync. The cost: in
// a longer stream batch k reaches the client once batch k+1 exists.
func streamRows(w http.ResponseWriter, rows *raven.Rows) {
	defer rows.Close()
	b := rows.NextBatch()
	if b == nil && rows.Err() != nil {
		WriteError(w, rows.Err())
		return
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
	for b != nil {
		if *buf, err = writeBatch(w, *buf, b); err != nil {
			break
		}
		n += b.Len()
		if b = rows.NextBatch(); b != nil {
			http.NewResponseController(w).Flush()
		}
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
