package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"raven/internal/server"
	"raven/internal/server/reqopt"
	"raven/internal/sql"
)

// The router's fixed tuning: it proxies, and the replicas own every
// setting worth changing per deployment. Retries take the client
// policy (server.RetryAttempts tries, jittered exponential backoff).
const (
	// probeInterval is the reconciler's base tick; each tick is jittered
	// ±25% so probe bursts never synchronize.
	probeInterval = 250 * time.Millisecond
	// probeTimeout bounds one health probe. Repair replays triggered by
	// a probe run under applyTimeout per entry instead, so a replica
	// with a long log to catch up on is not required to do it inside
	// one probe budget.
	probeTimeout = 2 * time.Second
	// failThreshold is how many consecutive probe failures mark a
	// member down (one blip is a restarting listener).
	failThreshold = 2
	// spillQueueDepth: when the home replica's probed admission queue is
	// at least this deep, the tenant's queries spill to the least-loaded
	// healthy replica instead (affinity is a warm-cache optimization,
	// not a correctness constraint).
	spillQueueDepth = 4
	// applyTimeout bounds applying a single replication-log entry to one
	// replica — fan-out and reconciler repair both. Slow entries (a long
	// TRAIN, a large model upload) need a budget decoupled from probe
	// cadence and clientTimeout.
	applyTimeout = 2 * time.Minute
	// clientTimeout bounds probe/replication requests. Routed queries are
	// bounded by the caller's own deadline instead.
	clientTimeout = 5 * time.Second
)

// Router fronts N ravenserved replicas with the replica wire protocol:
// POST /query, /prepare, /stmt/{id}/query, DELETE /stmt/{id}, POST
// /model, GET /healthz and GET /stats (the last aggregated across the
// cluster). Reads route by tenant affinity with spill-over and retry;
// side effects replicate to every member through the ordered log.
// Create with New, register replicas with AddMember, run the reconciler
// with Start, serve Handler().
type Router struct {
	mux *http.ServeMux

	mu      sync.Mutex
	members map[string]*member
	names   []string // sorted member names (rank input)
	log     []logEntry
	logSeq  uint64
	stmts   map[string]*routerStmt
	nextID  uint64

	// replMu serializes replications: validate-on-one, append, fan-out
	// is one critical section, so the validating replica's position and
	// the new entry's seq cannot be interleaved by a concurrent DDL.
	replMu sync.Mutex

	stop     chan struct{}
	loopDone chan struct{}
	started  atomic.Bool
	closed   atomic.Bool

	routed, spilled, retried atomic.Uint64
	reprepared, repairs      atomic.Uint64
	skipped                  atomic.Uint64
}

// routerStmt is a router-side prepared statement: the prepare request
// and its request-option headers are kept verbatim and replayed lazily,
// once per replica, on first use there (and again after a replica
// restart wipes its registry). tenant is the resolved prepare-time
// tenant, the affinity of executions that name none.
type routerStmt struct {
	id     string
	req    server.QueryRequest
	hdr    http.Header
	tenant string
	// params is the compiled parameter list, identical on every replica;
	// set exactly once by whichever prepare lands first.
	paramsOnce sync.Once
	params     []string
}

// New builds a Router. Call AddMember for each replica, then Start.
func New() *Router {
	rt := &Router{
		members:  make(map[string]*member),
		stmts:    make(map[string]*routerStmt),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", rt.handleQuery)
	mux.HandleFunc("POST /prepare", rt.handlePrepare)
	mux.HandleFunc("POST /stmt/{id}/query", rt.handleStmtQuery)
	mux.HandleFunc("DELETE /stmt/{id}", rt.handleStmtDelete)
	mux.HandleFunc("POST /model", rt.handleStoreModel)
	mux.HandleFunc("GET /stats", rt.handleStats)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux = mux
	return rt
}

// Handler returns the router's route table.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Start runs one reconcile pass, so the members registered so far are
// routable when it returns, then launches the reconciler loop.
// Idempotent.
func (rt *Router) Start() {
	if rt.started.CompareAndSwap(false, true) {
		rt.reconcile(context.Background())
		go rt.run()
	}
}

// Close stops the reconciler loop and waits for it. Idempotent.
func (rt *Router) Close() {
	if rt.closed.CompareAndSwap(false, true) {
		close(rt.stop)
		if !rt.started.Load() {
			close(rt.loopDone)
			return
		}
		<-rt.loopDone
	}
}

// AddMember registers a replica under a stable name. The member starts
// Unknown; Start, ProbeNow or the next probe tick makes it routable.
func (rt *Router) AddMember(name, base string) error {
	m := &member{
		name:  name,
		base:  strings.TrimRight(base, "/"),
		c:     &server.Client{Base: strings.TrimRight(base, "/"), Timeout: clientTimeout},
		stmts: make(map[string]string),
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, dup := rt.members[name]; dup {
		return fmt.Errorf("member %q already registered", name)
	}
	rt.members[name] = m
	rt.names = append(rt.names, name)
	sort.Strings(rt.names)
	return nil
}

// snapshotMembers returns the registered members in name order.
func (rt *Router) snapshotMembers() []*member {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]*member, 0, len(rt.names))
	for _, n := range rt.names {
		out = append(out, rt.members[n])
	}
	return out
}

// HomeFor returns the name of a tenant's home replica (rank 0 over the
// full member set, routable or not). Tests use it to construct tenants
// pinned to a chosen replica.
func (rt *Router) HomeFor(tenant string) string {
	rt.mu.Lock()
	names := append([]string(nil), rt.names...)
	rt.mu.Unlock()
	if len(names) == 0 {
		return ""
	}
	return rankMembers(tenant, names)[0]
}

// targetsFor returns the routable members for a tenant in try-order:
// the rendezvous home first, unless its probed queue is saturated, in
// which case the least-loaded routable member leads (spill-over) and
// the rest follow in rank order as retry fallbacks.
func (rt *Router) targetsFor(tenant string) []*member {
	rt.mu.Lock()
	names := append([]string(nil), rt.names...)
	members := make(map[string]*member, len(rt.members))
	for n, m := range rt.members {
		members[n] = m
	}
	rt.mu.Unlock()

	var routable []*member
	for _, n := range rankMembers(tenant, names) {
		if m := members[n]; m != nil && m.routable() {
			routable = append(routable, m)
		}
	}
	if len(routable) < 2 {
		return routable
	}
	home := routable[0]
	if home.lastHealth().Queue < spillQueueDepth {
		return routable
	}
	// Home saturated: lead with the least-loaded routable member
	// (probed queue plus what this router has in flight there — the
	// probe can be a tick stale).
	best, bestLoad := 0, int64(1<<62)
	for i, m := range routable {
		load := int64(m.lastHealth().Queue) + m.inflight.Load()
		if load < bestLoad {
			best, bestLoad = i, load
		}
	}
	if best != 0 {
		rt.spilled.Add(1)
		routable[0], routable[best] = routable[best], routable[0]
	}
	return routable
}

// ---- read path: streaming proxy with retry ----

// flushWriter flushes after every write so NDJSON rows stream through
// the router instead of buffering.
type flushWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}

// attempt is one upstream try: the response (any status) or a
// transport error.
type attempt struct {
	m      *member
	resp   *http.Response
	err    error
	cancel context.CancelFunc
}

func (a *attempt) discard() {
	if a.resp != nil {
		io.Copy(io.Discard, a.resp.Body)
		a.resp.Body.Close()
	}
	if a.cancel != nil {
		a.cancel()
	}
}

// tryMember issues the request to one member and waits for the
// response header. The client's request-option headers (reqopt.Headers)
// are forwarded: the replica gives them precedence over the body
// exactly so a fronting proxy can tag untrusted clients, and this
// router is that proxy — dropping one would route by the header tenant
// while the replica admits, bills, caches and bounds the request by the
// body alone.
func (rt *Router) tryMember(ctx context.Context, m *member, path string, body []byte, hdr http.Header) attempt {
	actx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(actx, http.MethodPost, m.base+path, bytes.NewReader(body))
	if err != nil {
		cancel()
		return attempt{m: m, err: err, cancel: func() {}}
	}
	req.Header.Set("Content-Type", "application/json")
	reqopt.CopyHeaders(req.Header, hdr)
	m.inflight.Add(1)
	resp, err := http.DefaultClient.Do(req)
	m.inflight.Add(-1)
	return attempt{m: m, resp: resp, err: err, cancel: cancel}
}

// retryableStatus: pre-execution admission rejections. A 503 from a
// draining replica and a 429 from a full queue both mean the query was
// refused before any work ran, so re-routing cannot duplicate it.
func retryableStatus(code int) bool {
	return code == http.StatusServiceUnavailable || code == http.StatusTooManyRequests
}

// errNoReplicas answers a read or prepare no member can take.
var errNoReplicas = &server.HTTPError{Status: http.StatusServiceUnavailable, Msg: "no healthy replicas"}

// badGateway gives a failure that carries no replica verdict (a
// transport error, nothing reachable) the status 502; a replica's own
// HTTP verdict keeps its status.
func badGateway(err error) error {
	var he *server.HTTPError
	if errors.As(err, &he) {
		return err
	}
	return &server.HTTPError{Status: http.StatusBadGateway, Msg: err.Error()}
}

// proxyRead routes a read to the tenant's targets with per-replica
// retry, then streams the winning response through. pathFor resolves
// the member-specific path — the prepared path differs per replica —
// and may error (prepare failed); notFound, if set, is called when a
// member answers 404 so the caller can invalidate a cached statement id
// before the retry.
func (rt *Router) proxyRead(w http.ResponseWriter, r *http.Request, tenant string, req server.QueryRequest,
	pathFor func(ctx context.Context, m *member) (string, error), notFound func(m *member)) {

	targets := rt.targetsFor(tenant)
	if len(targets) == 0 {
		server.WriteError(w, errNoReplicas)
		return
	}
	rt.routed.Add(1)
	ctx := r.Context()
	body, _ := json.Marshal(req) // lossless: the decoder refused any field QueryRequest lacks
	// A cluster-wide outage is worth one try everywhere.
	attempts := max(server.RetryAttempts, len(targets))

	var last attempt
	for i := 0; i < attempts; i++ {
		if i > 0 {
			rt.retried.Add(1)
			t := time.NewTimer(server.RetryBackoff(i - 1))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				server.WriteError(w, ctx.Err())
				return
			}
		}
		m := targets[i%len(targets)]
		path, err := pathFor(ctx, m)
		if err != nil {
			last = attempt{m: m, err: err}
			if !server.Transient(err) {
				break
			}
			continue
		}
		a := rt.tryMember(ctx, m, path, body, r.Header)
		switch {
		case a.err != nil:
			a.discard()
			last = attempt{m: m, err: a.err}
			if ctx.Err() != nil {
				server.WriteError(w, ctx.Err())
				return
			}
			continue
		case a.resp.StatusCode == http.StatusNotFound && notFound != nil:
			a.discard()
			notFound(m)
			last = attempt{m: m, err: &server.HTTPError{Status: 404, Msg: "statement missing on replica"}}
			continue
		case retryableStatus(a.resp.StatusCode):
			a.discard()
			last = attempt{m: m, err: &server.HTTPError{Status: a.resp.StatusCode, Msg: a.resp.Status}}
			continue
		default:
			rt.relay(w, a)
			return
		}
	}
	// All attempts failed; surface the last error with a real status.
	server.WriteError(w, badGateway(fmt.Errorf("replica %s: %w", last.m.name, last.err)))
}

// relay copies the upstream response through, flushing per write so
// row streams stay streams.
func (rt *Router) relay(w http.ResponseWriter, a attempt) {
	defer a.resp.Body.Close()
	defer a.cancel()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := a.resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Raven-Replica", a.m.name)
	w.WriteHeader(a.resp.StatusCode)
	fw := flushWriter{w: w}
	if f, ok := w.(http.Flusher); ok {
		fw.f = f
	}
	a.m.inflight.Add(1)
	io.Copy(fw, a.resp.Body)
	a.m.inflight.Add(-1)
}

// ---- handlers ----

// The handlers decode bodies and X-Raven-* headers with the replica's
// own code (server.DecodeQuery, server.DecodeModel), so the router
// accepts, refuses and routes exactly what a replica would.

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, ro, err := server.DecodeQuery(w, r, true)
	if err != nil {
		server.WriteError(w, err)
		return
	}
	// Side-effect-only scripts replicate to every member; a read-only
	// script routes to one. The same classifier the replicas use, so
	// router and replica never disagree. A script mixing DDL and a
	// SELECT would apply its side effects on only one replica — refuse
	// it at the router rather than silently diverge the cluster.
	switch sql.ClassifyScript(req.SQL) {
	case sql.ScriptSideEffectsOnly:
		if err := rt.replicate(r.Context(), logEntry{kind: entryScript, sql: req.SQL, tenant: ro.Tenant}); err != nil {
			server.WriteError(w, badGateway(err))
			return
		}
		server.WriteJSON(w, http.StatusOK, server.ExecResponse{OK: true})
		return
	case sql.ScriptMixed:
		server.WriteError(w, errors.New("a clustered script cannot mix side effects with a SELECT: run the DDL/INSERT script first (it replicates to all replicas), then the query"))
		return
	}
	pathFor := func(context.Context, *member) (string, error) { return "/query", nil }
	rt.proxyRead(w, r, ro.Tenant, req, pathFor, nil)
}

func (rt *Router) handleStoreModel(w http.ResponseWriter, r *http.Request) {
	req, err := server.DecodeModel(w, r)
	if err != nil {
		server.WriteError(w, err)
		return
	}
	if err := rt.replicate(r.Context(), logEntry{kind: entryModel, name: req.Name, data: req.Data, tenant: req.Tenant}); err != nil {
		server.WriteError(w, badGateway(err))
		return
	}
	server.WriteJSON(w, http.StatusOK, server.ExecResponse{OK: true})
}

func (rt *Router) handlePrepare(w http.ResponseWriter, r *http.Request) {
	req, ro, err := server.DecodeQuery(w, r, true)
	if err != nil {
		server.WriteError(w, err)
		return
	}
	// Register the statement, then prepare it eagerly on the tenant's
	// home replica: compile errors and the parameter list surface now,
	// synchronously, like they would against a single replica. Every
	// other replica prepares lazily on its first execution.
	rt.mu.Lock()
	rt.nextID++
	rs := &routerStmt{id: fmt.Sprintf("r%d", rt.nextID), req: req, hdr: r.Header.Clone(), tenant: ro.Tenant}
	rt.mu.Unlock()

	targets := rt.targetsFor(ro.Tenant)
	if len(targets) == 0 {
		server.WriteError(w, errNoReplicas)
		return
	}
	if _, err := rt.ensureStmt(r.Context(), targets[0], rs); err != nil {
		server.WriteError(w, badGateway(err))
		return
	}
	rt.mu.Lock()
	rt.stmts[rs.id] = rs
	rt.mu.Unlock()
	server.WriteJSON(w, http.StatusOK, server.PrepareResponse{ID: rs.id, Params: rs.params})
}

// ensureStmt returns the replica-side id of rs on m, preparing it
// there on first use. The member's stmtMu makes concurrent first
// executions prepare once.
func (rt *Router) ensureStmt(ctx context.Context, m *member, rs *routerStmt) (string, error) {
	m.stmtMu.Lock()
	defer m.stmtMu.Unlock()
	if id, ok := m.stmts[rs.id]; ok {
		return id, nil
	}
	var pr *server.PrepareResponse
	err := server.Retry(ctx, func() error {
		var perr error
		pr, perr = m.c.PrepareContext(ctx, rs.req, rs.hdr)
		return perr
	})
	if err != nil {
		return "", fmt.Errorf("prepare on %s: %w", m.name, err)
	}
	m.stmts[rs.id] = pr.ID
	rs.paramsOnce.Do(func() { rs.params = pr.Params })
	return pr.ID, nil
}

func (rt *Router) handleStmtQuery(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	rs := rt.stmts[r.PathValue("id")]
	rt.mu.Unlock()
	if rs == nil {
		server.WriteError(w, reqopt.ErrStmtNotFound)
		return
	}
	req, ro, err := server.DecodeQuery(w, r, false)
	if err != nil {
		server.WriteError(w, err)
		return
	}
	// Affinity: the execution's tenant if tagged, else the statement's.
	tenant := ro.Tenant
	if tenant == "" {
		tenant = rs.tenant
	}

	pathFor := func(ctx context.Context, m *member) (string, error) {
		id, err := rt.ensureStmt(ctx, m, rs)
		if err != nil {
			return "", err
		}
		return "/stmt/" + id + "/query", nil
	}
	// A 404 means the replica lost its registry (restart) or evicted
	// the statement: forget the cached id so the retry re-prepares —
	// transparent to the client.
	notFound := func(m *member) {
		m.stmtMu.Lock()
		delete(m.stmts, rs.id)
		m.stmtMu.Unlock()
		rt.reprepared.Add(1)
	}
	rt.proxyRead(w, r, tenant, req, pathFor, notFound)
}

func (rt *Router) handleStmtDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt.mu.Lock()
	rs := rt.stmts[id]
	delete(rt.stmts, id)
	rt.mu.Unlock()
	if rs == nil {
		server.WriteError(w, reqopt.ErrStmtNotFound)
		return
	}
	// Best-effort close on every replica that prepared it; a replica
	// that is down restarted anyway, which already wiped its registry.
	for _, m := range rt.snapshotMembers() {
		m.stmtMu.Lock()
		rid, ok := m.stmts[rs.id]
		delete(m.stmts, rs.id)
		m.stmtMu.Unlock()
		if ok {
			m.c.CloseStmtContext(r.Context(), rid)
		}
	}
	server.WriteJSON(w, http.StatusOK, server.ExecResponse{OK: true})
}

// ---- observability ----

// RouterStats is the router's own half of cluster stats.
type RouterStats struct {
	Members    int    `json:"members"`
	Healthy    int    `json:"healthy"`
	Routed     uint64 `json:"routed"`
	Spilled    uint64 `json:"spilled"`
	Retried    uint64 `json:"retried"`
	Reprepared uint64 `json:"reprepared"`
	Repairs    uint64 `json:"repairs"`
	LogEntries uint64 `json:"log_entries"`
	// LogSkipped counts entries a diverged replica could not apply
	// (terminal 4xx during replay) and was advanced past instead of
	// being wedged in degraded forever. Non-zero means replica state
	// has drifted from the log.
	LogSkipped uint64 `json:"log_skipped"`
	Statements int    `json:"statements"`
}

// MemberInfo is one replica's row in cluster stats.
type MemberInfo struct {
	Name        string                `json:"name"`
	Base        string                `json:"base"`
	State       string                `json:"state"`
	Health      server.Health         `json:"health"`
	AppliedSeq  uint64                `json:"applied_seq"`
	LastVersion uint64                `json:"last_version"`
	Inflight    int64                 `json:"inflight"`
	Stats       *server.StatsResponse `json:"stats,omitempty"`
	StatsError  string                `json:"stats_error,omitempty"`
}

// ClusterStats is the body of the router's GET /stats: the cluster
// aggregated, not one replica's view.
type ClusterStats struct {
	Router  RouterStats  `json:"router"`
	Members []MemberInfo `json:"members"`
}

// Stats aggregates the cluster: router counters plus, per member, its
// reconciler view and (for reachable members) a live /stats fetch.
func (rt *Router) Stats(ctx context.Context) ClusterStats {
	members := rt.snapshotMembers()
	infos := make([]MemberInfo, len(members))
	var wg sync.WaitGroup
	healthy := 0
	for i, m := range members {
		if m.routable() {
			healthy++
		}
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			m.applyMu.Lock()
			applied, version := m.appliedSeq.Load(), m.lastVersion
			m.applyMu.Unlock()
			info := MemberInfo{
				Name:        m.name,
				Base:        m.base,
				State:       m.getState().String(),
				Health:      m.lastHealth(),
				AppliedSeq:  applied,
				LastVersion: version,
				Inflight:    m.inflight.Load(),
			}
			if m.getState() != StateDown {
				if st, err := m.c.StatsContext(ctx); err == nil {
					info.Stats = st
				} else {
					info.StatsError = err.Error()
				}
			}
			infos[i] = info
		}(i, m)
	}
	wg.Wait()
	rt.mu.Lock()
	stmts := len(rt.stmts)
	entries := rt.logSeq
	rt.mu.Unlock()
	return ClusterStats{
		Router: RouterStats{
			Members:    len(members),
			Healthy:    healthy,
			Routed:     rt.routed.Load(),
			Spilled:    rt.spilled.Load(),
			Retried:    rt.retried.Load(),
			Reprepared: rt.reprepared.Load(),
			Repairs:    rt.repairs.Load(),
			LogEntries: entries,
			LogSkipped: rt.skipped.Load(),
			Statements: stmts,
		},
		Members: infos,
	}
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), probeTimeout)
	defer cancel()
	server.WriteJSON(w, http.StatusOK, rt.Stats(ctx))
}

// handleHealthz reports the router's own health: ok while at least one
// member is routable. The aggregate queue/active gauges let a
// load balancer in front of several routers spill between them the
// same way routers spill between replicas.
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := server.Health{Status: "ok"}
	healthy := 0
	for _, m := range rt.snapshotMembers() {
		if !m.routable() {
			continue
		}
		healthy++
		lh := m.lastHealth()
		h.Queue += lh.Queue
		h.Active += lh.Active
		if lh.CatalogVersion > h.CatalogVersion {
			h.CatalogVersion = lh.CatalogVersion
		}
	}
	status := http.StatusOK
	if healthy == 0 {
		h.Status = "unavailable"
		status = http.StatusServiceUnavailable
	}
	server.WriteJSON(w, status, h)
}
