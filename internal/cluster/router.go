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

	"raven/internal/rescache"
	"raven/internal/server"
	"raven/internal/sql"
)

// Options tunes the router.
type Options struct {
	// ProbeInterval is the reconciler's base tick (default 250ms); each
	// tick is jittered ±25% so probe bursts never synchronize.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (default 2s). Repair replays
	// triggered by a probe run under ApplyTimeout per entry instead, so
	// a replica with a long log to catch up on is not required to do it
	// inside one probe budget.
	ProbeTimeout time.Duration
	// ApplyTimeout bounds applying a single replication-log entry to one
	// replica (default 2m) — fan-out and reconciler repair both. Slow
	// entries (a long TRAIN, a large model upload) need a budget
	// decoupled from probe cadence and the general ClientTimeout.
	ApplyTimeout time.Duration
	// FailThreshold is how many consecutive probe failures mark a
	// member down (default 2 — one blip is a restarting listener).
	FailThreshold int
	// SpillQueueDepth: when the home replica's probed admission queue is
	// at least this deep, the tenant's queries spill to the least-loaded
	// healthy replica instead (default 4; affinity is a warm-cache
	// optimization, not a correctness constraint).
	SpillQueueDepth int
	// Retry is the per-replica retry policy for idempotent reads and
	// replication (zero value = server.DefaultRetry).
	Retry server.RetryPolicy
	// Hedge enables hedged reads: if a routed query's response header
	// has not arrived within the observed p99 latency, the same request
	// is raced on the next-ranked healthy replica and the first response
	// wins. Reads only — side effects never hedge.
	Hedge bool
	// HedgeMinSamples gates hedging until the latency window has seen
	// enough reads to estimate a p99 (default 16).
	HedgeMinSamples int
	// ClientTimeout bounds probe/replication requests (default 5s).
	// Routed queries are bounded by the caller's own deadline instead.
	ClientTimeout time.Duration
	// ResultCacheBytes enables the router's response cache: that many
	// bytes of serialized read responses, keyed by (replication-log seq,
	// tenant, statement, parameters) and cleared on every log append. A
	// hit is served from the router without touching a replica — no
	// round-trip, no retry, no hedge. 0 leaves it off.
	ResultCacheBytes int64
	// HTTP overrides the transport (tests); nil uses a dedicated client.
	HTTP *http.Client
}

func (o Options) withDefaults() Options {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.ApplyTimeout <= 0 {
		o.ApplyTimeout = 2 * time.Minute
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 2
	}
	if o.SpillQueueDepth <= 0 {
		o.SpillQueueDepth = 4
	}
	if o.HedgeMinSamples <= 0 {
		o.HedgeMinSamples = 16
	}
	if o.ClientTimeout <= 0 {
		o.ClientTimeout = 5 * time.Second
	}
	if o.HTTP == nil {
		o.HTTP = &http.Client{}
	}
	return o
}

// Router fronts N ravenserved replicas with the replica wire protocol:
// POST /query, /prepare, /stmt/{id}/query, DELETE /stmt/{id}, POST
// /model, GET /healthz and GET /stats (the last aggregated across the
// cluster). Reads route by tenant affinity with spill-over, retry and
// optional hedging; side effects replicate to every member through the
// ordered log. Create with New, register replicas with AddMember, run
// the reconciler with Start, serve Handler().
type Router struct {
	opts Options
	mux  *http.ServeMux

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

	lat latWindow

	stop     chan struct{}
	loopDone chan struct{}
	started  atomic.Bool
	closed   atomic.Bool

	routed, spilled, retried atomic.Uint64
	hedged, hedgeWins        atomic.Uint64
	reprepared, repairs      atomic.Uint64
	skipped                  atomic.Uint64

	// respCache holds fully-buffered read responses (nil = disabled).
	// Entries validate against the replication-log seq they were captured
	// under, and the whole cache is cleared on every log append — the
	// router's side effects are exactly the log, so "log unchanged" is
	// "every replica read set unchanged".
	respCache *rescache.Cache[*cachedResponse]
}

// cachedResponse is one buffered upstream read response. The log seq it
// was captured under lives in its key, not here — see respCacheKey.
type cachedResponse struct {
	replica     string
	contentType string
	body        []byte
}

// routerStmt is a router-side prepared statement: the prepare request
// is kept verbatim and replayed lazily, once per replica, on first use
// there (and again after a replica restart wipes its registry).
type routerStmt struct {
	id  string
	req server.QueryRequest
	// params is the compiled parameter list, identical on every replica;
	// set exactly once by whichever prepare lands first.
	paramsOnce sync.Once
	params     []string
}

// New builds a Router. Call AddMember for each replica, then Start.
func New(opts Options) *Router {
	rt := &Router{
		opts:     opts.withDefaults(),
		members:  make(map[string]*member),
		stmts:    make(map[string]*routerStmt),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	if rt.opts.ResultCacheBytes > 0 {
		rt.respCache = rescache.New[*cachedResponse](rt.opts.ResultCacheBytes, 0)
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

// Start launches the reconciler loop. Idempotent.
func (rt *Router) Start() {
	if rt.started.CompareAndSwap(false, true) {
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
// Unknown; run ProbeNow (or wait a probe interval) to make it routable.
func (rt *Router) AddMember(name, base string) error {
	m := &member{
		name:  name,
		base:  strings.TrimRight(base, "/"),
		c:     &server.Client{Base: strings.TrimRight(base, "/"), HTTP: rt.opts.HTTP, Timeout: rt.opts.ClientTimeout},
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
	if home.lastHealth().Queue < rt.opts.SpillQueueDepth {
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

// requestTenant mirrors the server's precedence: header beats body.
func requestTenant(r *http.Request, body string) string {
	if h := r.Header.Get("X-Raven-Tenant"); h != "" {
		return h
	}
	return body
}

// ---- response cache ----

// respCacheKey builds a read's cache identity. The replication-log seq
// leads the key (captured at request start, before any replica
// executes): the router's only side-effect channel is the log, so a
// response captured under seq N is valid exactly while the head is
// still N — an append mid-flight strands the entry under a key nothing
// will ever look up again. Fields are length-prefixed so values cannot
// smuggle separators and collide two requests onto one key.
func respCacheKey(seq uint64, kind, tenant, stmt string, params map[string]string, opts *server.QueryOptions) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "s%d|%s|%d:%s|%d:%s", seq, kind, len(tenant), tenant, len(stmt), stmt)
	names := make([]string, 0, len(params))
	for k := range params {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&sb, "|%d:%s=%d:%s", len(k), k, len(params[k]), params[k])
	}
	if opts != nil {
		if b, err := json.Marshal(opts); err == nil {
			sb.WriteString("|o=")
			sb.Write(b)
		}
	}
	return sb.String()
}

// respCacheServe writes a cached response if one exists for key,
// reporting whether it did. A hit costs no replica round-trip, no
// retry and no hedge; the X-Raven-Cache header makes it visible.
func (rt *Router) respCacheServe(w http.ResponseWriter, key string) bool {
	e, ok := rt.respCache.Get(key, nil)
	if !ok {
		return false
	}
	w.Header().Set("Content-Type", e.contentType)
	w.Header().Set("X-Raven-Replica", e.replica)
	w.Header().Set("X-Raven-Cache", "hit")
	w.WriteHeader(http.StatusOK)
	w.Write(e.body)
	return true
}

// cappedTee relays to w while accumulating a copy, abandoning the copy
// (not the relay) the moment it crosses cap — an oversize response
// streams through at full speed without the router holding all of it.
type cappedTee struct {
	w          io.Writer
	buf        bytes.Buffer
	cap        int64
	overflowed bool
}

func (t *cappedTee) Write(p []byte) (int, error) {
	if !t.overflowed {
		if int64(t.buf.Len()+len(p)) > t.cap {
			t.overflowed = true
			t.buf.Reset()
		} else {
			t.buf.Write(p)
		}
	}
	return t.w.Write(p)
}

// streamComplete reports whether a buffered NDJSON read response ended
// in a trailer line. A stream that broke after the 200 status was on
// the wire ends in an {"error": ...} line instead; caching that would
// replay the failure from then on.
func streamComplete(body []byte) bool {
	b := bytes.TrimRight(body, "\r\n \t")
	i := bytes.LastIndexByte(b, '\n')
	return bytes.HasPrefix(b[i+1:], []byte(`{"rows"`))
}

// ---- read path: streaming proxy with retry + hedging ----

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
	// applied is the member's replication progress snapshotted before
	// the request was dispatched. A response is only cacheable when this
	// is at least the log seq in its cache key: during a write fan-out
	// the log head has already moved but a healthy-looking member may
	// not have applied the new entry yet, and a read it serves in that
	// window is pre-write data that must not be cached under the
	// post-write seq.
	applied uint64
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
// response header. The client's admission headers are forwarded: the
// replica gives X-Raven-Tenant / X-Raven-Priority precedence over the
// body exactly so a fronting proxy can tag untrusted clients, and this
// router is that proxy — dropping them would route by the header tenant
// while the replica admits and bills the (often empty) body tenant.
func (rt *Router) tryMember(ctx context.Context, m *member, path string, body []byte, hdr http.Header) attempt {
	actx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(actx, http.MethodPost, m.base+path, bytes.NewReader(body))
	if err != nil {
		cancel()
		return attempt{m: m, err: err, cancel: func() {}}
	}
	req.Header.Set("Content-Type", "application/json")
	if hdr != nil {
		for _, h := range []string{"X-Raven-Tenant", "X-Raven-Priority"} {
			if v := hdr.Get(h); v != "" {
				req.Header.Set(h, v)
			}
		}
	}
	applied := m.appliedSeq.Load()
	m.inflight.Add(1)
	resp, err := rt.opts.HTTP.Do(req)
	m.inflight.Add(-1)
	return attempt{m: m, resp: resp, err: err, cancel: cancel, applied: applied}
}

// retryableStatus: pre-execution admission rejections. A 503 from a
// draining replica and a 429 from a full queue both mean the query was
// refused before any work ran, so re-routing cannot duplicate it.
func retryableStatus(code int) bool {
	return code == http.StatusServiceUnavailable || code == http.StatusTooManyRequests
}

// proxyRead routes a read to the tenant's targets with per-replica
// retry and (optionally) a hedged first attempt, then streams the
// winning response through. pathFor resolves the member-specific path —
// the prepared path differs per replica — and may error (prepare
// failed); notFound, if set, is called when a member answers 404 so the
// caller can invalidate a cached statement id before the retry.
// cacheKey, when non-empty, asks relay to capture the winning response
// into the router's response cache; cacheSeq is the log seq baked into
// that key (relay refuses to cache a response from a member that had
// not yet applied up to it).
func (rt *Router) proxyRead(w http.ResponseWriter, r *http.Request, tenant string, body []byte,
	pathFor func(ctx context.Context, m *member) (string, error), notFound func(m *member), cacheKey string, cacheSeq uint64) {

	targets := rt.targetsFor(tenant)
	if len(targets) == 0 {
		writeJSON(w, http.StatusServiceUnavailable, server.ErrorLine{Error: "no healthy replicas"})
		return
	}
	rt.routed.Add(1)
	ctx := r.Context()
	policy := rt.opts.Retry
	attempts := policy.MaxAttempts
	if attempts < 1 {
		attempts = server.DefaultRetry.MaxAttempts
	}
	if attempts < len(targets) {
		attempts = len(targets) // a cluster-wide outage is worth one try everywhere
	}

	var last attempt
	for i := 0; i < attempts; i++ {
		if i > 0 {
			rt.retried.Add(1)
			t := time.NewTimer(policy.Backoff(i - 1))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				writeJSON(w, 499, server.ErrorLine{Error: ctx.Err().Error()})
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
		start := time.Now()
		a := rt.tryMember(ctx, m, path, body, r.Header)
		if i == 0 && a.err == nil && a.resp != nil && a.resp.StatusCode == http.StatusOK {
			rt.lat.record(time.Since(start))
		}
		switch {
		case a.err != nil:
			a.discard()
			last = attempt{m: m, err: a.err}
			if ctx.Err() != nil {
				writeJSON(w, 499, server.ErrorLine{Error: ctx.Err().Error()})
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
			rt.relay(w, a, cacheKey, cacheSeq)
			return
		}
	}
	// All attempts failed; surface the last error with a real status.
	status := http.StatusBadGateway
	var he *server.HTTPError
	if errors.As(last.err, &he) {
		status = he.Status
	}
	msg := "no attempt completed"
	if last.err != nil {
		msg = last.err.Error()
	}
	if last.m != nil {
		msg = fmt.Sprintf("replica %s: %s", last.m.name, msg)
	}
	writeJSON(w, status, server.ErrorLine{Error: msg})
}

// relay copies the upstream response through, flushing per write so
// row streams stay streams. A non-empty cacheKey tees the stream into
// the response cache — only a 200 that fits the per-entry cap, copied
// to completion (client still connected) and ending in a trailer line
// (no mid-stream error) is kept, and only when the serving member had
// applied the log at least up to cacheSeq before the request was
// dispatched. Without that gate, a read racing a write fan-out — log
// head already at N, this member still applying entry N — would
// capture pre-write data under the post-write key and serve it stale
// once the write acks.
func (rt *Router) relay(w http.ResponseWriter, a attempt, cacheKey string, cacheSeq uint64) {
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
	var tee *cappedTee
	var dst io.Writer = fw
	if rt.respCache != nil && cacheKey != "" && a.applied >= cacheSeq && a.resp.StatusCode == http.StatusOK {
		tee = &cappedTee{w: fw, cap: rt.respCache.EntryCap()}
		dst = tee
	}
	a.m.inflight.Add(1)
	_, err := io.Copy(dst, a.resp.Body)
	a.m.inflight.Add(-1)
	if tee != nil && err == nil && !tee.overflowed && streamComplete(tee.buf.Bytes()) {
		body := append([]byte(nil), tee.buf.Bytes()...)
		rt.respCache.Put(cacheKey, &cachedResponse{
			replica:     a.m.name,
			contentType: a.resp.Header.Get("Content-Type"),
			body:        body,
		}, int64(len(body)+len(cacheKey))+64)
	}
}

// hedgedFirst races the first attempt on two replicas when the primary
// is slower than the observed p99: fire on targets[0], wait hedgeDelay,
// fire on targets[1], take whichever returns a usable header first and
// cancel the other. Used only for the first attempt of reads — every
// later attempt is already a retry.
func (rt *Router) hedgedFirst(ctx context.Context, targets []*member, path0, path1 string, body []byte, hdr http.Header) attempt {
	delay := rt.lat.p99()
	results := make(chan attempt, 2)
	hctx, hcancel := context.WithCancel(ctx)
	launch := func(m *member, path string) {
		go func() {
			a := rt.tryMember(hctx, m, path, body, hdr)
			results <- a
		}()
	}
	launch(targets[0], path0)
	t := time.NewTimer(delay)
	var first attempt
	launched := 1
	select {
	case first = <-results:
		t.Stop()
	case <-t.C:
		rt.hedged.Add(1)
		launch(targets[1], path1)
		launched = 2
		first = <-results
	}
	usable := func(a attempt) bool {
		return a.err == nil && !retryableStatus(a.resp.StatusCode) && a.resp.StatusCode != http.StatusNotFound
	}
	if usable(first) {
		if launched == 2 && first.m == targets[1] {
			rt.hedgeWins.Add(1)
		}
		// Abandon the loser once it reports in; its context dies with
		// the winner's body copy, so no goroutine leaks past the copy.
		if launched == 2 {
			go func() {
				a := <-results
				a.discard()
			}()
		}
		first.cancel = hcancel
		return first
	}
	first.discard()
	if launched == 2 {
		second := <-results
		if usable(second) {
			if second.m == targets[1] {
				rt.hedgeWins.Add(1)
			}
			second.cancel = hcancel
			return second
		}
		second.discard()
	}
	hcancel()
	return attempt{m: first.m, err: firstErr(first)}
}

func firstErr(a attempt) error {
	if a.err != nil {
		return a.err
	}
	if a.resp != nil {
		return &server.HTTPError{Status: a.resp.StatusCode, Msg: a.resp.Status}
	}
	return errors.New("attempt failed")
}

// ---- handlers ----

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<22))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, server.ErrorLine{Error: err.Error()})
		return
	}
	var req server.QueryRequest
	if len(bytes.TrimSpace(body)) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, server.ErrorLine{Error: "bad request body: " + err.Error()})
			return
		}
	}
	if strings.TrimSpace(req.SQL) == "" {
		writeJSON(w, http.StatusBadRequest, server.ErrorLine{Error: "missing sql"})
		return
	}
	tenant := requestTenant(r, req.Tenant)

	// Side-effect-only scripts replicate to every member; a read-only
	// script routes to one. The same classifier the replicas use, so
	// router and replica never disagree. A script mixing DDL and a
	// SELECT would apply its side effects on only one replica — refuse
	// it at the router rather than silently diverge the cluster.
	switch sql.ClassifyScript(req.SQL) {
	case sql.ScriptSideEffectsOnly:
		if err := rt.replicate(r.Context(), logEntry{kind: entryScript, sql: req.SQL, tenant: tenant}); err != nil {
			writeJSON(w, replicateStatus(err), server.ErrorLine{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, server.ExecResponse{OK: true})
		return
	case sql.ScriptMixed:
		writeJSON(w, http.StatusBadRequest, server.ErrorLine{Error: "a clustered script cannot mix side effects with a SELECT: run the DDL/INSERT script first (it replicates to all replicas), then the query"})
		return
	}

	// Response cache: key under the log head as of now — before any
	// replica executes — so a side effect landing mid-flight strands the
	// captured entry instead of ever serving it stale. A hit returns
	// without touching targets, retry or hedging at all.
	var cacheKey string
	var cacheSeq uint64
	if rt.respCache != nil && !req.NoCache { // read-only, hence cacheable: the engine's own gate
		cacheSeq = rt.logHead()
		cacheKey = respCacheKey(cacheSeq, "q", tenant, req.SQL, req.Params, req.Options)
		if rt.respCacheServe(w, cacheKey) {
			return
		}
	}

	pathFor := func(context.Context, *member) (string, error) { return "/query", nil }
	targets := rt.targetsFor(tenant)
	if rt.opts.Hedge && len(targets) >= 2 && rt.lat.size() >= rt.opts.HedgeMinSamples {
		a := rt.hedgedFirst(r.Context(), targets, "/query", "/query", body, r.Header)
		if a.err == nil {
			rt.routed.Add(1) // served here; the fall-through path is counted by proxyRead
			rt.relay(w, a, cacheKey, cacheSeq)
			return
		}
		// Both hedge legs failed; fall through to the plain retry loop.
	}
	rt.proxyRead(w, r, tenant, body, pathFor, nil, cacheKey, cacheSeq)
}

func (rt *Router) handleStoreModel(w http.ResponseWriter, r *http.Request) {
	var req server.ModelRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<26)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, server.ErrorLine{Error: "bad request body: " + err.Error()})
		return
	}
	if req.Name == "" || len(req.Data) == 0 {
		writeJSON(w, http.StatusBadRequest, server.ErrorLine{Error: "missing model name or data"})
		return
	}
	tenant := requestTenant(r, req.Tenant)
	if err := rt.replicate(r.Context(), logEntry{kind: entryModel, name: req.Name, data: req.Data, tenant: tenant}); err != nil {
		writeJSON(w, replicateStatus(err), server.ErrorLine{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, server.ExecResponse{OK: true})
}

// replicateStatus maps a replication failure to a response status: a
// replica's own 4xx verdict on the entry (bad SQL everywhere → 400) is
// the client's error and passes through; anything else — transport
// failures, replica 5xx — is infrastructure, 502.
func replicateStatus(err error) int {
	var he *server.HTTPError
	if errors.As(err, &he) && he.Status >= 400 && he.Status < 500 {
		return he.Status
	}
	return http.StatusBadGateway
}

func (rt *Router) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req server.QueryRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<22)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, server.ErrorLine{Error: "bad request body: " + err.Error()})
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		writeJSON(w, http.StatusBadRequest, server.ErrorLine{Error: "missing sql"})
		return
	}
	if h := r.Header.Get("X-Raven-Tenant"); h != "" {
		req.Tenant = h // bake the proxy-assigned tenant into the statement
	}

	// Register the statement, then prepare it eagerly on the tenant's
	// home replica: compile errors and the parameter list surface now,
	// synchronously, like they would against a single replica. Every
	// other replica prepares lazily on its first execution.
	rt.mu.Lock()
	rt.nextID++
	rs := &routerStmt{id: fmt.Sprintf("r%d", rt.nextID), req: req}
	rt.mu.Unlock()

	targets := rt.targetsFor(req.Tenant)
	if len(targets) == 0 {
		writeJSON(w, http.StatusServiceUnavailable, server.ErrorLine{Error: "no healthy replicas"})
		return
	}
	_, err := rt.ensureStmt(r.Context(), targets[0], rs)
	if err != nil {
		status := http.StatusBadGateway
		var he *server.HTTPError
		if errors.As(err, &he) {
			status = he.Status
		}
		writeJSON(w, status, server.ErrorLine{Error: err.Error()})
		return
	}
	rt.mu.Lock()
	rt.stmts[rs.id] = rs
	rt.mu.Unlock()
	writeJSON(w, http.StatusOK, server.PrepareResponse{ID: rs.id, Params: rs.params})
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
	err := rt.opts.Retry.Do(ctx, server.Transient, func() error {
		var perr error
		pr, perr = m.c.PrepareContext(ctx, rs.req)
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
		writeJSON(w, http.StatusNotFound, server.ErrorLine{Error: "unknown statement id"})
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<22))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, server.ErrorLine{Error: err.Error()})
		return
	}
	var req server.QueryRequest
	if len(bytes.TrimSpace(body)) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, server.ErrorLine{Error: "bad request body: " + err.Error()})
			return
		}
	}
	// Affinity: the execution's tenant if tagged, else the statement's.
	tenant := requestTenant(r, req.Tenant)
	if tenant == "" {
		tenant = rs.req.Tenant
	}

	// Prepared statements are compile-only (the prepare surface rejects
	// side effects), so every execution is a cacheable read; the router
	// statement id — never reused — stands in for SQL and options.
	var cacheKey string
	var cacheSeq uint64
	if rt.respCache != nil && !req.NoCache {
		cacheSeq = rt.logHead()
		cacheKey = respCacheKey(cacheSeq, "t", tenant, rs.id, req.Params, nil)
		if rt.respCacheServe(w, cacheKey) {
			return
		}
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
	rt.proxyRead(w, r, tenant, body, pathFor, notFound, cacheKey, cacheSeq)
}

func (rt *Router) handleStmtDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt.mu.Lock()
	rs := rt.stmts[id]
	delete(rt.stmts, id)
	rt.mu.Unlock()
	if rs == nil {
		writeJSON(w, http.StatusNotFound, server.ErrorLine{Error: "unknown statement id"})
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
	writeJSON(w, http.StatusOK, server.ExecResponse{OK: true})
}

// ---- observability ----

// RouterStats is the router's own half of cluster stats.
type RouterStats struct {
	Members    int    `json:"members"`
	Healthy    int    `json:"healthy"`
	Routed     uint64 `json:"routed"`
	Spilled    uint64 `json:"spilled"`
	Retried    uint64 `json:"retried"`
	Hedged     uint64 `json:"hedged"`
	HedgeWins  uint64 `json:"hedge_wins"`
	Reprepared uint64 `json:"reprepared"`
	Repairs    uint64 `json:"repairs"`
	LogEntries uint64 `json:"log_entries"`
	// LogSkipped counts entries a diverged replica could not apply
	// (terminal 4xx during replay) and was advanced past instead of
	// being wedged in degraded forever. Non-zero means replica state
	// has drifted from the log.
	LogSkipped uint64  `json:"log_skipped"`
	Statements int     `json:"statements"`
	P99Millis  float64 `json:"p99_ms"`
	// Cache is the response cache's counters (absent when disabled).
	// Hits here never touched a replica.
	Cache *rescache.Stats `json:"cache,omitempty"`
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
	var cacheStats *rescache.Stats
	if rt.respCache != nil {
		s := rt.respCache.Stats()
		cacheStats = &s
	}
	return ClusterStats{
		Router: RouterStats{
			Members:    len(members),
			Healthy:    healthy,
			Routed:     rt.routed.Load(),
			Spilled:    rt.spilled.Load(),
			Retried:    rt.retried.Load(),
			Hedged:     rt.hedged.Load(),
			HedgeWins:  rt.hedgeWins.Load(),
			Reprepared: rt.reprepared.Load(),
			Repairs:    rt.repairs.Load(),
			LogEntries: entries,
			LogSkipped: rt.skipped.Load(),
			Statements: stmts,
			P99Millis:  float64(rt.lat.p99()) / float64(time.Millisecond),
			Cache:      cacheStats,
		},
		Members: infos,
	}
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), rt.opts.ProbeTimeout)
	defer cancel()
	writeJSON(w, http.StatusOK, rt.Stats(ctx))
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
	writeJSON(w, status, h)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// ---- latency window (hedge-delay estimation) ----

// latWindow is a fixed ring of recent first-byte latencies for routed
// reads; p99 over it sets the hedge delay.
type latWindow struct {
	mu   sync.Mutex
	buf  [128]time.Duration
	n    int // filled
	next int
}

func (l *latWindow) record(d time.Duration) {
	l.mu.Lock()
	l.buf[l.next] = d
	l.next = (l.next + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

func (l *latWindow) size() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// p99 returns the 99th-percentile recorded latency (floor 1ms so an
// all-fast window does not hedge every single request).
func (l *latWindow) p99() time.Duration {
	l.mu.Lock()
	vals := make([]time.Duration, l.n)
	copy(vals, l.buf[:l.n])
	l.mu.Unlock()
	if len(vals) == 0 {
		return time.Second
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	idx := len(vals) * 99 / 100
	if idx >= len(vals) {
		idx = len(vals) - 1
	}
	d := vals[idx]
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}
