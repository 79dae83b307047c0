package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"raven"
	"raven/internal/data"
	"raven/internal/ml"
	"raven/internal/server/reqopt"
	"raven/internal/train"
)

// assertGoroutinesReturn polls the goroutine count back to baseline —
// the server-level goroutine-leak check for drains and cancellations.
func assertGoroutinesReturn(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s", runtime.NumGoroutine(), base, buf[:m])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

const testPredict = `SELECT d.id, p.score FROM PREDICT(MODEL='duration_of_stay',
	DATA=(SELECT * FROM patient_info AS pi
	      JOIN blood_tests AS bt ON pi.id = bt.id
	      JOIN prenatal_tests AS pt ON bt.id = pt.id) AS d)
	WITH (score FLOAT) AS p WHERE d.age > 40`

// hospitalDB builds an engine with the hospital workload and a stored
// forest model (slow enough that concurrent traffic overlaps).
func hospitalDB(t testing.TB, rows, trees int, opts ...raven.Option) *raven.DB {
	t.Helper()
	db := raven.MustOpen(opts...)
	h, err := data.GenHospital(db.Catalog(), rows, 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	rf := train.FitForest(h.TrainX, h.TrainY, train.ForestOptions{
		NumTrees: trees,
		Seed:     5,
		Tree:     train.TreeOptions{MaxDepth: 8, MinLeaf: 10},
	})
	if err := db.StoreModel("duration_of_stay", &ml.Pipeline{Final: rf, InputColumns: h.FeatureCols}); err != nil {
		t.Fatal(err)
	}
	return db
}

// startServer runs a real listener (so graceful shutdown is exercised
// the way production sees it) and returns a client plus the server.
func startServer(t testing.TB, db *raven.DB, opts Options) (*Client, *Server, *http.Client) {
	t.Helper()
	srv := New(db, opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != nil && err != http.ErrServerClosed {
			t.Errorf("serve: %v", err)
		}
	})
	hc := &http.Client{Transport: &http.Transport{}}
	t.Cleanup(hc.CloseIdleConnections)
	return &Client{Base: "http://" + l.Addr().String(), HTTP: hc}, srv, hc
}

func TestWireProtocolBasics(t *testing.T) {
	db := hospitalDB(t, 500, 4)
	c, _, _ := startServer(t, db, Options{})

	if h, err := c.Health(context.Background()); err != nil || h.Status != "ok" {
		t.Fatalf("healthz = %+v, %v", h, err)
	}
	// Side-effect-only script.
	res, err := c.QueryContext(context.Background(), QueryRequest{SQL: `CREATE TABLE kv (k INT PRIMARY KEY, v FLOAT); INSERT INTO kv VALUES (1, 10.5), (2, 20.5)`})
	if err != nil || !res.OK {
		t.Fatalf("exec: %+v, %v", res, err)
	}
	// Streamed SELECT with header, rows and trailer.
	sel, err := c.QueryContext(context.Background(), QueryRequest{SQL: `SELECT k, v FROM kv`})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Rows) != 2 || sel.Columns[0] != "k" || sel.Types[1] != "FLOAT" {
		t.Fatalf("select: %+v", sel)
	}
	if sel.Trailer.Rows != 2 {
		t.Fatalf("trailer: %+v", sel.Trailer)
	}
	// PREDICT over the wire.
	pred, err := c.QueryContext(context.Background(), QueryRequest{SQL: testPredict})
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.Rows) == 0 || len(pred.Columns) != 2 {
		t.Fatalf("predict: %d rows, cols %v", len(pred.Rows), pred.Columns)
	}
	// Errors: bad SQL is a 400, unknown statement a 404, bad body a 400.
	if _, err := c.QueryContext(context.Background(), QueryRequest{SQL: "SELECT FROM FROM"}); status(err) != http.StatusBadRequest {
		t.Fatalf("bad sql: %v", err)
	}
	if _, err := c.StmtQueryContext(context.Background(), "nope", QueryRequest{}); status(err) != http.StatusNotFound {
		t.Fatalf("unknown stmt: %v", err)
	}
	resp, err := http.Post(c.Base+"/query", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: %d", resp.StatusCode)
	}
}

// TestDeclareStaysInItsScript: a DECLARE-only script is refused with a
// 400 instead of binding the variable engine-wide, so one tenant's
// script cannot change what another tenant's statement means — @lo
// stays an execute-time parameter of b's prepare.
func TestDeclareStaysInItsScript(t *testing.T) {
	db := raven.MustOpen()
	if err := db.Exec(`CREATE TABLE pts (id INT, age FLOAT); INSERT INTO pts VALUES (1, 3.0), (2, 7.0)`); err != nil {
		t.Fatal(err)
	}
	c, _, _ := startServer(t, db, Options{})
	ctx := context.Background()
	if _, err := c.QueryContext(ctx, QueryRequest{SQL: `DECLARE @lo = '5'`, Tenant: "a"}); status(err) != http.StatusBadRequest {
		t.Fatalf("DECLARE-only script: %v, want 400", err)
	}
	pr, err := c.PrepareContext(ctx, QueryRequest{SQL: `SELECT id FROM pts WHERE age > @lo`, Tenant: "b"}, nil)
	if err != nil {
		t.Fatalf("tenant b's prepare after tenant a's DECLARE: %v", err)
	}
	if len(pr.Params) != 1 || pr.Params[0] != "lo" {
		t.Errorf("params = %v, want [lo]", pr.Params)
	}
}

func TestPreparedStatementOverWire(t *testing.T) {
	db := hospitalDB(t, 500, 4)
	c, _, _ := startServer(t, db, Options{})

	pr, err := c.PrepareContext(context.Background(), QueryRequest{SQL: strings.Replace(testPredict, "> 40", "> @minage", 1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Params) != 1 || pr.Params[0] != "minage" {
		t.Fatalf("params = %v", pr.Params)
	}
	warm, err := c.StmtQueryContext(context.Background(), pr.ID, QueryRequest{Params: map[string]string{"minage": "40"}})
	if err != nil {
		t.Fatal(err)
	}
	adhoc, err := c.QueryContext(context.Background(), QueryRequest{SQL: testPredict})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Fingerprint() != adhoc.Fingerprint() {
		t.Fatal("prepared result differs from ad-hoc")
	}
	// Missing param is a clean client error.
	if _, err := c.StmtQueryContext(context.Background(), pr.ID, QueryRequest{}); status(err) != http.StatusBadRequest {
		t.Fatalf("missing param: %v", err)
	}
	st, err := c.StatsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.Statements != 1 || st.Server.Prepares != 1 {
		t.Fatalf("stats: %+v", st.Server)
	}
	if st.Engine.Compiles == 0 || st.Engine.SessionCache.Misses == 0 {
		t.Fatalf("engine stats missing: %+v", st.Engine)
	}
	if err := c.CloseStmtContext(context.Background(), pr.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseStmtContext(context.Background(), pr.ID); status(err) != http.StatusNotFound {
		t.Fatalf("double close: %v", err)
	}
}

// TestConcurrentClientsParity is the acceptance scenario: 32 concurrent
// clients against an admission limit of 4 all complete correctly with
// results byte-identical to serial execution, and the active-query gauge
// never exceeds the limit.
func TestConcurrentClientsParity(t *testing.T) {
	db := hospitalDB(t, 2000, 8,
		raven.WithMaxConcurrentQueries(4),
		raven.WithSchedulerQueue(64, 0),
	)
	c, _, _ := startServer(t, db, Options{})

	// Serial reference over the same wire (DOP 1 forced).
	serialOpts := &QueryOptions{Parallelism: 1}
	ref, err := c.QueryContext(context.Background(), QueryRequest{SQL: testPredict, Options: serialOpts})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Rows) == 0 {
		t.Fatal("reference returned no rows")
	}
	want := ref.Fingerprint()

	const clients = 32
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.QueryContext(context.Background(), QueryRequest{SQL: testPredict})
			if err != nil {
				errs <- err
				return
			}
			if got := res.Fingerprint(); got != want {
				errs <- fmt.Errorf("result mismatch: %d rows vs %d", len(res.Rows), len(ref.Rows))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := db.Scheduler().Stats()
	if st.MaxActive > 4 {
		t.Fatalf("active gauge exceeded admission limit: %d > 4", st.MaxActive)
	}
	if st.Admitted < clients {
		t.Fatalf("admitted %d < %d clients", st.Admitted, clients)
	}
	if st.Active != 0 || st.SlotsInUse != 0 {
		t.Fatalf("not quiescent after burst: %+v", st)
	}
}

// TestRejectAndTimeoutStatusCodes pins the wire contract: queue-full
// rejections and queue timeouts are distinct status codes (429 vs 504).
func TestRejectAndTimeoutStatusCodes(t *testing.T) {
	db := hospitalDB(t, 200, 2,
		raven.WithMaxConcurrentQueries(1),
		raven.WithSchedulerQueue(1, 50*time.Millisecond),
	)
	c, _, _ := startServer(t, db, Options{})

	// Occupy the single slot directly so HTTP requests queue behind it.
	release, err := db.Scheduler().Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}

	// First request fills the queue, then times out after 50ms → 504.
	timedOut := make(chan error, 1)
	go func() {
		_, err := c.QueryContext(context.Background(), QueryRequest{SQL: `SELECT COUNT(*) AS n FROM patient_info`})
		timedOut <- err
	}()
	waitFor(t, func() bool { return db.Scheduler().Stats().Waiting == 1 })

	// Second request: limit reached AND queue full → immediate 429.
	if _, err := c.QueryContext(context.Background(), QueryRequest{SQL: `SELECT COUNT(*) AS n FROM patient_info`}); status(err) != http.StatusTooManyRequests {
		t.Fatalf("queue-full: want 429, got %v", err)
	}
	if err := <-timedOut; status(err) != http.StatusGatewayTimeout {
		t.Fatalf("queue-timeout: want 504, got %v", err)
	}
	release()

	// The server recovers: next query runs.
	if _, err := c.QueryContext(context.Background(), QueryRequest{SQL: `SELECT COUNT(*) AS n FROM patient_info`}); err != nil {
		t.Fatal(err)
	}
	st := db.Scheduler().Stats()
	if st.Rejected != 1 || st.TimedOut != 1 {
		t.Fatalf("counters: %+v", st)
	}
}

// TestClientDisconnectCancelsQueued covers the queued-not-yet-admitted
// path: a client that hangs up while its query waits in the admission
// queue must be removed promptly, leaking nothing and admitting no work.
func TestClientDisconnectCancelsQueued(t *testing.T) {
	db := hospitalDB(t, 200, 2,
		raven.WithMaxConcurrentQueries(1),
		raven.WithSchedulerQueue(8, 0),
	)
	c, _, hc := startServer(t, db, Options{})

	release, err := db.Scheduler().Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/query",
			strings.NewReader(`{"sql":"SELECT COUNT(*) AS n FROM patient_info"}`))
		req.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		gone <- err
	}()
	waitFor(t, func() bool { return db.Scheduler().Stats().Waiting == 1 })
	cancel() // client disconnect while queued
	if err := <-gone; err == nil {
		t.Fatal("request should have failed with context.Canceled")
	}
	waitFor(t, func() bool {
		st := db.Scheduler().Stats()
		return st.Waiting == 0 && st.Cancelled >= 1
	})
	if st := db.Scheduler().Stats(); st.Admitted != 1 { // only the direct Acquire
		t.Fatalf("cancelled queued query was admitted: %+v", st)
	}
	release()
	assertGoroutinesReturn(t, base)
}

// TestGracefulDrainUnderLoad is the shutdown acceptance: under a mix of
// running and queued PREDICT queries, Shutdown lets admitted queries
// finish (complete streams), fails queued ones with 503, flips healthz
// to 503, and leaves zero goroutines behind.
func TestGracefulDrainUnderLoad(t *testing.T) {
	// Big enough that queries are still streaming when drain starts.
	db := hospitalDB(t, 20000, 16,
		raven.WithMaxConcurrentQueries(2),
		raven.WithSchedulerQueue(16, 0),
	)
	baseline := runtime.NumGoroutine()
	c, srv, hc := startServer(t, db, Options{})

	const clients = 6
	type outcome struct {
		res *StreamResult
		err error
	}
	results := make(chan outcome, clients)
	for i := 0; i < clients; i++ {
		go func() {
			res, err := c.QueryContext(context.Background(), QueryRequest{SQL: testPredict})
			results <- outcome{res, err}
		}()
	}
	// Wait until the scheduler is saturated: 2 running, ≥1 queued.
	waitFor(t, func() bool {
		st := db.Scheduler().Stats()
		return st.Active == 2 && st.Waiting >= 1
	})

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	var completed, drained int
	var want string
	for i := 0; i < clients; i++ {
		o := <-results
		switch {
		case o.err == nil:
			// A completed stream must be whole: trailer seen (readStream
			// enforces trailer/row-count consistency).
			if len(o.res.Rows) == 0 {
				t.Error("completed query streamed no rows")
			}
			if want == "" {
				want = o.res.Fingerprint()
			} else if o.res.Fingerprint() != want {
				t.Error("drained-run result differs")
			}
			completed++
		case status(o.err) == http.StatusServiceUnavailable:
			drained++
		default:
			t.Errorf("unexpected outcome: %v", o.err)
		}
	}
	if completed == 0 || drained == 0 {
		t.Fatalf("wanted both completions and drain-failures, got %d/%d", completed, drained)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st := db.Scheduler().Stats(); st.Active != 0 || !st.Draining {
		t.Fatalf("post-drain scheduler: %+v", st)
	}
	// The t.Cleanup shutdown is now a no-op; check leaks directly.
	hc.CloseIdleConnections()
	assertGoroutinesReturn(t, baseline)
}

// TestHealthzDrainingAndAdmissionRefusal uses handler-level draining
// (no listener) to pin the 503 surface.
func TestHealthzDrainingAndAdmissionRefusal(t *testing.T) {
	db := hospitalDB(t, 200, 2, raven.WithMaxConcurrentQueries(2))
	srv := New(db, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go http.Serve(l, srv.Handler())
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	c := &Client{Base: "http://" + l.Addr().String(), HTTP: hc}

	if h, err := c.Health(context.Background()); status(err) != http.StatusServiceUnavailable || h == nil || h.Status != "draining" {
		t.Fatalf("healthz while draining = %+v, %v", h, err)
	}
	if _, err := c.QueryContext(context.Background(), QueryRequest{SQL: "SELECT COUNT(*) AS n FROM patient_info"}); status(err) != http.StatusServiceUnavailable {
		t.Fatalf("query while draining: %v", err)
	}
	if _, err := c.PrepareContext(context.Background(), QueryRequest{SQL: "SELECT COUNT(*) AS n FROM patient_info"}, nil); status(err) != http.StatusServiceUnavailable {
		t.Fatalf("prepare while draining: %v", err)
	}
}

// TestQueryTimeoutOverWire: a per-request timeout lands mid-execution
// and surfaces as 504 with nothing leaked. The aggregate produces no row
// until the whole PREDICT finishes, so the deadline always lands before
// the status line commits.
func TestQueryTimeoutOverWire(t *testing.T) {
	db := hospitalDB(t, 20000, 16)
	c, _, hc := startServer(t, db, Options{})
	base := runtime.NumGoroutine()
	agg := strings.Replace(testPredict, "SELECT d.id, p.score", "SELECT COUNT(*) AS n, AVG(p.score) AS avgscore", 1)
	_, err := c.QueryContext(context.Background(), QueryRequest{SQL: agg, TimeoutMillis: 1,
		Options: &QueryOptions{Parallelism: 1}})
	if status(err) != http.StatusGatewayTimeout {
		t.Fatalf("want 504, got %v", err)
	}
	hc.CloseIdleConnections()
	assertGoroutinesReturn(t, base)
}

// TestTenantHeadersQuotasAndStats pins the multi-tenant wire contract:
// tenant tags arrive via header or body, a zero-quota tenant gets
// per-tenant 429s with a Retry-After hint while others keep running,
// prepared statements remember their registered tenant (and per-request
// headers override it), and /stats nests per-tenant counters under the
// scheduler section without breaking the pre-tenant top-level fields.
func TestTenantHeadersQuotasAndStats(t *testing.T) {
	db := hospitalDB(t, 500, 4,
		raven.WithMaxConcurrentQueries(4),
		raven.WithSchedulerQueue(16, 0),
		raven.WithTenantQuota("banned", 0, 0),
		raven.WithTenantQuota("batch", 2, 0),
	)
	c, _, hc := startServer(t, db, Options{})

	countSQL := `SELECT COUNT(*) AS n FROM patient_info`

	// Body-tagged query for an allowed tenant.
	if _, err := c.QueryContext(context.Background(), QueryRequest{SQL: countSQL, Tenant: "batch"}); err != nil {
		t.Fatal(err)
	}

	// Header-tagged query for the shut-off tenant: 429 + Retry-After.
	req, _ := http.NewRequest(http.MethodPost, c.Base+"/query",
		strings.NewReader(`{"sql":"SELECT COUNT(*) AS n FROM patient_info"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Raven-Tenant", "banned")
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("banned tenant: status %d, want 429", resp.StatusCode)
	}
	// A zero-quota shutoff is permanent: no Retry-After (hot-retrying a
	// reconfiguration-gated condition is pointless), unlike queue-full
	// 429s which do carry the hint.
	if h := resp.Header.Get("Retry-After"); h != "" {
		t.Fatalf("shutoff 429 carries Retry-After %q; the condition is not transient", h)
	}
	// The header also wins over a body tag.
	req2, _ := http.NewRequest(http.MethodPost, c.Base+"/query",
		strings.NewReader(`{"sql":"SELECT COUNT(*) AS n FROM patient_info","tenant":"batch"}`))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set("X-Raven-Tenant", "banned")
	resp2, err := hc.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("header should override body tenant: status %d", resp2.StatusCode)
	}
	// A malformed tag header is a clean 400.
	req3, _ := http.NewRequest(http.MethodPost, c.Base+"/query",
		strings.NewReader(`{"sql":"SELECT COUNT(*) AS n FROM patient_info"}`))
	req3.Header.Set("Content-Type", "application/json")
	req3.Header.Set("X-Raven-DOP", "urgent")
	resp3, err := hc.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad DOP header: status %d, want 400", resp3.StatusCode)
	}

	// Per-statement registration: prepared under "batch", executions
	// bill "batch" by default; a per-request header rebills the call.
	pr, err := c.PrepareContext(context.Background(), QueryRequest{SQL: countSQL, Tenant: "batch"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.StmtQueryContext(context.Background(), pr.ID, QueryRequest{}); err != nil {
		t.Fatal(err)
	}
	req4, _ := http.NewRequest(http.MethodPost, c.Base+"/stmt/"+pr.ID+"/query",
		strings.NewReader(`{}`))
	req4.Header.Set("Content-Type", "application/json")
	req4.Header.Set("X-Raven-Tenant", "banned")
	resp4, err := hc.Do(req4)
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("stmt exec under banned override: status %d, want 429", resp4.StatusCode)
	}

	// DDL-only scripts bill their tenant too.
	if _, err := c.QueryContext(context.Background(), QueryRequest{SQL: `CREATE TABLE tnt (k INT PRIMARY KEY)`, Tenant: "batch"}); err != nil {
		t.Fatal(err)
	}

	// Raw /stats JSON: the pre-tenant scheduler fields stay at the top
	// level of engine.scheduler (backward compatibility), and the new
	// per-tenant map nests beside them.
	sresp, err := hc.Get(c.Base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Server map[string]any `json:"server"`
		Engine struct {
			Scheduler map[string]json.RawMessage `json:"scheduler"`
		} `json:"engine"`
	}
	err = json.NewDecoder(sresp.Body).Decode(&raw)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"admitted", "rejected", "max_active", "max_concurrent", "queue_depth", "wait_histogram", "slots_in_use"} {
		if _, ok := raw.Engine.Scheduler[key]; !ok {
			t.Errorf("legacy scheduler field %q missing from /stats", key)
		}
	}
	var tenants map[string]raven.TenantStats
	if err := json.Unmarshal(raw.Engine.Scheduler["tenants"], &tenants); err != nil {
		t.Fatalf("scheduler.tenants: %v", err)
	}
	bt := tenants["batch"]
	// prepare (cost 1) + 2 SELECT executions + DDL script + body query.
	if bt.Admitted < 4 || !bt.Declared || bt.MaxConcurrent != 2 {
		t.Fatalf("batch tenant over the wire: %+v", bt)
	}
	if bn := tenants["banned"]; bn.Rejected < 3 || bn.Admitted != 0 {
		t.Fatalf("banned tenant over the wire: %+v", bn)
	}
	// The typed client still parses the response (shape compatibility).
	st, err := c.StatsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine.Scheduler == nil || st.Engine.Scheduler.Tenants["batch"].Admitted != bt.Admitted {
		t.Fatalf("typed stats: %+v", st.Engine.Scheduler)
	}
}

// TestRequestTagPresence pins what a request's own options resolve to:
// the tenant tag of a header beats the body's, and the effective engine
// DOP is the body's options.parallelism or the X-Raven-DOP header (which
// wins), clamped to [0, MaxWireDOP], with 0 leaving the engine default.
func TestRequestTagPresence(t *testing.T) {
	mk := func(hdr map[string]string) *http.Request {
		r, _ := http.NewRequest(http.MethodPost, "/stmt/s1/query", nil)
		for k, v := range hdr {
			r.Header.Set(k, v)
		}
		return r
	}
	hdrTenant := map[string]string{"X-Raven-Tenant": "b"}
	if tenant, _, err := requestOptions(mk(hdrTenant), &QueryRequest{Tenant: "a"}); err != nil || tenant != "b" {
		t.Errorf("header beats body: tenant %q, %v", tenant, err)
	}
	if tenant, _, err := requestOptions(mk(nil), &QueryRequest{Tenant: "a"}); err != nil || tenant != "a" {
		t.Errorf("body only: tenant %q, %v", tenant, err)
	}
	capDOP := reqopt.MaxWireDOP()
	for _, c := range []struct {
		body     int    // options.parallelism
		hdr      string // X-Raven-DOP; "" = absent
		wantDOP  int
		noOption bool // omit the options object
	}{
		{0, "", 0, true},
		{0, "3", 3, true},
		{-1, "", 0, false},
		{-1, "3", 3, false},
		{0, "", 0, false},
		{0, "3", 3, false},
		{4, "", 4, false},
		{4, "3", 3, false},
		{10_000, "", capDOP, false},
		{10_000, "3", 3, false},
		{4, "10000", capDOP, false},
	} {
		req := QueryRequest{}
		if !c.noOption {
			req.Options = &QueryOptions{Parallelism: c.body}
		}
		var hdr map[string]string
		if c.hdr != "" {
			hdr = map[string]string{"X-Raven-DOP": c.hdr}
		}
		_, dop, err := requestOptions(mk(hdr), &req)
		if err != nil || dop != c.wantDOP {
			t.Errorf("body %d (options %v), header %q: DOP %d, %v; want %d", c.body, !c.noOption, c.hdr, dop, err, c.wantDOP)
		}
	}
}

// requestOptions is what the query routes hand the engine for a
// request's own options: its tenant and its effective DOP.
func requestOptions(r *http.Request, req *QueryRequest) (tenant string, dop int, err error) {
	ro, err := wireOptions(r, bodyOptions(req))
	if err != nil {
		return "", 0, err
	}
	opts := req.Options.engine()
	ro.Apply(&opts)
	return opts.Tenant, opts.Parallelism, nil
}

// status extracts the HTTP status from a client error (0 otherwise).
func status(err error) int {
	var he *HTTPError
	if errors.As(err, &he) {
		return he.Status
	}
	return 0
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLegacyWireAliases pins the backward-compatibility contract of the
// reqopt migration: every pre-unification carrier — the JSON body
// fields (tenant/no_cache/timeout_ms/options.parallelism) and
// the X-Raven-* headers — still works, with the documented precedence
// (headers > body), by sending raw JSON exactly as old clients encoded
// it.
func TestLegacyWireAliases(t *testing.T) {
	db := raven.MustOpen(raven.WithMaxConcurrentQueries(4))
	t.Cleanup(func() { db.Close() })
	if err := db.ExecContext(context.Background(),
		`CREATE TABLE legacy (a INT PRIMARY KEY); INSERT INTO legacy VALUES (1), (2)`); err != nil {
		t.Fatal(err)
	}
	c, _, hc := startServer(t, db, Options{})

	post := func(body string, hdr map[string]string) *http.Response {
		t.Helper()
		req, err := http.NewRequest("POST", c.Base+"/query", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Old-style body fields, verbatim raw JSON: all accepted, tenant
	// billed.
	resp := post(`{"sql":"SELECT a FROM legacy","tenant":"legacy-body","no_cache":true,"timeout_ms":5000,"options":{"parallelism":2}}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy body fields: status %d", resp.StatusCode)
	}
	if st := db.Stats().Scheduler; st == nil || st.Tenants["legacy-body"].Admitted == 0 {
		t.Fatalf("legacy body tenant not billed: %+v", db.Stats().Scheduler)
	}

	// Old-style headers still override the body fields.
	resp = post(`{"sql":"SELECT a FROM legacy","tenant":"body-loser"}`,
		map[string]string{"X-Raven-Tenant": "hdr-winner"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy headers: status %d", resp.StatusCode)
	}
	st := db.Stats().Scheduler
	if st.Tenants["hdr-winner"].Admitted == 0 {
		t.Fatalf("header tenant did not win: %+v", st.Tenants)
	}
	if st.Tenants["body-loser"].Admitted != 0 {
		t.Fatalf("body tenant billed despite header override: %+v", st.Tenants)
	}

	// The unified surface's new headers work on the same request.
	resp = post(`{"sql":"SELECT a FROM legacy"}`,
		map[string]string{"X-Raven-DOP": "2", "X-Raven-Timeout-Ms": "5000", "X-Raven-No-Cache": "1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("new headers: status %d", resp.StatusCode)
	}

	// Malformed headers are 400s, not silent zeros.
	resp = post(`{"sql":"SELECT a FROM legacy"}`, map[string]string{"X-Raven-DOP": "many"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad DOP header: status %d", resp.StatusCode)
	}

	// Prepared path: prepare-time tenant still inherited at execution
	// when the request carries no tenant (the per-statement layer).
	pr, err := c.PrepareContext(context.Background(), QueryRequest{SQL: `SELECT a FROM legacy WHERE a > @n`, Tenant: "prep-tenant"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.StmtQueryContext(context.Background(), pr.ID, QueryRequest{Params: map[string]string{"n": "0"}}); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Scheduler.Tenants["prep-tenant"].Admitted < 2 {
		t.Fatalf("prepared statement's registered tenant not inherited: %+v",
			db.Stats().Scheduler.Tenants)
	}
}

// TestDOPHeaderOnBothRoutes: X-Raven-DOP reaches the engine on the
// prepared route as it does on the ad hoc one. Each route runs on a
// fresh engine opened at DOP 1 with admission on, and the scheduler's
// high-water slot mark shows what the query was charged.
func TestDOPHeaderOnBothRoutes(t *testing.T) {
	charged := func(path func(*Client) string) int {
		t.Helper()
		db := raven.MustOpen(raven.WithParallelism(1), raven.WithMaxConcurrentQueries(4))
		t.Cleanup(func() { db.Close() })
		if err := db.ExecContext(context.Background(), `CREATE TABLE d (a INT); INSERT INTO d VALUES (1), (2)`); err != nil {
			t.Fatal(err)
		}
		c, _, hc := startServer(t, db, Options{})
		req, err := http.NewRequest("POST", c.Base+path(c), strings.NewReader(`{"sql":"SELECT a FROM d"}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(reqopt.HeaderDOP, "6")
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", req.URL.Path, resp.StatusCode)
		}
		return db.Stats().Scheduler.MaxSlotsInUse
	}
	adhoc := charged(func(*Client) string { return "/query" })
	prepared := charged(func(c *Client) string {
		pr, err := c.PrepareContext(context.Background(), QueryRequest{SQL: `SELECT a FROM d`}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return "/stmt/" + pr.ID + "/query"
	})
	if adhoc != 6 || prepared != adhoc {
		t.Fatalf("max slots in use with X-Raven-DOP 6: /query %d, /stmt/{id}/query %d; want 6 on both", adhoc, prepared)
	}
}

// TestRemovedWireOptionsRejected: options.morsel_size,
// options.parallel_threshold_rows, options.disable_plan_cache, the
// priority field and the X-Raven-Priority header are not part of the
// wire protocol, so a request carrying any of them is a 400 naming it —
// on the ad hoc and the prepared path — while every remaining options
// field is accepted.
func TestRemovedWireOptionsRejected(t *testing.T) {
	db := raven.MustOpen()
	t.Cleanup(func() { db.Close() })
	if err := db.ExecContext(context.Background(), `CREATE TABLE w (a INT); INSERT INTO w VALUES (1), (2)`); err != nil {
		t.Fatal(err)
	}
	c, _, hc := startServer(t, db, Options{})
	pr, err := c.PrepareContext(context.Background(), QueryRequest{SQL: `SELECT a FROM w`}, nil)
	if err != nil {
		t.Fatal(err)
	}
	post := func(path, body string, hdr ...string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, c.Base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(hdr); i += 2 {
			req.Header.Set(hdr[i], hdr[i+1])
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	for _, path := range []string{"/query", "/stmt/" + pr.ID + "/query"} {
		// Admission is first come, first served: the priority body field
		// and header are refused, naming what was sent.
		if code, msg := post(path, `{"sql":"SELECT a FROM w","priority":3}`); code != http.StatusBadRequest || !strings.Contains(msg, "priority") {
			t.Errorf("%s with a priority field: status %d, body %q; want 400 naming it", path, code, msg)
		}
		if code, msg := post(path, `{"sql":"SELECT a FROM w"}`, "X-Raven-Priority", "3"); code != http.StatusBadRequest || !strings.Contains(msg, "X-Raven-Priority") {
			t.Errorf("%s with X-Raven-Priority: status %d, body %q; want 400 naming it", path, code, msg)
		}
		for _, field := range []string{`"morsel_size":1`, `"parallel_threshold_rows":1`, `"disable_plan_cache":true`} {
			body := fmt.Sprintf(`{"sql":"SELECT a FROM w","options":{"parallelism":2,%s}}`, field)
			name, _, _ := strings.Cut(strings.Trim(field, `"`), `"`)
			if code, msg := post(path, body); code != http.StatusBadRequest || !strings.Contains(msg, name) {
				t.Errorf("%s with options.%s: status %d, body %q; want 400 naming the field", path, name, code, msg)
			}
		}
		body := `{"sql":"SELECT a FROM w","options":{"cross_optimize":false,"parallelism":2}}`
		if code, msg := post(path, body); code != http.StatusOK {
			t.Errorf("%s with every remaining option: status %d, body %q", path, code, msg)
		}
	}
}
