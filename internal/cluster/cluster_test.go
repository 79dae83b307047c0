package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"raven"
	"raven/internal/ml"
	"raven/internal/server"
)

// assertGoroutinesReturn polls the goroutine count back to baseline —
// the leak check every failure-mode test ends with.
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

// testCluster is N in-process replicas behind a router with a real
// listener, plus a client pointed at the router.
type testCluster struct {
	reps []*Replica
	rt   *Router
	c    *server.Client

	rl       net.Listener
	rsrv     *http.Server
	serveErr chan error
}

func newTestCluster(t *testing.T, n int) *testCluster {
	return newTestClusterOpts(t, n, Options{ProbeInterval: 50 * time.Millisecond})
}

func newTestClusterOpts(t *testing.T, n int, opts Options, extra ...raven.Option) *testCluster {
	t.Helper()
	tc := &testCluster{serveErr: make(chan error, 1)}
	srvOpts := server.Options{DrainGrace: 200 * time.Millisecond}
	engOpts := append([]raven.Option{
		raven.WithParallelism(1),
		raven.WithMaxConcurrentQueries(4),
		raven.WithSchedulerQueue(32, 5*time.Second),
	}, extra...)
	for i := 0; i < n; i++ {
		r, err := SpawnReplica(fmt.Sprintf("r%d", i), srvOpts, engOpts...)
		if err != nil {
			t.Fatal(err)
		}
		tc.reps = append(tc.reps, r)
	}
	// No Start(): tests drive reconciliation with ProbeNow for
	// determinism instead of racing a background loop.
	tc.rt = New(opts)
	for _, r := range tc.reps {
		if err := tc.rt.AddMember(r.Name, r.Base); err != nil {
			t.Fatal(err)
		}
	}
	tc.rt.ProbeNow(context.Background())

	var err error
	tc.rl, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tc.rsrv = &http.Server{Handler: tc.rt.Handler()}
	go func() { tc.serveErr <- tc.rsrv.Serve(tc.rl) }()
	tc.c = &server.Client{Base: "http://" + tc.rl.Addr().String(), Timeout: 15 * time.Second}
	return tc
}

// close tears the cluster down; replicas already killed/closed by the
// test are skipped via the alive set.
func (tc *testCluster) close(t *testing.T, alive ...int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	tc.rsrv.Close()
	<-tc.serveErr
	tc.rt.Close()
	keep := make(map[int]bool)
	for _, i := range alive {
		keep[i] = true
	}
	for i, r := range tc.reps {
		if len(alive) == 0 || keep[i] {
			if err := r.Close(ctx); err != nil {
				t.Errorf("close replica %d: %v", i, err)
			}
		}
	}
}

// seedData pushes a small table through the router (replicates to all).
func (tc *testCluster) seedData(t *testing.T, rows int) {
	t.Helper()
	var ddl strings.Builder
	ddl.WriteString("CREATE TABLE pts (id INT, x FLOAT, y FLOAT);\nINSERT INTO pts VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			ddl.WriteString(", ")
		}
		fmt.Fprintf(&ddl, "(%d, %g, %g)", i, float64(i)*0.5, float64(i%7))
	}
	if err := tc.c.Exec(ddl.String()); err != nil {
		t.Fatalf("seed DDL through router: %v", err)
	}
}

const testQuery = "SELECT id, x + y AS s FROM pts WHERE id < 32"

func TestRendezvousRanking(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	// Deterministic and stable.
	r1 := rankMembers("tenant-1", names)
	r2 := rankMembers("tenant-1", names)
	if strings.Join(r1, ",") != strings.Join(r2, ",") {
		t.Fatalf("ranking not stable: %v vs %v", r1, r2)
	}
	// Removing a non-home member must not move the home (minimal
	// disruption — the property rendezvous hashing is here for).
	for i := 0; i < 50; i++ {
		tn := fmt.Sprintf("tenant-%d", i)
		full := rankMembers(tn, names)
		without := []string{}
		for _, n := range names {
			if n != full[3] { // drop the lowest-ranked member
				without = append(without, n)
			}
		}
		if got := rankMembers(tn, without)[0]; got != full[0] {
			t.Fatalf("tenant %s home moved from %s to %s when %s left", tn, full[0], got, full[3])
		}
	}
	// All members get some tenants (no degenerate hashing).
	homes := map[string]int{}
	for i := 0; i < 200; i++ {
		homes[rankMembers(fmt.Sprintf("t%d", i), names)[0]]++
	}
	for _, n := range names {
		if homes[n] == 0 {
			t.Fatalf("member %s homed zero of 200 tenants: %v", n, homes)
		}
	}
}

func TestReplicationAndAffinity(t *testing.T) {
	base := runtime.NumGoroutine()
	tc := newTestCluster(t, 2)
	tc.seedData(t, 64)

	// Both replicas hold the replicated table.
	for i, r := range tc.reps {
		rc := &server.Client{Base: r.Base, Timeout: 5 * time.Second}
		res, err := rc.Query(server.QueryRequest{SQL: "SELECT COUNT(*) AS n FROM pts"})
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		if fmt.Sprint(res.Rows[0][0]) != "64" {
			t.Fatalf("replica %d: got %v rows, want 64", i, res.Rows[0][0])
		}
	}

	// Same tenant keeps landing on its home replica (affinity), and the
	// home matches HomeFor.
	tn := tenantHomedOn(tc.rt, "r1")
	for i := 0; i < 5; i++ {
		resp, err := http.Post(tc.c.Base+"/query", "application/json",
			strings.NewReader(fmt.Sprintf(`{"sql":%q,"tenant":%q}`, testQuery, tn)))
		if err != nil {
			t.Fatal(err)
		}
		got := resp.Header.Get("X-Raven-Replica")
		resp.Body.Close()
		if got != "r1" {
			t.Fatalf("query %d for tenant %s routed to %q, want r1", i, tn, got)
		}
	}

	// Mixed side-effect + SELECT scripts are refused, not diverged —
	// whatever whitespace or comment surrounds the keyword — and none of
	// their side effects reaches a replica.
	for _, script := range []string{
		"INSERT INTO pts VALUES (999, 1.0, 2.0); SELECT * FROM pts",
		"INSERT\nINTO pts VALUES (999, 1.0, 2.0); SELECT * FROM pts",
		"CREATE\tTABLE leaked (a INT); SELECT * FROM pts",
		"-- load\nINSERT INTO pts VALUES (999, 1.0, 2.0); SELECT * FROM pts",
	} {
		err := tc.c.Exec(script)
		var he *server.HTTPError
		if err == nil || !asHTTP(err, &he) || he.Status != http.StatusBadRequest {
			t.Fatalf("mixed script %q: got %v, want 400", script, err)
		}
	}
	for _, r := range tc.reps {
		rc := &server.Client{Base: r.Base, Timeout: 5 * time.Second}
		res, err := rc.Query(server.QueryRequest{SQL: "SELECT COUNT(*) AS n FROM pts"})
		if err != nil || fmt.Sprint(res.Rows[0][0]) != "64" {
			t.Fatalf("replica %s: a refused script's INSERT landed (err %v, rows %v)", r.Name, err, res)
		}
		if _, err := rc.Query(server.QueryRequest{SQL: "SELECT * FROM leaked"}); err == nil {
			t.Fatalf("replica %s: a refused script's CREATE TABLE landed", r.Name)
		}
	}

	// A model stored through the router predicts identically on every
	// replica, ad hoc and through one router-prepared statement executed
	// for a tenant homed on each.
	blob, err := ml.Marshal(&ml.Pipeline{
		// One split on x, so PREDICT over ids 0..15 (x = id/2) hits both leaves.
		Final: &ml.DecisionTree{
			NFeat: 2, Feature: []int{0, -1, -1}, Threshold: []float64{3, 0, 0},
			Left: []int{1, -1, -1}, Right: []int{2, -1, -1}, Value: []float64{0, 1, 2},
		},
		InputColumns: []string{"x", "y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.c.StoreModel(context.Background(), server.ModelRequest{Name: "m", Data: blob}); err != nil {
		t.Fatalf("replicated model store: %v", err)
	}
	const predictSQL = `SELECT d.id, p.score FROM PREDICT(MODEL='m',
		DATA=(SELECT * FROM pts) AS d) WITH (score FLOAT) AS p WHERE d.id < 16`
	ref, err := tc.c.Query(server.QueryRequest{SQL: predictSQL})
	if err != nil || len(ref.Rows) != 16 {
		t.Fatalf("routed predict: %v, %d rows, want 16", err, len(ref.Rows))
	}
	pr, err := tc.c.Prepare(server.QueryRequest{SQL: predictSQL})
	if err != nil {
		t.Fatalf("router prepare: %v", err)
	}
	for _, r := range tc.reps {
		rc := &server.Client{Base: r.Base, Timeout: 5 * time.Second}
		direct, err := rc.Query(server.QueryRequest{SQL: predictSQL})
		if err != nil || direct.Fingerprint() != ref.Fingerprint() {
			t.Fatalf("replica %s predict diverges from the routed result (err %v)", r.Name, err)
		}
		res, err := tc.c.StmtQuery(pr.ID, server.QueryRequest{Tenant: tenantHomedOn(tc.rt, r.Name)})
		if err != nil || res.Fingerprint() != ref.Fingerprint() {
			t.Fatalf("prepared predict homed on %s diverges from ad hoc (err %v)", r.Name, err)
		}
	}
	if st := tc.rt.Stats(context.Background()); st.Router.Members != 2 || st.Router.LogEntries != 2 {
		t.Fatalf("cluster stats: %d members, %d log entries, want 2 and 2 (DDL + model)", st.Router.Members, st.Router.LogEntries)
	}

	tc.close(t)
	assertGoroutinesReturn(t, base)
}

// TestReplicaResultCacheFreshThroughRouter: the router keeps no cache
// of its own, so a repeated read through it is answered by the serving
// replica's engine result cache, and a write replicated through the
// router is visible to the very next read — ad hoc and prepared.
func TestReplicaResultCacheFreshThroughRouter(t *testing.T) {
	tc := newTestClusterOpts(t, 2, Options{ProbeInterval: 50 * time.Millisecond}, raven.WithResultCache(1<<20))
	defer tc.close(t)
	tc.seedData(t, 40)
	tn := tenantHomedOn(tc.rt, "r1")
	pr, err := tc.c.Prepare(server.QueryRequest{SQL: "SELECT id FROM pts WHERE id >= @lo", Tenant: tn})
	if err != nil {
		t.Fatal(err)
	}
	read := func(path, body string) (replica string, rows int) {
		t.Helper()
		resp, err := http.Post(tc.c.Base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, err %v: %s", path, resp.StatusCode, err, b)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "[") {
				rows++
			}
		}
		return resp.Header.Get("X-Raven-Replica"), rows
	}
	hits := func(name string) uint64 {
		for _, r := range tc.reps {
			if r.Name == name {
				return r.DB.Stats().ResultCache.Hits
			}
		}
		t.Fatalf("no replica %q", name)
		return 0
	}
	adhoc := func() (string, int) {
		return read("/query", fmt.Sprintf(`{"sql":"SELECT id FROM pts","tenant":%q}`, tn))
	}
	prepared := func() (string, int) {
		return read("/stmt/"+pr.ID+"/query", `{"params":{"lo":"10"}}`)
	}
	for _, c := range []struct {
		name       string // each case inserts one row matching both reads
		read       func() (string, int)
		cold, warm int
	}{{"ad hoc", adhoc, 40, 41}, {"prepared", prepared, 31, 32}} { // prepared: ids 10..39 and the ad hoc insert
		rep, n := c.read()
		if rep != "r1" || n != c.cold {
			t.Fatalf("%s cold read: replica %q, %d rows; want r1, %d", c.name, rep, n, c.cold)
		}
		before := hits(rep)
		if rep, n = c.read(); rep != "r1" || n != c.cold {
			t.Fatalf("%s repeat read: replica %q, %d rows; want r1, %d", c.name, rep, n, c.cold)
		}
		if hits(rep) <= before {
			t.Fatalf("%s repeat read was not a result-cache hit on %s", c.name, rep)
		}
		if err := tc.c.Exec(fmt.Sprintf("INSERT INTO pts VALUES (%d, 1, 1)", 100+c.cold)); err != nil {
			t.Fatal(err)
		}
		if _, n = c.read(); n != c.warm {
			t.Fatalf("%s read after a replicated INSERT: %d rows, want %d (stale cache hit)", c.name, n, c.warm)
		}
	}
}

func asHTTP(err error, out **server.HTTPError) bool {
	he, ok := err.(*server.HTTPError)
	if ok {
		*out = he
	}
	return ok
}

// TestKillRetryRestartRepair is the crash-recovery arc: kill a replica
// under traffic (reads re-route), restart it empty on the same address
// (the router detects the catalog-version regression), and verify the
// reconciler replays the replication log before routing to it again.
func TestKillRetryRestartRepair(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx := context.Background()
	tc := newTestCluster(t, 2)
	tc.seedData(t, 64)

	tn := tenantHomedOn(tc.rt, "r1")
	ref, err := tc.c.Query(server.QueryRequest{SQL: testQuery, Tenant: tn})
	if err != nil {
		t.Fatal(err)
	}

	// Kill the tenant's home replica mid-everything. New reads for the
	// tenant must keep succeeding: the router's first attempt hits the
	// dead replica, fails at transport level, and retries onto the
	// survivor.
	addr := tc.reps[1].Addr()
	tc.reps[1].Kill()
	for i := 0; i < 3; i++ {
		res, err := tc.c.Query(server.QueryRequest{SQL: testQuery, Tenant: tn})
		if err != nil {
			t.Fatalf("read %d after kill: %v", i, err)
		}
		if res.Fingerprint() != ref.Fingerprint() {
			t.Fatalf("read %d after kill diverged", i)
		}
	}
	if got := tc.rt.Stats(ctx).Router.Retried; got == 0 {
		t.Fatal("router reports zero retries after routing past a dead replica")
	}

	// Two failed probes mark it down; reads still fine.
	tc.rt.ProbeNow(ctx)
	tc.rt.ProbeNow(ctx)
	st := tc.rt.Stats(ctx)
	if st.Members[1].State != "down" {
		t.Fatalf("killed replica state = %s, want down", st.Members[1].State)
	}
	if st.Router.Healthy != 1 {
		t.Fatalf("healthy = %d, want 1", st.Router.Healthy)
	}

	// Restart "the process" empty on the same address: the probe sees
	// the catalog version regress, wipes replication progress, and
	// replays the whole log — the replica is fully reconstructed from
	// the router's side-effect history before it takes traffic.
	rep, err := SpawnReplicaOn("r1", addr, server.Options{},
		raven.WithParallelism(1), raven.WithMaxConcurrentQueries(4), raven.WithSchedulerQueue(32, 5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	tc.reps[1] = rep
	tc.rt.ProbeNow(ctx)
	st = tc.rt.Stats(ctx)
	if st.Members[1].State != "healthy" {
		t.Fatalf("restarted replica state = %s, want healthy (repaired)", st.Members[1].State)
	}
	if st.Router.Repairs == 0 {
		t.Fatal("router reports zero repairs after a restart")
	}

	// The restarted replica answers the tenant's reads itself, with the
	// same bytes.
	rc := &server.Client{Base: rep.Base, Timeout: 5 * time.Second}
	res, err := rc.Query(server.QueryRequest{SQL: testQuery})
	if err != nil {
		t.Fatalf("restarted replica direct read: %v", err)
	}
	if res.Fingerprint() != ref.Fingerprint() {
		t.Fatal("restarted replica serves different data after repair")
	}

	tc.close(t)
	assertGoroutinesReturn(t, base)
}

// TestStmtReprepareAfterRestart: a router-prepared statement keeps
// working for a tenant whose home replica restarted — the replica 404s
// (its registry died), the router re-prepares transparently.
func TestStmtReprepareAfterRestart(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx := context.Background()
	tc := newTestCluster(t, 2)
	tc.seedData(t, 64)

	pr, err := tc.c.Prepare(server.QueryRequest{SQL: testQuery})
	if err != nil {
		t.Fatal(err)
	}
	tn := tenantHomedOn(tc.rt, "r0")
	ref, err := tc.c.StmtQuery(pr.ID, server.QueryRequest{Tenant: tn})
	if err != nil {
		t.Fatal(err)
	}

	addr := tc.reps[0].Addr()
	tc.reps[0].Kill()
	rep, err := SpawnReplicaOn("r0", addr, server.Options{},
		raven.WithParallelism(1), raven.WithMaxConcurrentQueries(4), raven.WithSchedulerQueue(32, 5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	tc.reps[0] = rep
	tc.rt.ProbeNow(ctx) // regression detected, log replayed, stmt ids wiped

	res, err := tc.c.StmtQuery(pr.ID, server.QueryRequest{Tenant: tn})
	if err != nil {
		t.Fatalf("stmt exec after home restart: %v", err)
	}
	if res.Fingerprint() != ref.Fingerprint() {
		t.Fatal("stmt result diverged across restart")
	}

	tc.close(t)
	assertGoroutinesReturn(t, base)
}

// TestDrainUnderLoad: graceful drain of one replica while 4 workers
// hammer the router — zero failed queries, zero divergent results, and
// the drained replica's in-flight work finishes (its Close errors if
// the engine drain does).
func TestDrainUnderLoad(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx := context.Background()
	tc := newTestCluster(t, 2)
	tc.seedData(t, 64)
	tc.rt.Start() // background reconciler: the drain must be probe-visible

	ref, err := tc.c.Query(server.QueryRequest{SQL: testQuery})
	if err != nil {
		t.Fatal(err)
	}
	tenants := []string{tenantHomedOn(tc.rt, "r0"), tenantHomedOn(tc.rt, "r1")}

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		qerrs   []error
		queries int
		done    = make(chan struct{})
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tn := tenants[w%2]
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := tc.c.Query(server.QueryRequest{SQL: testQuery, Tenant: tn})
				mu.Lock()
				queries++
				if err != nil {
					qerrs = append(qerrs, fmt.Errorf("tenant %s: %w", tn, err))
				} else if res.Fingerprint() != ref.Fingerprint() {
					qerrs = append(qerrs, fmt.Errorf("tenant %s: diverged", tn))
				}
				mu.Unlock()
			}
		}(w)
	}
	time.Sleep(150 * time.Millisecond)
	dctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	if err := tc.reps[1].Close(dctx); err != nil {
		t.Errorf("graceful drain: %v", err)
	}
	cancel()
	time.Sleep(250 * time.Millisecond)
	close(done)
	wg.Wait()

	if len(qerrs) > 0 {
		t.Fatalf("%d of %d queries failed across the drain; first: %v", len(qerrs), queries, qerrs[0])
	}
	if queries < 8 {
		t.Fatalf("only %d queries ran; drain window carried no load", queries)
	}

	tc.close(t, 0) // replica 1 already closed
	assertGoroutinesReturn(t, base)
}

// TestFailingReplicationEntry: a side-effect script that every replica
// rejects (here: a duplicate CREATE TABLE, a terminal 400) must fail
// fast with the replica's verdict and leave the cluster untouched. The
// regression this pins down: the entry used to be appended to the
// never-truncated log before fan-out, so one bad DDL degraded every
// member and the reconciler replayed the failing entry forever — no
// member ever returned to healthy and all reads died.
func TestFailingReplicationEntry(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx := context.Background()
	tc := newTestCluster(t, 2)
	tc.seedData(t, 16)

	head := tc.rt.logHead()
	err := tc.c.Exec("CREATE TABLE pts (id INT, x FLOAT, y FLOAT)")
	var he *server.HTTPError
	if err == nil || !asHTTP(err, &he) || he.Status != http.StatusBadRequest {
		t.Fatalf("duplicate CREATE through router: got %v, want the replica's 400 back", err)
	}
	if got := tc.rt.logHead(); got != head {
		t.Fatalf("failing entry entered the replication log: head %d -> %d", head, got)
	}

	// Nobody was degraded by the bad script and reconciling stays
	// converged: reads keep working cluster-wide.
	tc.rt.ProbeNow(ctx)
	st := tc.rt.Stats(ctx)
	if st.Router.Healthy != 2 {
		t.Fatalf("healthy = %d after a rejected script, want 2", st.Router.Healthy)
	}
	for _, mi := range st.Members {
		if mi.State != "healthy" {
			t.Fatalf("member %s state = %s after a rejected script, want healthy", mi.Name, mi.State)
		}
	}
	if _, err := tc.c.Query(server.QueryRequest{SQL: testQuery}); err != nil {
		t.Fatalf("read after rejected script: %v", err)
	}

	// Replication still works afterwards — the log was not poisoned.
	if err := tc.c.Exec("CREATE TABLE after_bad (id INT); INSERT INTO after_bad VALUES (1)"); err != nil {
		t.Fatalf("good DDL after rejected script: %v", err)
	}
	for i, r := range tc.reps {
		rc := &server.Client{Base: r.Base, Timeout: 5 * time.Second}
		res, err := rc.Query(server.QueryRequest{SQL: "SELECT COUNT(*) AS n FROM after_bad"})
		if err != nil {
			t.Fatalf("replica %d missing post-failure table: %v", i, err)
		}
		if fmt.Sprint(res.Rows[0][0]) != "1" {
			t.Fatalf("replica %d: after_bad has %v rows, want 1", i, res.Rows[0][0])
		}
	}

	tc.close(t)
	assertGoroutinesReturn(t, base)
}

// TestHeaderTagsForwarded: the router must forward X-Raven-Tenant and
// X-Raven-Priority to the replica. The replica gives headers precedence
// over the body exactly so a fronting proxy can tag untrusted clients —
// if the router drops them it routes by the header tenant while the
// replica admits and bills the (often empty) body tenant, silently
// bypassing per-tenant quotas and priority.
func TestHeaderTagsForwarded(t *testing.T) {
	var mu sync.Mutex
	var gotTenant, gotPriority string
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(server.Health{Status: "ok", CatalogVersion: 1})
	})
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		gotTenant = r.Header.Get("X-Raven-Tenant")
		gotPriority = r.Header.Get("X-Raven-Priority")
		mu.Unlock()
		fmt.Fprint(w, `{"columns":["a"],"types":["INT"]}`+"\n[1]\n"+`{"rows":1,"compile_ms":0,"exec_ms":0}`+"\n")
	})
	rep := httptest.NewServer(mux)
	defer rep.Close()

	rt := New(Options{})
	defer rt.Close()
	if err := rt.AddMember("only", rep.URL); err != nil {
		t.Fatal(err)
	}
	rt.ProbeNow(context.Background())
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	req, err := http.NewRequest(http.MethodPost, front.URL+"/query",
		strings.NewReader(`{"sql":"SELECT a FROM t"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Raven-Tenant", "alice")
	req.Header.Set("X-Raven-Priority", "7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed query: status %d", resp.StatusCode)
	}
	mu.Lock()
	defer mu.Unlock()
	if gotTenant != "alice" || gotPriority != "7" {
		t.Fatalf("replica saw tenant=%q priority=%q, want alice/7 — admission headers dropped in proxying", gotTenant, gotPriority)
	}
}

// TestHedgedRequests: with hedging on, a read whose first replica
// stalls past the observed p99 is raced on the second and the fast
// response wins.
func TestHedgedRequests(t *testing.T) {
	newFake := func(delay time.Duration) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
			json.NewEncoder(w).Encode(server.Health{Status: "ok", CatalogVersion: 1})
		})
		mux.HandleFunc("POST /query", func(w http.ResponseWriter, _ *http.Request) {
			time.Sleep(delay)
			fmt.Fprint(w, `{"columns":["a"],"types":["INT"]}`+"\n[1]\n"+`{"rows":1,"compile_ms":0,"exec_ms":0}`+"\n")
		})
		return httptest.NewServer(mux)
	}
	slow := newFake(400 * time.Millisecond)
	defer slow.Close()
	fast := newFake(0)
	defer fast.Close()

	rt := New(Options{Hedge: true})
	defer rt.Close()
	if err := rt.AddMember("slow", slow.URL); err != nil {
		t.Fatal(err)
	}
	if err := rt.AddMember("fast", fast.URL); err != nil {
		t.Fatal(err)
	}
	rt.ProbeNow(context.Background())
	for range hedgeMinSamples { // prime the p99 estimate
		rt.lat.record(10 * time.Millisecond)
	}

	// A tenant homed on the slow replica.
	tn := tenantHomedOn(rt, "slow")
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	start := time.Now()
	resp, err := http.Post(front.URL+"/query", "application/json",
		strings.NewReader(fmt.Sprintf(`{"sql":"SELECT a FROM t","tenant":%q}`, tn)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if took := time.Since(start); took > 300*time.Millisecond {
		t.Fatalf("hedged read took %v — waited out the slow replica instead of hedging", took)
	}
	if got := resp.Header.Get("X-Raven-Replica"); got != "fast" {
		t.Fatalf("winner = %q, want the hedge target (fast)", got)
	}
	st := rt.Stats(context.Background())
	if st.Router.Hedged == 0 || st.Router.HedgeWins == 0 {
		t.Fatalf("hedge counters not incremented: hedged=%d wins=%d", st.Router.Hedged, st.Router.HedgeWins)
	}
}

// TestSpillOver (white box): a saturated home queue reorders targets to
// the least-loaded replica.
func TestSpillOver(t *testing.T) {
	rt := New(Options{SpillQueueDepth: 4})
	defer rt.Close()
	if err := rt.AddMember("a", "http://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if err := rt.AddMember("b", "http://127.0.0.1:2"); err != nil {
		t.Fatal(err)
	}
	tn := tenantHomedOn(rt, "a")
	ma, mb := rt.members["a"], rt.members["b"]
	ma.setState(StateHealthy)
	mb.setState(StateHealthy)

	// Unsaturated: home leads.
	if got := rt.targetsFor(tn)[0]; got != ma {
		t.Fatalf("unsaturated: home is %s, want a", got.name)
	}
	// Saturate the home's probed queue: spill to b.
	ma.probeMu.Lock()
	ma.health.Queue = 10
	ma.probeMu.Unlock()
	if got := rt.targetsFor(tn)[0]; got != mb {
		t.Fatalf("saturated: leads with %s, want spill to b", got.name)
	}
	if rt.spilled.Load() == 0 {
		t.Fatal("spill counter not incremented")
	}
	// Draining members drop out of the target set entirely.
	mb.setState(StateDraining)
	targets := rt.targetsFor(tn)
	if len(targets) != 1 || targets[0] != ma {
		t.Fatalf("draining member still targeted: %v", targets)
	}
}
