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
	"raven/internal/server/reqopt"
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

func newTestCluster(t *testing.T, n int, extra ...raven.Option) *testCluster {
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
	tc.rt = New()
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
	if err := tc.c.ExecContext(context.Background(), ddl.String()); err != nil {
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
		res, err := rc.QueryContext(context.Background(), server.QueryRequest{SQL: "SELECT COUNT(*) AS n FROM pts"})
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
		err := tc.c.ExecContext(context.Background(), script)
		var he *server.HTTPError
		if err == nil || !asHTTP(err, &he) || he.Status != http.StatusBadRequest {
			t.Fatalf("mixed script %q: got %v, want 400", script, err)
		}
	}
	for _, r := range tc.reps {
		rc := &server.Client{Base: r.Base, Timeout: 5 * time.Second}
		res, err := rc.QueryContext(context.Background(), server.QueryRequest{SQL: "SELECT COUNT(*) AS n FROM pts"})
		if err != nil || fmt.Sprint(res.Rows[0][0]) != "64" {
			t.Fatalf("replica %s: a refused script's INSERT landed (err %v, rows %v)", r.Name, err, res)
		}
		if _, err := rc.QueryContext(context.Background(), server.QueryRequest{SQL: "SELECT * FROM leaked"}); err == nil {
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
	ref, err := tc.c.QueryContext(context.Background(), server.QueryRequest{SQL: predictSQL})
	if err != nil || len(ref.Rows) != 16 {
		t.Fatalf("routed predict: %v, %d rows, want 16", err, len(ref.Rows))
	}
	pr, err := tc.c.PrepareContext(context.Background(), server.QueryRequest{SQL: predictSQL}, nil)
	if err != nil {
		t.Fatalf("router prepare: %v", err)
	}
	for _, r := range tc.reps {
		rc := &server.Client{Base: r.Base, Timeout: 5 * time.Second}
		direct, err := rc.QueryContext(context.Background(), server.QueryRequest{SQL: predictSQL})
		if err != nil || direct.Fingerprint() != ref.Fingerprint() {
			t.Fatalf("replica %s predict diverges from the routed result (err %v)", r.Name, err)
		}
		res, err := tc.c.StmtQueryContext(context.Background(), pr.ID, server.QueryRequest{Tenant: tenantHomedOn(tc.rt, r.Name)})
		if err != nil || res.Fingerprint() != ref.Fingerprint() {
			t.Fatalf("prepared predict homed on %s diverges from ad hoc (err %v)", r.Name, err)
		}
	}
	if st := tc.rt.Stats(); st.Router.Members != 2 || st.Router.LogEntries != 2 {
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
	tc := newTestCluster(t, 2, raven.WithResultCache(1<<20))
	defer tc.close(t)
	tc.seedData(t, 40)
	tn := tenantHomedOn(tc.rt, "r1")
	pr, err := tc.c.PrepareContext(context.Background(), server.QueryRequest{SQL: "SELECT id FROM pts WHERE id >= @lo", Tenant: tn}, nil)
	if err != nil {
		t.Fatal(err)
	}
	read := func(path, body string, noCache bool) (replica string, rows int) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, tc.c.Base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if noCache {
			req.Header.Set(reqopt.HeaderNoCache, "1")
		}
		resp, err := http.DefaultClient.Do(req)
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
	adhoc := func(noCache bool) (string, int) {
		return read("/query", fmt.Sprintf(`{"sql":"SELECT id FROM pts","tenant":%q}`, tn), noCache)
	}
	prepared := func(noCache bool) (string, int) {
		return read("/stmt/"+pr.ID+"/query", `{"params":{"lo":"10"}}`, noCache)
	}
	for _, c := range []struct {
		name       string // each case inserts one row matching both reads
		read       func(noCache bool) (string, int)
		cold, warm int
	}{{"ad hoc", adhoc, 40, 41}, {"prepared", prepared, 31, 32}} { // prepared: ids 10..39 and the ad hoc insert
		rep, n := c.read(false)
		if rep != "r1" || n != c.cold {
			t.Fatalf("%s cold read: replica %q, %d rows; want r1, %d", c.name, rep, n, c.cold)
		}
		before := hits(rep)
		if rep, n = c.read(false); rep != "r1" || n != c.cold {
			t.Fatalf("%s repeat read: replica %q, %d rows; want r1, %d", c.name, rep, n, c.cold)
		}
		if hits(rep) <= before {
			t.Fatalf("%s repeat read was not a result-cache hit on %s", c.name, rep)
		}
		// X-Raven-No-Cache reaches the replica through the router: the
		// same read bypasses the cache there, as it does sent directly.
		before = hits(rep)
		if rep, n = c.read(true); rep != "r1" || n != c.cold {
			t.Fatalf("%s no-cache read: replica %q, %d rows; want r1, %d", c.name, rep, n, c.cold)
		}
		if hits(rep) != before {
			t.Fatalf("%s read with %s: 1 was a result-cache hit on %s", c.name, reqopt.HeaderNoCache, rep)
		}
		if err := tc.c.ExecContext(context.Background(), fmt.Sprintf("INSERT INTO pts VALUES (%d, 1, 1)", 100+c.cold)); err != nil {
			t.Fatal(err)
		}
		if _, n = c.read(false); n != c.warm {
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
	ref, err := tc.c.QueryContext(context.Background(), server.QueryRequest{SQL: testQuery, Tenant: tn})
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
		res, err := tc.c.QueryContext(context.Background(), server.QueryRequest{SQL: testQuery, Tenant: tn})
		if err != nil {
			t.Fatalf("read %d after kill: %v", i, err)
		}
		if res.Fingerprint() != ref.Fingerprint() {
			t.Fatalf("read %d after kill diverged", i)
		}
	}
	if got := tc.rt.Stats().Router.Retried; got == 0 {
		t.Fatal("router reports zero retries after routing past a dead replica")
	}

	// Two failed probes mark it down; reads still fine.
	tc.rt.ProbeNow(ctx)
	tc.rt.ProbeNow(ctx)
	st := tc.rt.Stats()
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
	st = tc.rt.Stats()
	if st.Members[1].State != "healthy" {
		t.Fatalf("restarted replica state = %s, want healthy (repaired)", st.Members[1].State)
	}
	if st.Router.Repairs == 0 {
		t.Fatal("router reports zero repairs after a restart")
	}

	// The restarted replica answers the tenant's reads itself, with the
	// same bytes.
	rc := &server.Client{Base: rep.Base, Timeout: 5 * time.Second}
	res, err := rc.QueryContext(context.Background(), server.QueryRequest{SQL: testQuery})
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

	pr, err := tc.c.PrepareContext(context.Background(), server.QueryRequest{SQL: testQuery}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tn := tenantHomedOn(tc.rt, "r0")
	ref, err := tc.c.StmtQueryContext(context.Background(), pr.ID, server.QueryRequest{Tenant: tn})
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

	res, err := tc.c.StmtQueryContext(context.Background(), pr.ID, server.QueryRequest{Tenant: tn})
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
	// A reconciler on a 50ms tick: the drain must be probe-visible.
	stopProbes, probesDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(probesDone)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopProbes:
				return
			case <-tick.C:
				tc.rt.ProbeNow(ctx)
			}
		}
	}()

	ref, err := tc.c.QueryContext(context.Background(), server.QueryRequest{SQL: testQuery})
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
				res, err := tc.c.QueryContext(context.Background(), server.QueryRequest{SQL: testQuery, Tenant: tn})
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
	close(stopProbes)
	<-probesDone

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
	err := tc.c.ExecContext(context.Background(), "CREATE TABLE pts (id INT, x FLOAT, y FLOAT)")
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
	st := tc.rt.Stats()
	if st.Router.Healthy != 2 {
		t.Fatalf("healthy = %d after a rejected script, want 2", st.Router.Healthy)
	}
	for _, mi := range st.Members {
		if mi.State != "healthy" {
			t.Fatalf("member %s state = %s after a rejected script, want healthy", mi.Name, mi.State)
		}
	}
	if _, err := tc.c.QueryContext(context.Background(), server.QueryRequest{SQL: testQuery}); err != nil {
		t.Fatalf("read after rejected script: %v", err)
	}

	// Replication still works afterwards — the log was not poisoned.
	if err := tc.c.ExecContext(context.Background(), "CREATE TABLE after_bad (id INT); INSERT INTO after_bad VALUES (1)"); err != nil {
		t.Fatalf("good DDL after rejected script: %v", err)
	}
	for i, r := range tc.reps {
		rc := &server.Client{Base: r.Base, Timeout: 5 * time.Second}
		res, err := rc.QueryContext(context.Background(), server.QueryRequest{SQL: "SELECT COUNT(*) AS n FROM after_bad"})
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

// TestHeaderTagsForwarded: the router must forward every request-option
// header (reqopt.Headers) to the replica, on every route that reaches
// one. The replica gives headers precedence over the body exactly so a
// fronting proxy can tag untrusted clients — a header the router drops
// silently bypasses per-tenant quotas, the result-cache bypass, the
// requested DOP or the deadline.
func TestHeaderTagsForwarded(t *testing.T) {
	want := map[string]string{
		reqopt.HeaderTenant:    "alice",
		reqopt.HeaderDOP:       "2",
		reqopt.HeaderTimeoutMS: "9000",
		reqopt.HeaderNoCache:   "1",
	}
	if len(want) != len(reqopt.Headers) {
		t.Fatalf("test covers %d headers, reqopt has %d", len(want), len(reqopt.Headers))
	}
	var mu sync.Mutex
	seen := map[string]http.Header{} // replica route -> headers it got
	const stream = `{"columns":["a"],"types":["INT"]}` + "\n[1]\n" + `{"rows":1,"compile_ms":0,"exec_ms":0}` + "\n"
	answer := func(route, body string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seen[route] = r.Header.Clone()
			mu.Unlock()
			fmt.Fprint(w, body)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(server.Health{Status: "ok", CatalogVersion: 1})
	})
	mux.HandleFunc("POST /query", answer("/query", stream))
	mux.HandleFunc("POST /prepare", answer("/prepare", `{"id":"s1"}`))
	mux.HandleFunc("POST /stmt/s1/query", answer("/stmt/{id}/query", stream))
	rep := httptest.NewServer(mux)
	defer rep.Close()

	rt := New()
	defer rt.Close()
	if err := rt.AddMember("only", rep.URL); err != nil {
		t.Fatal(err)
	}
	rt.ProbeNow(context.Background())
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	post := func(path, body string) []byte {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, front.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for h, v := range want {
			req.Header.Set(h, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("routed %s: status %d: %s", path, resp.StatusCode, b)
		}
		return b
	}
	post("/query", `{"sql":"SELECT a FROM t"}`)
	var pr server.PrepareResponse
	if err := json.Unmarshal(post("/prepare", `{"sql":"SELECT a FROM t"}`), &pr); err != nil {
		t.Fatal(err)
	}
	post("/stmt/"+pr.ID+"/query", `{}`)

	mu.Lock()
	defer mu.Unlock()
	for _, route := range []string{"/query", "/prepare", "/stmt/{id}/query"} {
		for h, v := range want {
			if got := seen[route].Get(h); got != v {
				t.Errorf("replica %s saw %s=%q, want %q — dropped in proxying", route, h, got, v)
			}
		}
	}
}

// TestRouterRefusesLikeReplica: the router decodes bodies with the
// replica's decoder, so a body a replica refuses — a field the protocol
// does not have (TestRemovedWireOptionsRejected's inputs), or one past
// the size limit — gets the replica's status and error from the router
// too, instead of being re-encoded without the field and accepted. A
// script the validating replica refuses gets that replica's answer.
func TestRouterRefusesLikeReplica(t *testing.T) {
	tc := newTestCluster(t, 1)
	defer tc.close(t)
	if err := tc.c.ExecContext(context.Background(), `CREATE TABLE w (a INT); INSERT INTO w VALUES (1), (2)`); err != nil {
		t.Fatal(err)
	}
	blob, err := ml.Marshal(&ml.Pipeline{
		Final:        &ml.DecisionTree{NFeat: 1, Feature: []int{-1}, Threshold: []float64{0}, Left: []int{-1}, Right: []int{-1}, Value: []float64{1}},
		InputColumns: []string{"a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, _ := json.Marshal(blob)
	post := func(base, path, body string, hdr ...string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(hdr); i += 2 {
			req.Header.Set(hdr[i], hdr[i+1])
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	// same posts body (and the header name/value pairs hdr) to the
	// replica and to the router and wants one answer from both.
	same := func(path, body string, want int, hdr ...string) {
		t.Helper()
		dc, db := post(tc.reps[0].Base, path, body, hdr...)
		rc, rb := post(tc.c.Base, path, body, hdr...)
		if dc != want || rc != dc || rb != db {
			t.Errorf("%s %.60q %q: replica %d %q, router %d %q; want both %d with one error", path, body, hdr, dc, db, rc, rb, want)
		}
	}
	for _, field := range []string{`"morsel_size":1`, `"parallel_threshold_rows":1`, `"disable_plan_cache":true`} {
		q := fmt.Sprintf(`{"sql":"SELECT a FROM w","options":{"parallelism":2,%s}}`, field)
		same("/query", q, http.StatusBadRequest)
		same("/prepare", q, http.StatusBadRequest)
		same("/model", fmt.Sprintf(`{"name":"m","data":%s,%s}`, data, field), http.StatusBadRequest)
	}
	// Admission is first come, first served: a priority, in the body or
	// as a header, is refused the same way on every route.
	for _, path := range []string{"/query", "/prepare"} {
		same(path, `{"sql":"SELECT a FROM w","priority":3}`, http.StatusBadRequest)
		same(path, `{"sql":"SELECT a FROM w"}`, http.StatusBadRequest, "X-Raven-Priority", "3")
	}
	same("/model", fmt.Sprintf(`{"name":"m","data":%s}`, data), http.StatusBadRequest, "X-Raven-Priority", "3")
	// Text that does not parse, and an INSERT into no table, classify as
	// side effects; the replica validating them answers the refusal.
	same("/query", `{"sql":"SELEC 1"}`, http.StatusBadRequest)
	same("/query", `{"sql":"INSERT INTO nosuch VALUES (1)"}`, http.StatusBadRequest)
	// A DECLARE-only script classifies as a side effect too, and a
	// replica refuses it: a variable binds only within its own script.
	same("/query", `{"sql":"DECLARE @lo = '5'"}`, http.StatusBadRequest)
	// Past 4 MiB a query body is refused unread, on both.
	huge := fmt.Sprintf(`{"sql":"SELECT a FROM w","params":{"x":%q}}`, strings.Repeat("a", 5<<20))
	same("/query", huge, http.StatusRequestEntityTooLarge)
	if st := tc.rt.Stats(); st.Router.LogEntries != 1 || st.Router.Statements != 0 {
		t.Fatalf("refused bodies reached the cluster: %d log entries, %d statements; want 1 and 0",
			st.Router.LogEntries, st.Router.Statements)
	}
}

// TestRelayKeepsFraming: a sized upstream answer is relayed sized, with
// the replica's bytes, and a chunked multi-batch stream is relayed whole
// and still chunked — from a stub replica, whose bytes are fixed, and
// from a real one.
func TestRelayKeepsFraming(t *testing.T) {
	const one = `{"columns":["a"],"types":["INT"]}` + "\n[1]\n" + `{"rows":1,"compile_ms":0,"exec_ms":0}` + "\n"
	var many strings.Builder
	many.WriteString(`{"columns":["a"],"types":["INT"]}` + "\n")
	for i := 0; i < 6000; i++ {
		fmt.Fprintf(&many, "[%d]\n", i)
	}
	many.WriteString(`{"rows":6000,"compile_ms":0,"exec_ms":0}` + "\n")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(server.Health{Status: "ok", CatalogVersion: 1})
	})
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		req, _, err := server.DecodeQuery(w, r, true)
		if err != nil || !strings.Contains(req.SQL, "many") {
			fmt.Fprint(w, one)
			return
		}
		// Two flushed batches, as streamRows sends a multi-batch result.
		half := many.Len() / 2
		fmt.Fprint(w, many.String()[:half])
		w.(http.Flusher).Flush()
		fmt.Fprint(w, many.String()[half:])
	})
	rep := httptest.NewServer(mux)
	defer rep.Close()
	rt := New()
	defer rt.Close()
	if err := rt.AddMember("only", rep.URL); err != nil {
		t.Fatal(err)
	}
	rt.ProbeNow(context.Background())
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	post := func(base, sql string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(base+"/query", "application/json", strings.NewReader(fmt.Sprintf(`{"sql":%q}`, sql)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %q: status %d, %v: %s", base, sql, resp.StatusCode, err, b)
		}
		return resp, string(b)
	}
	for _, tc := range []struct {
		sql   string
		sized bool
	}{{"SELECT a FROM one", true}, {"SELECT a FROM many", false}} {
		dresp, direct := post(rep.URL, tc.sql)
		rresp, routed := post(front.URL, tc.sql)
		if routed != direct {
			t.Errorf("%s: routed body differs from the replica's (%d vs %d bytes)", tc.sql, len(routed), len(direct))
		}
		if sized := rresp.ContentLength == int64(len(routed)); sized != tc.sized || (dresp.ContentLength >= 0) != tc.sized {
			t.Errorf("%s: Content-Length replica %d, router %d, body %d bytes; want sized=%v on both",
				tc.sql, dresp.ContentLength, rresp.ContentLength, len(routed), tc.sized)
		}
	}

	// A real replica's one-row answer arrives sized through the router;
	// only its trailer's timings may differ from the direct answer.
	cl := newTestCluster(t, 1)
	defer cl.close(t)
	cl.seedData(t, 40)
	const point = "SELECT id, x + y AS s FROM pts WHERE id = 3"
	_, direct := post(cl.reps[0].Base, point)
	rresp, routed := post(cl.c.Base, point)
	untimed := func(b string) string { return b[:strings.LastIndexByte(b[:len(b)-1], '\n')+1] }
	if rresp.ContentLength != int64(len(routed)) || untimed(routed) != untimed(direct) {
		t.Errorf("routed point: Content-Length %d of %d bytes, %q; want sized, %q", rresp.ContentLength, len(routed), routed, direct)
	}
}

// TestStartRoutesAtOnce: Start reconciles once before its loop, so a
// read issued right after it is routed instead of refused with 503 until
// the first probe tick.
func TestStartRoutesAtOnce(t *testing.T) {
	rep, err := SpawnReplica("r0", server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close(context.Background())
	rc := &server.Client{Base: rep.Base, Timeout: 5 * time.Second}
	if err := rc.ExecContext(context.Background(), `CREATE TABLE w (a INT); INSERT INTO w VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	rt := New()
	defer rt.Close()
	if err := rt.AddMember(rep.Name, rep.Base); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	resp, err := http.Post(front.URL+"/query", "application/json", strings.NewReader(`{"sql":"SELECT a FROM w"}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Raven-Replica") != "r0" {
		t.Fatalf("read right after Start: status %d from %q: %s", resp.StatusCode, resp.Header.Get("X-Raven-Replica"), b)
	}
}

// TestShedByAdmissionRetries: a replica sheds load one way, with its
// admission queue's 429, and the router retries that refusal on the
// next replica in rank order. The home here is a stub whose queue is
// always full; the other replica answers the read and is named in
// X-Raven-Replica.
func TestShedByAdmissionRetries(t *testing.T) {
	const stream = `{"columns":["a"],"types":["INT"]}` + "\n[1]\n" + `{"rows":1,"compile_ms":0,"exec_ms":0}` + "\n"
	stub := func(query http.HandlerFunc) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
			json.NewEncoder(w).Encode(server.Health{Status: "ok", CatalogVersion: 1})
		})
		mux.HandleFunc("POST /query", query)
		return httptest.NewServer(mux)
	}
	full := stub(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		server.WriteJSON(w, http.StatusTooManyRequests, server.ErrorLine{Error: "admission queue full"})
	})
	defer full.Close()
	free := stub(func(w http.ResponseWriter, _ *http.Request) { fmt.Fprint(w, stream) })
	defer free.Close()

	rt := New()
	defer rt.Close()
	for name, rep := range map[string]*httptest.Server{"a": full, "b": free} {
		if err := rt.AddMember(name, rep.URL); err != nil {
			t.Fatal(err)
		}
	}
	rt.ProbeNow(context.Background())
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	tn := tenantHomedOn(rt, "a")
	resp, err := http.Post(front.URL+"/query", "application/json", strings.NewReader(fmt.Sprintf(`{"sql":"SELECT a FROM t","tenant":%q}`, tn)))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(b) != stream || resp.Header.Get("X-Raven-Replica") != "b" {
		t.Fatalf("read homed on a full replica: status %d from %q: %q; want 200 from b", resp.StatusCode, resp.Header.Get("X-Raven-Replica"), b)
	}
	if got := rt.Stats().Router.Retried; got < 1 {
		t.Fatalf("retried = %d after a 429 from the home, want >= 1", got)
	}
}

// TestDrainingMemberLeavesTargets (white box): a draining member drops
// out of the target set; the home leads while it is routable.
func TestDrainingMemberLeavesTargets(t *testing.T) {
	rt := New()
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
	if targets := rt.targetsFor(tn); len(targets) != 2 || targets[0] != ma {
		t.Fatalf("targets %v, want home a first of two", targets)
	}
	mb.setState(StateDraining)
	targets := rt.targetsFor(tn)
	if len(targets) != 1 || targets[0] != ma {
		t.Fatalf("draining member still targeted: %v", targets)
	}
}
