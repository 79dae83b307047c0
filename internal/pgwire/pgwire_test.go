package pgwire

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"raven"
	"raven/internal/data"
	"raven/internal/ml"
	"raven/internal/server"
	"raven/internal/server/stmtreg"
	"raven/internal/train"
)

// newTestServer boots an engine + pg front end on a random port.
func newTestServer(t *testing.T, reg *stmtreg.Registry, opts ...raven.Option) (*raven.DB, *Server, string) {
	t.Helper()
	db, err := raven.Open(opts...)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := New(db, reg, Options{})
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != ErrServerClosed {
			t.Errorf("serve returned %v, want ErrServerClosed", err)
		}
		db.Close()
	})
	return db, s, ln.Addr().String()
}

func seedNums(t *testing.T, db *raven.DB) {
	t.Helper()
	err := db.ExecContext(context.Background(), `
		CREATE TABLE nums (a INT PRIMARY KEY, b FLOAT);
		INSERT INTO nums VALUES (1, 1.5), (2, 2.5), (3, 3.5), (4, 4.5);`)
	if err != nil {
		t.Fatalf("seed: %v", err)
	}
}

func dial(t *testing.T, addr string, o DialOptions) *Client {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if o.User == "" {
		o.User = "tester"
	}
	c, err := DialClient(ctx, addr, o)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestSimpleQuery(t *testing.T) {
	db, _, addr := newTestServer(t, nil)
	seedNums(t, db)
	c := dial(t, addr, DialOptions{})

	// Startup handshake delivered the session basics.
	if c.BackendPID == 0 {
		t.Fatal("no BackendKeyData pid")
	}
	if c.Params["server_encoding"] != "UTF8" {
		t.Fatalf("parameter statuses: %v", c.Params)
	}

	// DDL script: per-statement tags collapse to the script's last one.
	res, err := c.SimpleQuery(`CREATE TABLE t2 (x INT PRIMARY KEY); INSERT INTO t2 VALUES (1), (2)`)
	if err != nil {
		t.Fatalf("ddl: %v", err)
	}
	if len(res) != 1 || res[0].Tag != "INSERT 0 2" {
		t.Fatalf("ddl tags: %+v", res)
	}

	// SELECT: typed columns, decoded rows, SELECT n tag.
	res, err = c.SimpleQuery(`SELECT a, b FROM nums WHERE b > 2.0`)
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	r := res[0]
	if r.Tag != "SELECT 3" || len(r.Rows) != 3 {
		t.Fatalf("select: tag %q rows %v", r.Tag, r.Rows)
	}
	if r.Cols[0].OID != oidInt8 || r.Cols[1].OID != oidFloat8 {
		t.Fatalf("select: col oids %+v", r.Cols)
	}
	if r.Rows[0][0] != int64(2) || r.Rows[0][1] != 2.5 {
		t.Fatalf("select: first row %v", r.Rows[0])
	}

	// Empty query → EmptyQueryResponse, connection stays in step.
	if res, err = c.SimpleQuery("  "); err != nil || len(res) != 1 || res[0].Tag != "" {
		t.Fatalf("empty query: %v %v", res, err)
	}

	// Session-management shims ack with conventional tags.
	for script, tag := range map[string]string{
		`SET search_path = public`: "SET",
		`BEGIN`:                    "BEGIN",
		`COMMIT`:                   "COMMIT",
		`ROLLBACK`:                 "ROLLBACK",
	} {
		res, err := c.SimpleQuery(script)
		if err != nil || len(res) != 1 || res[0].Tag != tag {
			t.Fatalf("shim %q: %+v %v", script, res, err)
		}
	}

	// A parse error maps to SQLSTATE 42601 and the connection survives.
	_, err = c.SimpleQuery(`SELEC a FROM nums`)
	var pgErr *PgError
	if !errors.As(err, &pgErr) || pgErr.Code != "42601" {
		t.Fatalf("syntax error: want 42601, got %v", err)
	}
	if _, err := c.SimpleQuery(`SELECT a FROM nums`); err != nil {
		t.Fatalf("query after error: %v", err)
	}
}

func TestExtendedProtocolSequence(t *testing.T) {
	db, _, addr := newTestServer(t, nil)
	seedNums(t, db)
	c := dial(t, addr, DialOptions{})

	// Parse a named statement, bind with $1, describe the statement,
	// execute, sync — asserting the exact backend message sequence.
	c.SendParse("getnums", `SELECT a, b FROM nums WHERE a > $1`)
	arg := "2"
	c.SendBind("", "getnums", []*string{&arg})
	c.SendDescribe('S', "getnums")
	c.SendExecute("", 0)
	c.SendSync()

	want := []byte{msgParseComplete, msgBindComplete, msgParamDescription, msgRowDescription,
		msgDataRow, msgDataRow, msgCommandComplete, msgReadyForQuery}
	for i, w := range want {
		typ, payload, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if typ != w {
			t.Fatalf("message %d: got %q want %q", i, typ, w)
		}
		if typ == msgCommandComplete {
			m := &msgReader{b: payload}
			tag, _ := m.cstring()
			if tag != "SELECT 2" {
				t.Fatalf("tag %q, want SELECT 2", tag)
			}
		}
	}

	// The named statement persists across Syncs: QueryExtended over a new
	// unnamed statement still works, and the named one re-executes.
	res, err := c.QueryExtended(`SELECT b FROM nums WHERE a = $1`, "3")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != 3.5 {
		t.Fatalf("unnamed extended: %+v %v", res, err)
	}

	// Close the named statement: CloseComplete, then binding it fails.
	c.SendClose('S', "getnums")
	c.SendSync()
	if typ, _, err := c.Recv(); err != nil || typ != msgCloseComplete {
		t.Fatalf("close: %q %v", typ, err)
	}
	if typ, _, _ := c.Recv(); typ != msgReadyForQuery {
		t.Fatal("no RFQ after close")
	}
	c.SendBind("", "getnums", []*string{&arg})
	c.SendSync()
	typ, payload, err := c.Recv()
	if err != nil || typ != msgErrorResponse {
		t.Fatalf("bind closed stmt: %q %v", typ, err)
	}
	if e := parsePgError(payload); e.Code != "26000" {
		t.Fatalf("bind closed stmt: code %q, want 26000", e.Code)
	}
	if typ, _, _ := c.Recv(); typ != msgReadyForQuery {
		t.Fatal("no RFQ after 26000")
	}
}

func TestExtendedProtocolErrors(t *testing.T) {
	db, _, addr := newTestServer(t, nil)
	seedNums(t, db)
	c := dial(t, addr, DialOptions{})

	// Wrong arity: Bind supplies 0 params for a 1-param statement →
	// 08P01, and the pipelined Execute is skipped until Sync.
	c.SendParse("", `SELECT a FROM nums WHERE a > $1`)
	c.SendBind("", "", nil)
	c.SendExecute("", 0)
	c.SendSync()
	if typ, _, err := c.Recv(); err != nil || typ != msgParseComplete {
		t.Fatalf("parse: %q %v", typ, err)
	}
	typ, payload, err := c.Recv()
	if err != nil || typ != msgErrorResponse {
		t.Fatalf("bind: %q %v", typ, err)
	}
	if e := parsePgError(payload); e.Code != "08P01" || !strings.Contains(e.Message, "requires 1") {
		t.Fatalf("arity error: %+v", e)
	}
	// Execute was skipped: the next message is already ReadyForQuery.
	if typ, _, err := c.Recv(); err != nil || typ != msgReadyForQuery {
		t.Fatalf("after arity error: %q %v (Execute must be skipped)", typ, err)
	}

	// Unknown portal → 34000.
	c.SendExecute("ghost", 0)
	c.SendSync()
	typ, payload, _ = c.Recv()
	if typ != msgErrorResponse {
		t.Fatalf("execute ghost: %q", typ)
	}
	if e := parsePgError(payload); e.Code != "34000" {
		t.Fatalf("execute ghost: code %q, want 34000", e.Code)
	}
	c.Recv() // RFQ

	// Binary result format refused with 0A000.
	c.SendParse("", `SELECT a FROM nums`)
	c.buf.start(msgBind)
	c.buf.cstring("")
	c.buf.cstring("")
	c.buf.int16(0) // no param formats
	c.buf.int16(0) // no params
	c.buf.int16(1) // one result format code...
	c.buf.int16(1) // ...binary
	c.buf.finish(c.w)
	c.SendSync()
	c.Recv() // ParseComplete
	typ, payload, _ = c.Recv()
	if e := parsePgError(payload); typ != msgErrorResponse || e.Code != "0A000" {
		t.Fatalf("binary format: %q %+v", typ, e)
	}
	c.Recv() // RFQ

	// The connection is fully recovered.
	if res, err := c.QueryExtended(`SELECT a FROM nums WHERE a = $1`, "1"); err != nil || len(res.Rows) != 1 {
		t.Fatalf("after recovery: %+v %v", res, err)
	}
}

func TestMalformedBindCounts(t *testing.T) {
	db, _, addr := newTestServer(t, nil)
	seedNums(t, db)
	c := dial(t, addr, DialOptions{})

	// A Bind frame whose count bytes read back as -1 (0xFFFF) must be
	// refused as a protocol error, not crash the server in make().
	c.SendParse("", `SELECT a FROM nums`)
	c.buf.start(msgBind)
	c.buf.cstring("") // portal
	c.buf.cstring("") // statement
	c.buf.int16(-1)   // parameter-format count 0xFFFF
	c.buf.finish(c.w)
	c.SendSync()
	if typ, _, err := c.Recv(); err != nil || typ != msgParseComplete {
		t.Fatalf("parse: %q %v", typ, err)
	}
	typ, payload, err := c.Recv()
	if err != nil || typ != msgErrorResponse {
		t.Fatalf("bind: %q %v", typ, err)
	}
	if e := parsePgError(payload); e.Code != "08P01" {
		t.Fatalf("negative format count: code %q, want 08P01", e.Code)
	}
	if typ, _, err := c.Recv(); err != nil || typ != msgReadyForQuery {
		t.Fatalf("after error: %q %v", typ, err)
	}

	// Same for the bound-value count.
	c.buf.start(msgBind)
	c.buf.cstring("")
	c.buf.cstring("")
	c.buf.int16(0)  // no param formats
	c.buf.int16(-1) // value count 0xFFFF
	c.buf.finish(c.w)
	c.SendSync()
	typ, payload, _ = c.Recv()
	if e := parsePgError(payload); typ != msgErrorResponse || e.Code != "08P01" {
		t.Fatalf("negative value count: %q %+v", typ, e)
	}
	c.Recv() // RFQ

	// The connection (and server) survived and still works.
	if res, err := c.QueryExtended(`SELECT a FROM nums WHERE a = $1`, "2"); err != nil || len(res.Rows) != 1 {
		t.Fatalf("after recovery: %+v %v", res, err)
	}
}

func TestSessionObjectLimits(t *testing.T) {
	db, _, addr := newTestServer(t, nil)
	seedNums(t, db)
	c := dial(t, addr, DialOptions{})

	// Fill the statement namespace with cheap local (shim) statements,
	// pipelined; the first Parse past the cap is refused with 53300.
	for i := 0; i < maxSessionStmts; i++ {
		c.SendParse("s"+strconv.Itoa(i), "SET app=x")
	}
	c.SendParse("straw", "SET app=x")
	c.SendSync()
	for i := 0; i < maxSessionStmts; i++ {
		if typ, _, err := c.Recv(); err != nil || typ != msgParseComplete {
			t.Fatalf("parse %d: %q %v", i, typ, err)
		}
	}
	typ, payload, err := c.Recv()
	if err != nil || typ != msgErrorResponse {
		t.Fatalf("over-limit parse: %q %v", typ, err)
	}
	if e := parsePgError(payload); e.Code != "53300" {
		t.Fatalf("stmt limit: code %q, want 53300", e.Code)
	}
	c.Recv() // RFQ

	// Overwriting an existing name is replacement, not growth — allowed.
	c.SendParse("s0", "SET app=y")
	c.SendSync()
	if typ, _, err := c.Recv(); err != nil || typ != msgParseComplete {
		t.Fatalf("overwrite parse at cap: %q %v", typ, err)
	}
	c.Recv() // RFQ

	// Portals have the same cap.
	for i := 0; i < maxSessionPortals; i++ {
		c.SendBind("p"+strconv.Itoa(i), "s0", nil)
	}
	c.SendBind("pstraw", "s0", nil)
	c.SendSync()
	for i := 0; i < maxSessionPortals; i++ {
		if typ, _, err := c.Recv(); err != nil || typ != msgBindComplete {
			t.Fatalf("bind %d: %q %v", i, typ, err)
		}
	}
	typ, payload, _ = c.Recv()
	if e := parsePgError(payload); typ != msgErrorResponse || e.Code != "53300" {
		t.Fatalf("portal limit: %q %+v", typ, e)
	}
	c.Recv() // RFQ

	// Closing a portal frees a slot.
	c.SendClose('P', "p0")
	c.SendBind("pnew", "s0", nil)
	c.SendSync()
	if typ, _, err := c.Recv(); err != nil || typ != msgCloseComplete {
		t.Fatalf("close portal: %q %v", typ, err)
	}
	if typ, _, err := c.Recv(); err != nil || typ != msgBindComplete {
		t.Fatalf("bind after close: %q %v", typ, err)
	}
	c.Recv() // RFQ
}

func TestPreparedStatementRegistrySharing(t *testing.T) {
	reg := stmtreg.New(0)
	db, _, addr := newTestServer(t, reg)
	seedNums(t, db)
	c := dial(t, addr, DialOptions{})

	c.SendParse("keep", `SELECT a FROM nums WHERE a > $1`)
	c.SendSync()
	if typ, _, err := c.Recv(); err != nil || typ != msgParseComplete {
		t.Fatalf("parse: %q %v", typ, err)
	}
	c.Recv() // RFQ
	if reg.Len() != 1 {
		t.Fatalf("registry: %d entries, want 1 (pg statements share the registry)", reg.Len())
	}

	// Closing the connection drops its statements (ownership cleanup).
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("registry still has %d entries after connection close", reg.Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestAdmissionRejectionsAsSQLStates(t *testing.T) {
	// One admission slot, zero queue: a held slot makes the next query an
	// immediate ErrQueueFull → SQLSTATE 53300 over the wire.
	db, _, addr := newTestServer(t, nil,
		raven.WithMaxConcurrentQueries(1),
		raven.WithSchedulerQueue(0, 0),
		raven.WithTenantQuota("pg-blocked", 0, 0),
	)
	seedNums(t, db)

	// A tenant that is administratively shut off is refused with the
	// same SQLSTATE, slot free or not.
	bc := dial(t, addr, DialOptions{User: "blocked", Database: "pg-blocked"})
	var pgErr *PgError
	if _, err := bc.SimpleQuery(`SELECT a FROM nums`); !errors.As(err, &pgErr) || pgErr.Code != "53300" {
		t.Fatalf("zero-quota tenant: want 53300, got %v", err)
	}

	held, err := db.QueryContextWithOptions(context.Background(), `SELECT a FROM nums`, raven.DefaultQueryOptions())
	if err != nil {
		t.Fatalf("hold slot: %v", err)
	}
	defer held.Close()

	c := dial(t, addr, DialOptions{})
	_, err = c.SimpleQuery(`SELECT a FROM nums`)
	if !errors.As(err, &pgErr) || pgErr.Code != "53300" {
		t.Fatalf("queue full: want 53300, got %v", err)
	}

	held.Close()
	if _, err := c.SimpleQuery(`SELECT a FROM nums`); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

// TestPredictParityAcrossFrontEnds is the acceptance bar for the pg
// front end: one PREDICT returns byte-for-byte the same rows through the
// simple protocol, the extended protocol ($1 bound) and HTTP /query on
// the same engine, and /stats bills the pg session to its startup-param
// tenant and carries the pgwire section ravenserved wires in.
func TestPredictParityAcrossFrontEnds(t *testing.T) {
	reg := stmtreg.New(0)
	db, pgs, addr := newTestServer(t, reg, raven.WithMaxConcurrentQueries(4))
	h, err := data.GenHospital(db.Catalog(), 500, 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	tree := train.FitTree(h.TrainX, h.TrainY, train.TreeOptions{MaxDepth: 6, MinLeaf: 10})
	if err := db.StoreModel("duration_of_stay", &ml.Pipeline{Final: tree, InputColumns: h.FeatureCols}); err != nil {
		t.Fatal(err)
	}

	srv := server.New(db, server.Options{Statements: reg})
	srv.SetPgwireStats(func() any { return pgs.Stats() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-served
	})
	hc := &server.Client{Base: "http://" + ln.Addr().String()}

	const predict = `SELECT d.id, p.score FROM PREDICT(MODEL='duration_of_stay',
		DATA=(SELECT * FROM patient_info AS pi
		      JOIN blood_tests AS bt ON pi.id = bt.id
		      JOIN prenatal_tests AS pt ON bt.id = pt.id) AS d)
		WITH (score FLOAT) AS p WHERE d.age > $1`
	inlined := strings.Replace(predict, "$1", "50", 1)

	c := dial(t, addr, DialOptions{User: "smoker", Database: "pg-parity"})
	httpRes, err := hc.Query(server.QueryRequest{SQL: inlined})
	if err != nil || len(httpRes.Rows) == 0 {
		t.Fatalf("predict (http): %d rows, %v", len(httpRes.Rows), err)
	}
	simple, err := c.SimpleQuery(inlined)
	if err != nil || len(simple) != 1 {
		t.Fatalf("predict (simple): %v %v", simple, err)
	}
	if simple[0].Fingerprint() != httpRes.Fingerprint() {
		t.Error("pg simple-protocol PREDICT differs from the HTTP result")
	}
	ext, err := c.QueryExtended(predict, "50")
	if err != nil || !strings.HasPrefix(ext.Tag, "SELECT ") {
		t.Fatalf("predict (extended): %+v %v", ext, err)
	}
	if ext.Fingerprint() != httpRes.Fingerprint() {
		t.Error("pg extended-protocol PREDICT differs from the HTTP result")
	}

	st, err := hc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine.Scheduler == nil || st.Engine.Scheduler.Tenants["pg-parity"].Admitted < 2 {
		t.Errorf("pg session not billed to its startup tenant: %+v", st.Engine.Scheduler)
	}
	var ps Stats
	if err := json.Unmarshal(st.Pgwire, &ps); err != nil {
		t.Fatalf("/stats pgwire section: %v (%s)", err, st.Pgwire)
	}
	if ps.Connections < 1 || ps.Queries < 2 || ps.Messages["parse"] == 0 {
		t.Errorf("/stats pgwire section implausible: %+v", ps)
	}
}

func TestCancelRequest(t *testing.T) {
	// One slot with a queue: the pg query parks in the admission queue,
	// a CancelRequest from a second connection cancels it, and the error
	// comes back as SQLSTATE 57014.
	db, _, addr := newTestServer(t, nil,
		raven.WithMaxConcurrentQueries(1),
		raven.WithSchedulerQueue(8, 0),
	)
	seedNums(t, db)

	held, err := db.QueryContextWithOptions(context.Background(), `SELECT a FROM nums`, raven.DefaultQueryOptions())
	if err != nil {
		t.Fatalf("hold slot: %v", err)
	}
	defer held.Close()

	c := dial(t, addr, DialOptions{})
	errCh := make(chan error, 1)
	go func() {
		_, err := c.SimpleQuery(`SELECT a FROM nums`)
		errCh <- err
	}()

	// Wait until the query is parked in the scheduler queue, then cancel.
	deadline := time.Now().Add(5 * time.Second)
	for db.SchedulerLoad().Waiting == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never reached the scheduler queue")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Cancel(ctx); err != nil {
		t.Fatalf("cancel request: %v", err)
	}

	select {
	case err := <-errCh:
		var pgErr *PgError
		if !errors.As(err, &pgErr) || pgErr.Code != "57014" {
			t.Fatalf("cancelled query: want 57014, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled query never returned")
	}

	// A wrong secret must be ignored (best-effort, unacknowledged).
	c2 := dial(t, addr, DialOptions{})
	c2.BackendSecret++
	if err := c2.Cancel(ctx); err != nil {
		t.Fatalf("bad-secret cancel: %v", err)
	}
	if _, err := c2.SimpleQuery(`SET x = 1`); err != nil {
		t.Fatalf("conn after bad-secret cancel: %v", err)
	}
}

func TestDrainingRefusal(t *testing.T) {
	db, _, addr := newTestServer(t, nil, raven.WithMaxConcurrentQueries(2))
	seedNums(t, db)
	c := dial(t, addr, DialOptions{})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := db.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	_, err := c.SimpleQuery(`SELECT a FROM nums`)
	var pgErr *PgError
	if !errors.As(err, &pgErr) || pgErr.Code != "57P01" {
		t.Fatalf("draining: want 57P01, got %v", err)
	}
}

func TestStartupOptions(t *testing.T) {
	db, _, addr := newTestServer(t, nil, raven.WithMaxConcurrentQueries(2))
	seedNums(t, db)

	// raven.* session knobs parse; queries bill the database-param tenant.
	c := dial(t, addr, DialOptions{
		User:     "alice",
		Database: "teamA",
		Options:  "-c raven.priority=5 -c raven.dop=2 -c raven.no_cache=on",
	})
	if _, err := c.SimpleQuery(`SELECT a FROM nums`); err != nil {
		t.Fatalf("query: %v", err)
	}
	if st := db.Stats(); st.Scheduler == nil || st.Scheduler.Tenants["teamA"].Admitted == 0 {
		t.Fatalf("tenant teamA not billed: %+v", db.Stats().Scheduler)
	}

	// Default-database names fall back to the user as tenant.
	c2 := dial(t, addr, DialOptions{User: "bob", Database: "raven"})
	if _, err := c2.SimpleQuery(`SELECT a FROM nums`); err != nil {
		t.Fatalf("query: %v", err)
	}
	if db.Stats().Scheduler.Tenants["bob"].Admitted == 0 {
		t.Fatalf("tenant bob not billed: %+v", db.Stats().Scheduler)
	}

	// A bogus raven.* knob fails the connection loudly at startup.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := DialClient(ctx, addr, DialOptions{User: "x", Options: "-c raven.bogus=1"})
	var pgErr *PgError
	if !errors.As(err, &pgErr) || pgErr.Code != "42601" {
		t.Fatalf("bogus option: want 42601 startup error, got %v", err)
	}
}

func TestRewritePlaceholders(t *testing.T) {
	cases := []struct {
		in    string
		out   string
		n     int
		isErr bool
	}{
		{in: `SELECT a FROM t WHERE a > $1 AND b < $2`, out: `SELECT a FROM t WHERE a > @p1 AND b < @p2`, n: 2},
		{in: `SELECT '$1' FROM t WHERE a = $1`, out: `SELECT '$1' FROM t WHERE a = @p1`, n: 1},
		{in: `SELECT 'it''s $2' FROM t`, out: `SELECT 'it''s $2' FROM t`, n: 0},
		{in: `SELECT $2 FROM t`, out: `SELECT @p2 FROM t`, n: 2}, // $2 alone implies 2 params
		{in: `SELECT a FROM t`, out: `SELECT a FROM t`, n: 0},
		{in: `SELECT $0 FROM t`, isErr: true},
		{in: `SELECT "$1" FROM t WHERE a = $1`, out: `SELECT "$1" FROM t WHERE a = @p1`, n: 1},
		{in: `SELECT "a""$2" FROM t`, out: `SELECT "a""$2" FROM t`, n: 0},
		{in: "SELECT a -- $3 comment\nFROM t WHERE a = $1", out: "SELECT a -- $3 comment\nFROM t WHERE a = @p1", n: 1},
		{in: `SELECT a /* $3 */ FROM t WHERE a = $1`, out: `SELECT a /* $3 */ FROM t WHERE a = @p1`, n: 1},
		{in: `SELECT a /* outer /* $9 */ still */ FROM t`, out: `SELECT a /* outer /* $9 */ still */ FROM t`, n: 0},
		{in: `SELECT $$lit $1$$ FROM t WHERE a = $2`, out: `SELECT $$lit $1$$ FROM t WHERE a = @p2`, n: 2},
		{in: `SELECT $tag$body $1 $$ more$tag$ FROM t`, out: `SELECT $tag$body $1 $$ more$tag$ FROM t`, n: 0},
		{in: `SELECT $$unterminated $1`, out: `SELECT $$unterminated $1`, n: 0},
		{in: `SELECT a + $1abc FROM t`, isErr: true}, // placeholder glued to an identifier
	}
	for _, c := range cases {
		out, n, err := rewritePlaceholders(c.in)
		if c.isErr {
			if err == nil {
				t.Errorf("%q: want error", c.in)
			}
			continue
		}
		if err != nil || out != c.out || n != c.n {
			t.Errorf("%q: got (%q, %d, %v), want (%q, %d)", c.in, out, n, err, c.out, c.n)
		}
	}
}

func TestSessionOptionsTenantMapping(t *testing.T) {
	cases := []struct {
		params map[string]string
		tenant string
	}{
		{map[string]string{"user": "alice", "database": "teamA"}, "teamA"},
		{map[string]string{"user": "alice", "database": "raven"}, "alice"},
		{map[string]string{"user": "alice", "database": "postgres"}, "alice"},
		{map[string]string{"user": "alice"}, "alice"},
		{map[string]string{}, "fallback"},
	}
	for _, c := range cases {
		o, err := sessionOptions(c.params, "fallback")
		if err != nil || o.Tenant != c.tenant {
			t.Errorf("%v: tenant %q err %v, want %q", c.params, o.Tenant, err, c.tenant)
		}
	}
	if _, err := sessionOptions(map[string]string{"options": "--raven.priority=abc"}, ""); err == nil {
		t.Error("bad priority: want error")
	}
	if _, err := sessionOptions(map[string]string{"options": "-z oops"}, ""); err == nil {
		t.Error("unsupported options arg: want error")
	}
}

func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	db, err := raven.Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	seedNums(t, db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := New(db, nil, Options{})
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		c, err := DialClient(ctx, ln.Addr().String(), DialOptions{User: "leaky"})
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		if _, err := c.QueryExtended(`SELECT a FROM nums WHERE a > $1`, "0"); err != nil {
			t.Fatalf("query: %v", err)
		}
		c.Close()
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-done
	db.Close()

	// Connection goroutines unwind asynchronously after the sockets
	// close; poll with a deadline before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d before, %d after shutdown\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
