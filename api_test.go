package raven

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"raven/internal/ml"
)

// prepDB builds a small engine with the hospital workload for serving-API
// tests (prepared statements, compile counts, streaming rows).
func prepDB(t testing.TB) *DB {
	t.Helper()
	db, _ := hospitalDB(t, 2000)
	return db
}

const predictQuery = `SELECT d.id, p.score FROM PREDICT(MODEL='duration_of_stay',
	DATA=(SELECT * FROM patient_info AS pi
	      JOIN blood_tests AS bt ON pi.id = bt.id
	      JOIN prenatal_tests AS pt ON bt.id = pt.id) AS d)
	WITH (score FLOAT) AS p WHERE d.age > 50`

// TestAdhocQueryCompilesEveryCall: the engine keeps no plan cache, so
// identical ad-hoc text compiles on every call — Prepare is the way to
// amortize a compile — and every call returns the same rows.
func TestAdhocQueryCompilesEveryCall(t *testing.T) {
	db := prepDB(t)
	want, err := db.Query(predictQuery)
	if err != nil {
		t.Fatal(err)
	}
	before := db.Stats().Compiles
	for i := 0; i < 3; i++ {
		res, err := db.Query(predictQuery)
		if err != nil {
			t.Fatal(err)
		}
		batchesIdentical(t, "ad-hoc", want.Batch, res.Batch)
	}
	if got := db.Stats().Compiles - before; got != 3 {
		t.Errorf("3 identical ad-hoc calls compiled %d times, want 3", got)
	}
}

// TestPreparedStmtSkipsCompile: a Stmt compiles once at Prepare and
// re-executions compile nothing, returning the ad-hoc query's rows.
func TestPreparedStmtSkipsCompile(t *testing.T) {
	db := prepDB(t)
	before := db.Stats().Compiles
	st, err := db.Prepare(predictQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().Compiles - before; got != 1 {
		t.Fatalf("Prepare compiled %d times, want 1", got)
	}
	executeStmt(t, db, st, "prepared", 0)
}

// TestPlanCacheHitsAndInvalidation: the one cached plan is a Stmt's
// template. Re-executions hit it (compile nothing); a CREATE TABLE and a
// StoreModel each bump the catalog, after which the Stmt re-prepares
// exactly once. Its rows match the ad-hoc query's at every stage.
func TestPlanCacheHitsAndInvalidation(t *testing.T) {
	db := prepDB(t)
	st, err := db.Prepare(predictQuery)
	if err != nil {
		t.Fatal(err)
	}
	executeStmt(t, db, st, "prepared", 0)

	if err := db.Exec("CREATE TABLE unrelated (a INT)"); err != nil {
		t.Fatal(err)
	}
	executeStmt(t, db, st, "after CREATE TABLE", 1)

	// The plan embeds the (inlined/translated) model, so a store
	// invalidates it too.
	pipe, err := db.LoadModel("duration_of_stay")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.StoreModel("duration_of_stay", pipe); err != nil {
		t.Fatal(err)
	}
	executeStmt(t, db, st, "after StoreModel", 1)

	// DisablePlanCache has nothing left to bypass: an ad-hoc call with it
	// compiles once, like any ad-hoc call, and leaves the Stmt's template
	// valid.
	opts := DefaultQueryOptions()
	opts.DisablePlanCache = true
	before := db.Stats().Compiles
	if _, err := db.QueryWithOptions(predictQuery, opts); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().Compiles - before; got != 1 {
		t.Errorf("ad-hoc call with DisablePlanCache compiled %d times, want 1", got)
	}
	executeStmt(t, db, st, "after DisablePlanCache", 0)
}

// executeStmt runs st ten times, checks each result against the ad-hoc
// query's rows and that the ten runs compiled wantCompiles times.
func executeStmt(t *testing.T, db *DB, st *Stmt, stage string, wantCompiles uint64) {
	t.Helper()
	want, err := db.Query(predictQuery)
	if err != nil {
		t.Fatal(err)
	}
	before := db.Stats().Compiles
	for i := 0; i < 10; i++ {
		rows, err := st.Query()
		if err != nil {
			t.Fatal(err)
		}
		res, err := rows.Collect()
		if err != nil {
			t.Fatal(err)
		}
		batchesIdentical(t, stage, want.Batch, res.Batch)
	}
	if got := db.Stats().Compiles - before; got != wantCompiles {
		t.Errorf("%s: 10 executions compiled %d times, want %d", stage, got, wantCompiles)
	}
}

// TestPreparedOverheadBelowCold asserts the acceptance bar directly: warm
// prepared execution must cut per-call overhead (everything but plan
// execution) at least 5x below the cold compile every ad-hoc call pays.
// The true ratio on this workload is ~50x, so the margin absorbs CI
// noise.
func TestPreparedOverheadBelowCold(t *testing.T) {
	db := prepDB(t)
	measure := func(fn func() (*Result, error)) time.Duration {
		t.Helper()
		if _, err := fn(); err != nil { // warmup (sessions, caches)
			t.Fatal(err)
		}
		var total time.Duration
		const runs = 8
		for i := 0; i < runs; i++ {
			r, err := fn()
			if err != nil {
				t.Fatal(err)
			}
			total += r.CompileTime
		}
		return total / runs
	}
	coldOver := measure(func() (*Result, error) { return db.Query(predictQuery) })
	st, err := db.Prepare(predictQuery)
	if err != nil {
		t.Fatal(err)
	}
	prepOver := measure(func() (*Result, error) {
		rows, err := st.Query()
		if err != nil {
			return nil, err
		}
		return rows.Collect()
	})
	if prepOver*5 > coldOver {
		t.Errorf("prepared overhead %v not 5x below cold %v", prepOver, coldOver)
	}
}

func TestPreparedStmtReprepareOnModelUpdate(t *testing.T) {
	db := MustOpen()
	if err := db.Exec(`CREATE TABLE pts (id INT PRIMARY KEY, age FLOAT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := db.Exec(fmt.Sprintf("INSERT INTO pts VALUES (%d, 40.0)", i)); err != nil {
			t.Fatal(err)
		}
	}
	storeLR := func(w float64) {
		t.Helper()
		if err := db.StoreModel("risk", lrPipeline(w)); err != nil {
			t.Fatal(err)
		}
	}
	storeLR(0.01)
	st, err := db.Prepare(`SELECT p.s FROM PREDICT(MODEL='risk', DATA=pts AS d) WITH (s FLOAT) AS p`)
	if err != nil {
		t.Fatal(err)
	}
	first := stmtScores(t, st, "s")
	// Storing a new model version must invalidate the prepared template:
	// the next execution re-prepares against the new model.
	storeLR(-0.01)
	second := stmtScores(t, st, "s")
	if first[0] == second[0] {
		t.Errorf("prepared statement served stale model: %v vs %v", first[0], second[0])
	}
	// DDL on another table also re-prepares (coarse invalidation), but
	// execution still succeeds and returns the same fresh results.
	if err := db.Exec("CREATE TABLE other (x INT)"); err != nil {
		t.Fatal(err)
	}
	third := stmtScores(t, st, "s")
	if second[0] != third[0] {
		t.Errorf("re-prepare after unrelated DDL changed results: %v vs %v", second[0], third[0])
	}
}

func lrPipeline(w float64) *ml.Pipeline {
	return &ml.Pipeline{
		Final:        &ml.LogisticRegression{W: []float64{0, w}, B: 0},
		InputColumns: []string{"id", "age"},
	}
}

func stmtScores(t *testing.T, st *Stmt, col string) []float64 {
	t.Helper()
	rows, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	res, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	v := res.Batch.Col(col)
	if v == nil {
		t.Fatalf("result has no column %q: %v", col, res.Batch.Schema.Names())
	}
	return v.Floats
}

func TestPreparedStmtParams(t *testing.T) {
	db := MustOpen()
	if err := db.Exec(`CREATE TABLE people (id INT PRIMARY KEY, name VARCHAR(16), age FLOAT);
		INSERT INTO people VALUES (1, 'ada', 36.0), (2, 'bob', 41.0), (3, 'cleo', 29.0)`); err != nil {
		t.Fatal(err)
	}
	st, err := db.Prepare(`SELECT id FROM people WHERE name = @who`)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Params(); len(got) != 1 || got[0] != "who" {
		t.Fatalf("Params() = %v", got)
	}
	for who, wantID := range map[string]int64{"ada": 1, "bob": 2, "cleo": 3} {
		rows, err := st.Query(P("who", who))
		if err != nil {
			t.Fatal(err)
		}
		res, err := rows.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if res.Batch.Len() != 1 || res.Batch.Col("id").Ints[0] != wantID {
			t.Errorf("who=%s: got %v", who, res.Batch)
		}
	}
	// Numeric parameters compare numerically against FLOAT columns.
	st2, err := db.Prepare(`SELECT id FROM people WHERE age > @minage`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := st2.Query(P("minage", "35"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.Len() != 2 {
		t.Errorf("minage=35: got %d rows, want 2", res.Batch.Len())
	}
	// Parameters bind inside arithmetic and logical expressions too, not
	// just bare comparisons.
	st3, err := db.Prepare(`SELECT id FROM people WHERE age > @base + 5 AND age < 100`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err = st3.Query(P("base", "30"))
	if err != nil {
		t.Fatal(err)
	}
	res, err = rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.Len() != 2 { // ages 36 and 41 exceed 35
		t.Errorf("base=30: got %d rows, want 2", res.Batch.Len())
	}
	// Missing, unknown and duplicate params are all rejected.
	if _, err := st.Query(); err == nil {
		t.Error("missing param should fail")
	}
	if _, err := st.Query(P("who", "ada"), P("oops", "x")); err == nil {
		t.Error("unknown param should fail")
	}
	if _, err := st.Query(P("who", "ada"), P("who", "bob")); err == nil {
		t.Error("duplicate param should fail")
	}
	// Concurrent executions with different params never cross-bind.
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		who, want := "ada", int64(1)
		if i%2 == 1 {
			who, want = "bob", 2
		}
		go func(who string, want int64) {
			rows, err := st.Query(P("who", who))
			if err != nil {
				done <- err
				return
			}
			res, err := rows.Collect()
			if err != nil {
				done <- err
				return
			}
			if res.Batch.Len() != 1 || res.Batch.Col("id").Ints[0] != want {
				done <- fmt.Errorf("concurrent executions cross-bound params: who=%s got %v", who, res.Batch)
				return
			}
			done <- nil
		}(who, want)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestDeclareScopedToStatement(t *testing.T) {
	db := prepDB(t)
	// Same SELECT with and without the DECLARE prefix: the only failure
	// mode of the bare version is @model not resolving.
	sel := `SELECT p.score FROM PREDICT(MODEL=@model, DATA=(SELECT * FROM patient_info AS pi
		JOIN blood_tests AS bt ON pi.id = bt.id JOIN prenatal_tests AS pt ON bt.id = pt.id) AS d)
		WITH (score FLOAT) AS p`
	if _, err := db.Query(`DECLARE @model = 'duration_of_stay'; ` + sel); err != nil {
		t.Fatal(err)
	}
	// The DECLARE above must not leak into engine session state: the same
	// SELECT without it fails to bind.
	if _, err := db.Query(sel); err == nil {
		t.Error("DECLARE from a previous Query leaked into engine session state")
	}
	// Exec refuses a DECLARE: the variable would bind nothing (an Exec
	// script has no SELECT), and the error says where it belongs.
	err := db.Exec(`DECLARE @model = 'duration_of_stay'`)
	if err == nil || !strings.Contains(err.Error(), "before the SELECT") {
		t.Fatalf("Exec DECLARE: got %v, want a refusal naming the SELECT it belongs before", err)
	}
	if _, err := db.Query(sel); err == nil {
		t.Error("a refused Exec DECLARE is visible to later queries")
	}
}

// TestExecDeclareChangesNoOtherQuery: a DECLARE sent through Exec binds
// nothing engine-wide, so one caller's script cannot retype another
// caller's @var from an execute-time parameter into a VARCHAR constant.
func TestExecDeclareChangesNoOtherQuery(t *testing.T) {
	db := MustOpen()
	if err := db.Exec(`CREATE TABLE pts (id INT, age FLOAT); INSERT INTO pts VALUES (1, 3.0), (2, 7.0)`); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(`DECLARE @lo = '5'`); err == nil {
		t.Error("Exec accepted a DECLARE")
	}
	st, err := db.Prepare(`SELECT id FROM pts WHERE age > @lo`)
	if err != nil {
		t.Fatalf("Prepare after another caller's DECLARE: %v", err)
	}
	if got := st.Params(); len(got) != 1 || got[0] != "lo" {
		t.Errorf("Params() = %v, want [lo]", got)
	}
}

// TestExecRefusesDeclareBeforeApplying: a script holding a DECLARE is
// refused whole, so the statements before it do not run either.
func TestExecRefusesDeclareBeforeApplying(t *testing.T) {
	db := MustOpen()
	if err := db.Exec(`CREATE TABLE x (a INT); DECLARE @v = '1'`); err == nil {
		t.Error("Exec accepted a script with a DECLARE")
	}
	if db.Catalog().HasTable("x") {
		t.Error("a refused script created table x")
	}
}

func TestQueryRejectsUnboundParams(t *testing.T) {
	db := prepDB(t)
	_, err := db.Query(`SELECT id FROM patient_info WHERE age > @minage`)
	if err == nil || !strings.Contains(err.Error(), "not declared") {
		t.Errorf("ad-hoc query with undeclared @var should fail to bind, got %v", err)
	}
}

func TestPrepareRejectsSideEffects(t *testing.T) {
	db := prepDB(t)
	if _, err := db.Prepare(`CREATE TABLE x (a INT); SELECT a FROM x`); err == nil {
		t.Error("Prepare with DDL should fail")
	}
	if _, err := db.Catalog().Table("x"); err == nil {
		t.Error("failed Prepare must not have created the table")
	}
}

func TestRowsStreamingScanAndParity(t *testing.T) {
	db := flightsDB(t, 20000)
	q := `SELECT d.f0, p.prob FROM PREDICT(MODEL='delay_par', DATA=flights_features AS d) WITH (prob FLOAT) AS p WHERE d.f1 > 0`
	collect := func(opts QueryOptions) []string {
		t.Helper()
		rows, err := db.QueryContextWithOptions(t.Context(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		if got := rows.Columns(); strings.Join(got, ",") != "f0,prob" {
			t.Fatalf("columns = %v", got)
		}
		var out []string
		var f0, prob float64
		for rows.Next() {
			if err := rows.Scan(&f0, &prob); err != nil {
				t.Fatal(err)
			}
			out = append(out, strings.Join([]string{floatKey(f0), floatKey(prob)}, "|"))
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := collect(QueryOptions{Parallelism: 1})
	for _, dop := range []int{4, 8} {
		par := collect(QueryOptions{Parallelism: dop, ParallelThresholdRows: 1, MorselSize: 512})
		if len(par) != len(serial) {
			t.Fatalf("dop=%d: %d rows vs %d", dop, len(par), len(serial))
		}
		for i := range serial {
			if serial[i] != par[i] {
				t.Fatalf("dop=%d row %d: %s vs %s (Rows path must stay byte-identical)", dop, i, par[i], serial[i])
			}
		}
	}
	// Scan type mismatches and arity errors are reported, not silent.
	rows, err := db.QueryContext(t.Context(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatal("expected at least one row")
	}
	var s string
	if err := rows.Scan(&s, &s); err == nil {
		t.Error("Scan into wrong type should fail")
	}
	var f float64
	if err := rows.Scan(&f); err == nil {
		t.Error("Scan with wrong arity should fail")
	}
	// Collect after exhaustion (or Close) must return an empty result,
	// not hang on the closed executor.
	for rows.Next() {
	}
	res, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.Len() != 0 {
		t.Errorf("Collect after exhaustion returned %d rows, want 0", res.Batch.Len())
	}
}

// floatKey fixes precision so byte-identity comparisons are not defeated
// by formatting noise (the values themselves are computed identically).
func floatKey(f float64) string {
	return fmt.Sprintf("%.9f", f)
}

// TestNonCrossPathAppliesRelationalOptimizations is the regression test
// for the bug where the non-cross path discarded xopt.Optimize's result:
// with CrossOptimize off, the standard relational pass (projection
// pushdown, join elimination) must still run — and report — against the
// returned graph. The model here reads only patient_info columns, so
// pushdown narrows the scan and join elimination drops the other tables.
func TestNonCrossPathAppliesRelationalOptimizations(t *testing.T) {
	db := prepDB(t)
	pipe := &ml.Pipeline{
		Final:        &ml.LogisticRegression{W: []float64{0.1, 0.01, 0, 0}, B: 0},
		InputColumns: []string{"pregnant", "age", "gender", "weight"},
	}
	if err := db.StoreModel("narrow", pipe); err != nil {
		t.Fatal(err)
	}
	q := `SELECT p.s FROM PREDICT(MODEL='narrow',
		DATA=(SELECT * FROM patient_info AS pi
		      JOIN blood_tests AS bt ON pi.id = bt.id
		      JOIN prenatal_tests AS pt ON bt.id = pt.id) AS d)
		WITH (s FLOAT) AS p`
	res, err := db.QueryWithOptions(q, QueryOptions{CrossOptimize: false, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.AppliedRules, ",")
	if !strings.Contains(joined, "relational-optimizations") {
		t.Errorf("relational pass did not fire (or its result was discarded) on the non-cross path: %v", res.AppliedRules)
	}
	// The optimized plan must still compute the same result as the full
	// cross-optimized path.
	opt, err := db.QueryWithOptions(q, QueryOptions{CrossOptimize: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, b := resultKey(res.Batch), resultKey(opt.Batch)
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs between non-cross and cross paths", i)
		}
	}
}
