package raven

import (
	"fmt"
	"sync"
	"testing"

	"raven/internal/data"
	"raven/internal/ml"
	"raven/internal/train"
	"raven/internal/types"
)

// flightsDB builds an engine with the wide flights table and a stored
// logistic-regression model, the single-table scan+PREDICT workload the
// morsel exchange parallelizes end to end.
func flightsDB(t testing.TB, rows int) *DB {
	t.Helper()
	db := MustOpen()
	fl, err := data.GenFlightsWide(db.Catalog(), rows, 30, 10, 2000, 11)
	if err != nil {
		t.Fatal(err)
	}
	lr := train.FitLogReg(fl.TrainX, fl.TrainY, train.LogRegOptions{L1: 0.01, Epochs: 30, Seed: 3})
	if err := db.StoreModel("delay_par", &ml.Pipeline{Final: lr, InputColumns: fl.FeatureCols}); err != nil {
		t.Fatal(err)
	}
	return db
}

// batchesIdentical asserts b equals a byte for byte: same schema, same
// rows, same order. This is the morsel exchange's determinism contract —
// stronger than the multiset comparison the older parallel tests used.
func batchesIdentical(t *testing.T, label string, a, b *types.Batch) {
	t.Helper()
	if got, want := fmt.Sprint(b.Schema.Names()), fmt.Sprint(a.Schema.Names()); got != want {
		t.Fatalf("%s: schema %s vs %s", label, got, want)
	}
	if a.Len() != b.Len() {
		t.Fatalf("%s: %d rows vs %d", label, b.Len(), a.Len())
	}
	for j, av := range a.Vecs {
		bv := b.Vecs[j]
		for i := 0; i < a.Len(); i++ {
			if fmt.Sprint(av.Value(i)) != fmt.Sprint(bv.Value(i)) {
				t.Fatalf("%s: col %s row %d: %v vs %v", label, a.Schema.Columns[j].Name, i, bv.Value(i), av.Value(i))
			}
		}
	}
}

// parallelParityQueries covers every plan shape the issue calls out:
// plain SELECT, WHERE, PREDICT, ORDER BY and LIMIT (and combinations).
var parallelParityQueries = []struct{ label, q string }{
	{"select", `SELECT id, f0, f1 FROM flights_features`},
	{"where", `SELECT f0, f1 FROM flights_features WHERE f0 > 0`},
	{"predict", `SELECT p.prob FROM PREDICT(MODEL='delay_par', DATA=flights_features AS d) WITH (prob FLOAT) AS p`},
	{"predict-where", `SELECT d.f0, p.prob FROM PREDICT(MODEL='delay_par', DATA=flights_features AS d) WITH (prob FLOAT) AS p WHERE d.f1 > 0`},
	{"order-by", `SELECT f0, f2 FROM flights_features WHERE f2 > 0 ORDER BY f0 DESC`},
	{"limit", `SELECT f0 FROM flights_features WHERE f0 > 0 LIMIT 37`},
	{"predict-order-limit", `SELECT d.f0, p.prob FROM PREDICT(MODEL='delay_par', DATA=flights_features AS d) WITH (prob FLOAT) AS p WHERE d.f0 > 0 ORDER BY p.prob DESC LIMIT 25`},
}

// parityCase is one query of the parity matrix. threshold is the
// ParallelThresholdRows the DOP>1 runs use: 1 makes every scan DOP-wide;
// a value between two table sizes mixes inline and DOP-wide pipelines in
// one plan.
type parityCase struct {
	label, q  string
	threshold int
}

// assertParityMatrix runs tc at DOP {1, 2, 8} × morsel size {default,
// 1000 (divides no table)} and requires every result to equal the first
// byte for byte. Every run executes the same stages; what the matrix
// proves is what differs between them — claim order, the reorder merge,
// and the breakers' DOP- and morsel-invariant merges.
func assertParityMatrix(t *testing.T, db *DB, mode Mode, tc parityCase) {
	t.Helper()
	var want *types.Batch
	for _, dop := range []int{1, 2, 8} {
		for _, morsel := range []int{0, 1000} {
			label := fmt.Sprintf("%s mode=%v dop=%d morsel=%d", tc.label, mode, dop, morsel)
			threshold := tc.threshold
			if threshold == 0 {
				threshold = 1
			}
			res, err := db.QueryWithOptions(tc.q, QueryOptions{
				Mode: mode, Parallelism: dop, ParallelThresholdRows: threshold, MorselSize: morsel,
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if want == nil {
				if res.Batch.Len() == 0 {
					t.Fatalf("%s: result empty (query shape broken)", label)
				}
				want = res.Batch
				continue
			}
			batchesIdentical(t, label, want, res.Batch)
		}
	}
}

func TestParallelPlansByteIdenticalToSerial(t *testing.T) {
	db := flightsDB(t, 20000)
	for _, mode := range []Mode{ModeInProcess, ModeInProcessNN} {
		for _, tc := range parallelParityQueries {
			assertParityMatrix(t, db, mode, parityCase{label: tc.label, q: tc.q})
		}
	}
}

// breakerParityQueries covers the pipeline breakers this refactor
// parallelized — JOIN, GROUP BY (partial agg + merge, exact SUM/AVG),
// ORDER BY (run merge-sort) — alone, stacked on each other, and stacked
// with PREDICT. All run over the hospital workload.
var breakerParityQueries = []struct{ label, q string }{
	{"join", `SELECT pi.id, pi.age, bt.bp FROM patient_info AS pi JOIN blood_tests AS bt ON pi.id = bt.id WHERE bt.bp > 120`},
	{"join-chain", `SELECT pi.id, bt.glucose, pt.fetal_hr FROM patient_info AS pi JOIN blood_tests AS bt ON pi.id = bt.id JOIN prenatal_tests AS pt ON bt.id = pt.id WHERE pi.age > 40`},
	{"group-by", `SELECT pregnant, COUNT(*) AS n, SUM(weight) AS sw, AVG(age) AS aa, MIN(id) AS mn, MAX(age) AS mx FROM patient_info GROUP BY pregnant`},
	{"global-agg", `SELECT COUNT(*) AS n, SUM(bp) AS sb, AVG(glucose) AS ag FROM blood_tests`},
	{"join-group", `SELECT gender, COUNT(*) AS n, AVG(glucose) AS ag FROM patient_info AS pi JOIN blood_tests AS bt ON pi.id = bt.id GROUP BY gender`},
	{"group-order", `SELECT gender, COUNT(*) AS n FROM patient_info GROUP BY gender ORDER BY n DESC`},
	{"join-order-limit", `SELECT pi.id, bt.bp FROM patient_info AS pi JOIN blood_tests AS bt ON pi.id = bt.id ORDER BY bp DESC LIMIT 100`},
	{"predict-join", runningExampleQuery},
	{"predict-agg", `SELECT COUNT(*) AS n, AVG(p.length_of_stay) AS al
		FROM PREDICT(MODEL='duration_of_stay',
		  DATA=(SELECT * FROM patient_info AS pi
		        JOIN blood_tests AS bt ON pi.id = bt.id
		        JOIN prenatal_tests AS pt ON bt.id = pt.id) AS d)
		WITH (length_of_stay FLOAT) AS p WHERE d.pregnant = 1`},
	{"predict-order", `SELECT d.id, p.length_of_stay
		FROM PREDICT(MODEL='duration_of_stay',
		  DATA=(SELECT * FROM patient_info AS pi
		        JOIN blood_tests AS bt ON pi.id = bt.id
		        JOIN prenatal_tests AS pt ON bt.id = pt.id) AS d)
		WITH (length_of_stay FLOAT) AS p
		WHERE d.age > 30 ORDER BY p.length_of_stay DESC, d.id LIMIT 200`},
}

// TestBreakerPlansByteIdenticalToSerial is the parity acceptance for the
// pipeline breakers and the seams between pipelines: every DOP and morsel
// size must agree byte for byte — rows, order, and every float bit (exact
// SUM/AVG makes the aggregates DOP- and morsel-size-invariant).
func TestBreakerPlansByteIdenticalToSerial(t *testing.T) {
	db, _ := hospitalDB(t, 20000)
	for _, tc := range breakerParityQueries {
		assertParityMatrix(t, db, ModeInProcess, parityCase{label: tc.label, q: tc.q})
	}

	// One join over an inline (below-threshold) probe pipeline and a
	// DOP-wide build pipeline.
	if err := db.Exec(`CREATE TABLE watchlist (id INT PRIMARY KEY, weightx FLOAT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 700; i++ {
		if err := db.Exec(fmt.Sprintf(`INSERT INTO watchlist VALUES (%d, %d.5)`, i*13, i)); err != nil {
			t.Fatal(err)
		}
	}
	assertParityMatrix(t, db, ModeInProcess, parityCase{label: "mixed-join", threshold: 5000,
		q: `SELECT w.id, w.weightx, bt.bp FROM watchlist AS w JOIN blood_tests AS bt ON w.id = bt.id WHERE bt.bp > 100`})
	assertParityMatrix(t, db, ModeInProcess, parityCase{label: "mixed-join-build-inline", threshold: 5000,
		q: `SELECT bt.id, bt.bp, w.weightx FROM blood_tests AS bt JOIN watchlist AS w ON bt.id = w.id`})
}

func TestConcurrentParallelQueriesOverSharedTables(t *testing.T) {
	db := flightsDB(t, 20000)
	// Reference results, computed serially.
	want := make([]*Result, len(parallelParityQueries))
	for i, tc := range parallelParityQueries {
		r, err := db.QueryWithOptions(tc.q, QueryOptions{Mode: ModeInProcess, Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		want[i] = r
	}
	// Many goroutines fire parallel plans at the shared engine at once;
	// run under -race this exercises the exchange, the shared predictors
	// and the session cache.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		for i, tc := range parallelParityQueries {
			wg.Add(1)
			go func(i int, label, q string) {
				defer wg.Done()
				r, err := db.QueryWithOptions(q, QueryOptions{
					Mode: ModeInProcess, Parallelism: 4, ParallelThresholdRows: 1, MorselSize: 1024,
				})
				if err != nil {
					t.Errorf("%s: %v", label, err)
					return
				}
				if r.Batch.Len() != want[i].Batch.Len() {
					t.Errorf("%s: %d rows, want %d", label, r.Batch.Len(), want[i].Batch.Len())
				}
			}(i, tc.label, tc.q)
		}
	}
	wg.Wait()
	// Determinism still holds after the storm.
	for i, tc := range parallelParityQueries {
		r, err := db.QueryWithOptions(tc.q, QueryOptions{
			Mode: ModeInProcess, Parallelism: 4, ParallelThresholdRows: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		batchesIdentical(t, tc.label, want[i].Batch, r.Batch)
	}
}

func TestOpenOptions(t *testing.T) {
	db := MustOpen(WithParallelism(3))
	if db.DefaultParallelism != 3 {
		t.Fatalf("option not applied: dop=%d", db.DefaultParallelism)
	}
	// Out-of-range values keep defaults.
	db2 := MustOpen(WithParallelism(0))
	if db2.DefaultParallelism < 1 {
		t.Fatalf("bad option handling: dop=%d", db2.DefaultParallelism)
	}
}
