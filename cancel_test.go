package raven

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"raven/internal/data"
	"raven/internal/ml"
	"raven/internal/train"
)

// assertGoroutinesReturn waits for the goroutine count to fall back to the
// baseline, failing with a full stack dump if workers leaked. Exchange
// workers exit asynchronously after Close, so the check polls.
func assertGoroutinesReturn(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s", n, base, buf[:m])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// slowPredictDB builds an engine whose PREDICT is expensive enough that a
// millisecond deadline reliably lands mid-execution.
func slowPredictDB(t testing.TB, rows int) *DB {
	t.Helper()
	db := MustOpen()
	fl, err := data.GenFlightsWide(db.Catalog(), rows, 30, 10, 2000, 29)
	if err != nil {
		t.Fatal(err)
	}
	rf := train.FitForest(fl.TrainX, fl.TrainY, train.ForestOptions{
		NumTrees: 16,
		Seed:     7,
		Tree:     train.TreeOptions{MaxDepth: 8, MinLeaf: 10},
	})
	if err := db.StoreModel("slow_rf", &ml.Pipeline{Final: rf, InputColumns: fl.FeatureCols}); err != nil {
		t.Fatal(err)
	}
	return db
}

const slowPredictQuery = `SELECT p.prob FROM PREDICT(MODEL='slow_rf', DATA=flights_features AS d) WITH (prob FLOAT) AS p WHERE d.f0 > -100`

// TestContextCancelsParallelPredict is the acceptance scenario: a morsel-
// parallel (DOP >= 4) scan+PREDICT pipeline hit by a deadline must return
// ctx.Err() promptly and leave no goroutines behind, even under -race.
func TestContextCancelsParallelPredict(t *testing.T) {
	db := slowPredictDB(t, 50000)
	opts := QueryOptions{
		Parallelism:           4,
		ParallelThresholdRows: 1,
		MorselSize:            512,
	}
	// Uncancelled reference: the query takes much longer than the deadline
	// below, so the deadline is guaranteed to land mid-execution.
	start := time.Now()
	if _, err := db.QueryWithOptions(slowPredictQuery, opts); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	if full < 10*time.Millisecond {
		t.Skipf("query too fast (%v) to cancel reliably on this host", full)
	}

	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		start = time.Now()
		rows, err := db.QueryContextWithOptions(ctx, slowPredictQuery, opts)
		if err == nil {
			_, err = rows.Collect()
		}
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("run %d: want DeadlineExceeded, got %v", i, err)
		}
		if elapsed > full/2+50*time.Millisecond {
			t.Errorf("run %d: cancellation not prompt: took %v of a %v query", i, elapsed, full)
		}
	}
	assertGoroutinesReturn(t, base)
}

func TestPreCancelledContext(t *testing.T) {
	db := slowPredictDB(t, 20000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	base := runtime.NumGoroutine()
	rows, err := db.QueryContextWithOptions(ctx, slowPredictQuery, QueryOptions{
		Parallelism: 4, ParallelThresholdRows: 1,
	})
	if err == nil {
		_, err = rows.Collect()
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	assertGoroutinesReturn(t, base)
}

func TestStmtQueryContextCancel(t *testing.T) {
	db := slowPredictDB(t, 50000)
	st, err := db.PrepareWithOptions(slowPredictQuery, QueryOptions{
		Parallelism: 4, ParallelThresholdRows: 1, MorselSize: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Uncancelled prepared run works and is the reference.
	rows, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	rows, err = st.QueryContext(ctx)
	if err == nil {
		_, err = rows.Collect()
	}
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		t.Fatalf("want ctx error, got %v", err)
	}
	assertGoroutinesReturn(t, base)
	// The statement is still healthy after a cancelled execution.
	rows, err = st.Query()
	if err != nil {
		t.Fatal(err)
	}
	again, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	batchesIdentical(t, "post-cancel reuse", ref.Batch, again.Batch)
}

// TestContextCancelsParallelAggregate blocks a predictor below the
// two-phase parallel aggregate: the deadline must surface promptly from
// the fold workers (they poll ctx between morsels and the wrapped
// predictor polls per batch) with no goroutines left behind.
func TestContextCancelsParallelAggregate(t *testing.T) {
	db := slowPredictDB(t, 50000)
	q := `SELECT COUNT(*) AS n, AVG(p.prob) AS ap FROM PREDICT(MODEL='slow_rf', DATA=flights_features AS d) WITH (prob FLOAT) AS p WHERE d.f0 > -100`
	opts := QueryOptions{Parallelism: 4, ParallelThresholdRows: 1, MorselSize: 512}
	// Uncancelled reference run: the aggregate works and takes long
	// enough that a 2ms deadline lands mid-fold.
	start := time.Now()
	if _, err := db.QueryWithOptions(q, opts); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	if full < 10*time.Millisecond {
		t.Skipf("query too fast (%v) to cancel reliably on this host", full)
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		start = time.Now()
		rows, err := db.QueryContextWithOptions(ctx, q, opts)
		if err == nil {
			_, err = rows.Collect()
		}
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("run %d: want DeadlineExceeded, got %v", i, err)
		}
		if elapsed > full/2+50*time.Millisecond {
			t.Errorf("run %d: cancellation not prompt: %v of a %v query", i, elapsed, full)
		}
	}
	assertGoroutinesReturn(t, base)
}

// TestContextCancelsBreakersOverJoin runs the full stacked shape — join
// build + probe exchange + post-breaker predict pipeline + parallel
// aggregate merge — under a deadline. Whichever phase the deadline lands
// in must abort promptly and leak nothing.
func TestContextCancelsBreakersOverJoin(t *testing.T) {
	db, h := hospitalDB(t, 40000)
	rf := train.FitForest(h.TrainX, h.TrainY, train.ForestOptions{
		NumTrees: 24,
		Seed:     11,
		Tree:     train.TreeOptions{MaxDepth: 8, MinLeaf: 10},
	})
	if err := db.StoreModel("slow_los", &ml.Pipeline{Final: rf, InputColumns: h.FeatureCols}); err != nil {
		t.Fatal(err)
	}
	q := `SELECT COUNT(*) AS n, AVG(p.los) AS al
		FROM PREDICT(MODEL='slow_los',
		  DATA=(SELECT * FROM patient_info AS pi
		        JOIN blood_tests AS bt ON pi.id = bt.id
		        JOIN prenatal_tests AS pt ON bt.id = pt.id) AS d)
		WITH (los FLOAT) AS p`
	opts := QueryOptions{Parallelism: 4, ParallelThresholdRows: 1, MorselSize: 512}
	if _, err := db.QueryWithOptions(q, opts); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	// Deadlines spread from "inside the join build" to "inside the
	// aggregate fold" so different phases get hit across runs.
	for _, d := range []time.Duration{500 * time.Microsecond, 2 * time.Millisecond, 8 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		rows, err := db.QueryContextWithOptions(ctx, q, opts)
		if err == nil {
			_, err = rows.Collect()
		}
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("deadline %v: want DeadlineExceeded or success, got %v", d, err)
		}
	}
	// Pre-cancelled: no phase may even start.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := db.QueryContextWithOptions(ctx, q, opts)
	if err == nil {
		_, err = rows.Collect()
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: want Canceled, got %v", err)
	}
	assertGoroutinesReturn(t, base)
}

// TestContextCancelsPipelineBreakers drives cancellation through sort and
// aggregate (the join_agg.go materializing operators) rather than the
// exchange itself.
func TestContextCancelsPipelineBreakers(t *testing.T) {
	db := slowPredictDB(t, 50000)
	q := `SELECT d.f0, p.prob FROM PREDICT(MODEL='slow_rf', DATA=flights_features AS d) WITH (prob FLOAT) AS p WHERE d.f0 > -100 ORDER BY p.prob DESC LIMIT 10`
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	rows, err := db.QueryContextWithOptions(ctx, q, QueryOptions{
		Parallelism: 4, ParallelThresholdRows: 1, MorselSize: 512,
	})
	if err == nil {
		_, err = rows.Collect()
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	assertGoroutinesReturn(t, base)
}
