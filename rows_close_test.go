package raven

import (
	"context"
	"runtime"
	"testing"
)

// TestRowsCloseBeforeFirstNext: Close on a never-iterated Rows releases
// the executor cleanly; Next afterwards reports end-of-stream, not a
// panic or an error.
func TestRowsCloseBeforeFirstNext(t *testing.T) {
	db := slowPredictDB(t, 20000)
	base := runtime.NumGoroutine()
	rows, err := db.QueryContextWithOptions(context.Background(), slowPredictQuery, QueryOptions{
		Parallelism: 4, ParallelThresholdRows: 1, MorselSize: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("close before Next: %v", err)
	}
	if rows.Next() {
		t.Fatal("Next returned true on a closed Rows")
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("Err after clean close: %v", err)
	}
	assertGoroutinesReturn(t, base)
}

// TestRowsDoubleCloseMidStream is the regression for the satellite
// guarantee: Close mid-stream (exchange workers still producing) then
// Close again leaks no goroutines and double-Close returns nil.
func TestRowsDoubleCloseMidStream(t *testing.T) {
	db := slowPredictDB(t, 50000)
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		rows, err := db.QueryContextWithOptions(context.Background(), slowPredictQuery, QueryOptions{
			Parallelism: 4, ParallelThresholdRows: 1, MorselSize: 512,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Consume a few rows so the stream is genuinely mid-flight.
		for j := 0; j < 5 && rows.Next(); j++ {
			var score float64
			if err := rows.Scan(&score); err != nil {
				t.Fatal(err)
			}
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("run %d: close: %v", i, err)
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("run %d: double close: %v", i, err)
		}
		// The iteration surface stays safe after Close.
		if rows.Next() {
			t.Fatalf("run %d: Next after Close", i)
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("run %d: Err after Close: %v", i, err)
		}
	}
	assertGoroutinesReturn(t, base)
}

// TestRowsCloseAfterErrIsSafe: a Rows that died of a context error can be
// Closed repeatedly without changing the recorded error.
func TestRowsCloseAfterErrIsSafe(t *testing.T) {
	db := slowPredictDB(t, 20000)
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.QueryContextWithOptions(ctx, slowPredictQuery, QueryOptions{
		Parallelism: 4, ParallelThresholdRows: 1, MorselSize: 512,
	})
	if err != nil {
		// Cancellation raced into compile; nothing to iterate.
		cancel()
		return
	}
	cancel()
	for rows.Next() {
	}
	firstErr := rows.Err()
	if err := rows.Close(); err != nil {
		t.Fatalf("close after err: %v", err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("double close after err: %v", err)
	}
	if got := rows.Err(); got != firstErr {
		t.Fatalf("Err changed across Close: %v -> %v", firstErr, got)
	}
}

// TestCollectAfterClose: Collect on a closed Rows yields an empty result
// (documented), not a poll of a closed operator.
func TestCollectAfterClose(t *testing.T) {
	db := prepDB(t)
	rows, err := db.QueryContext(context.Background(), predictQuery)
	if err != nil {
		t.Fatal(err)
	}
	rows.Close()
	res, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.Len() != 0 {
		t.Fatalf("collect after close returned %d rows", res.Batch.Len())
	}
}
