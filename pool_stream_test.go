package raven

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// The streamed-Rows pooling contract: values handed out through
// Rows.Next/Scan must stay correct even while other queries on the same
// engine churn the recycled vector and run-buffer pools, and a query
// cancelled mid-morsel must hand its buffers back without poisoning the
// pools for later queries. Run under -race these tests double as aliasing
// detectors: a pooled buffer reused while still referenced shows up as a
// concurrent read/write.

const poolStreamQuery = `SELECT f0, f2 FROM flights_features WHERE f2 > 0 ORDER BY f0 DESC`

// TestStreamedRowsNeverAliasRecycledBatches streams one query row by row
// while four goroutines run the same ORDER BY plan to completion over and
// over, recycling sort runs and kernel vectors the whole time. Every
// streamed row must match the serial reference.
func TestStreamedRowsNeverAliasRecycledBatches(t *testing.T) {
	db := flightsDB(t, 20000)
	ref, err := db.QueryWithOptions(poolStreamQuery, QueryOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Batch
	if want.Len() == 0 {
		t.Fatal("reference result empty")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r, err := db.QueryWithOptions(poolStreamQuery, QueryOptions{
					Parallelism: 4, ParallelThresholdRows: 1, MorselSize: 512,
				})
				if err != nil {
					t.Errorf("churn query: %v", err)
					return
				}
				if r.Batch.Len() != want.Len() {
					t.Errorf("churn query: %d rows, want %d", r.Batch.Len(), want.Len())
					return
				}
			}
		}()
	}

	rows, err := db.QueryContextWithOptions(context.Background(), poolStreamQuery, QueryOptions{
		Parallelism: 4, ParallelThresholdRows: 1, MorselSize: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for rows.Next() {
		var f0, f2 float64
		if err := rows.Scan(&f0, &f2); err != nil {
			t.Fatal(err)
		}
		if i < want.Len() {
			w0, w2 := want.Vecs[0].Floats[i], want.Vecs[1].Floats[i]
			if f0 != w0 || f2 != w2 {
				t.Fatalf("row %d: streamed (%v, %v), want (%v, %v) — recycled batch aliased live results", i, f0, f2, w0, w2)
			}
		}
		i++
	}
	close(stop)
	wg.Wait()
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if i != want.Len() {
		t.Fatalf("streamed %d rows, want %d", i, want.Len())
	}
}

// TestCancelledQueryLeavesPoolsUsable cancels queries mid-stream — morsel
// workers still producing, sort runs undrained — then checks the engine
// still answers the same query byte-identically. A cancelled query that
// double-recycled or leaked a live buffer would corrupt the follow-up.
func TestCancelledQueryLeavesPoolsUsable(t *testing.T) {
	db := flightsDB(t, 20000)
	ref, err := db.QueryWithOptions(poolStreamQuery, QueryOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		rows, err := db.QueryContextWithOptions(ctx, poolStreamQuery, QueryOptions{
			Parallelism: 4, ParallelThresholdRows: 1, MorselSize: 512,
		})
		if err != nil {
			cancel()
			t.Fatalf("run %d: %v", i, err)
		}
		// A few rows in, cancel with the exchange mid-flight.
		for j := 0; j < 3 && rows.Next(); j++ {
			var f0, f2 float64
			if err := rows.Scan(&f0, &f2); err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
		}
		cancel()
		for rows.Next() {
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("run %d: close: %v", i, err)
		}

		after, err := db.QueryWithOptions(poolStreamQuery, QueryOptions{
			Parallelism: 4, ParallelThresholdRows: 1, MorselSize: 512,
		})
		if err != nil {
			t.Fatalf("run %d: follow-up: %v", i, err)
		}
		batchesIdentical(t, fmt.Sprintf("follow-up after cancel %d", i), ref.Batch, after.Batch)
	}
	assertGoroutinesReturn(t, base)
}
