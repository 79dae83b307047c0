package raven

import (
	"context"
	"errors"
	"testing"

	"raven/internal/storage"
	"raven/internal/types"
)

// TestNextBatchMixesWithNext: NextBatch hands out the rest of the batch
// Next is in, then whole batches; Scan fails until Next moves to a row
// again; every row arrives once, in order; a cancelled context ends the
// stream with its error.
func TestNextBatchMixesWithNext(t *testing.T) {
	const n = 10000
	db := MustOpen()
	b := types.NewBatch(types.NewSchema(types.Column{Name: "k", Type: types.Int}))
	for i := 0; i < n; i++ {
		b.AppendRow(int64(i))
	}
	tb := storage.NewTable("seq", b.Schema)
	if err := tb.AppendBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := db.Catalog().AddTable(tb); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryContext(context.Background(), `SELECT k FROM seq`)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	var k int64
	batches := 0
	for step := 0; ; step++ {
		if step%2 == 0 { // one row by Next, the rest of its batch by NextBatch
			if !rows.Next() {
				break
			}
			if err := rows.Scan(&k); err != nil {
				t.Fatal(err)
			}
			got = append(got, k)
			continue
		}
		bt := rows.NextBatch()
		if bt == nil {
			break
		}
		batches++
		for i := 0; i < bt.Len(); i++ {
			got = append(got, bt.Vecs[0].IntAt(i))
		}
		if err := rows.Scan(&k); err == nil {
			t.Fatal("Scan after NextBatch succeeded")
		}
	}
	if err := rows.Err(); err != nil || rows.NextBatch() != nil || rows.Next() {
		t.Fatalf("after the end: err %v, or more rows", err)
	}
	if len(got) != n || batches < 2 {
		t.Fatalf("%d rows in %d NextBatch calls, want %d rows over several", len(got), batches, n)
	}
	for i, k := range got {
		if k != int64(i) {
			t.Fatalf("row %d is %d", i, k)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	rows, err = db.QueryContext(ctx, `SELECT k FROM seq`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.NextBatch() == nil {
		t.Fatal("no first batch")
	}
	cancel()
	if rows.NextBatch() != nil || !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("NextBatch after cancel: err %v", rows.Err())
	}
}
