package raven

import (
	"fmt"
	"testing"

	"raven/internal/storage"
	"raven/internal/types"
)

// TestJoinNullKeysMatchNothing: a NULL join key equals nothing, not even
// another NULL, whatever its value slot holds. Both tables are loaded
// with AppendBatch and a null bitmap; each NULL's slot holds a key the
// other side has (or, for VARCHAR, meets another NULL), so a join that
// reads past the mask returns extra rows.
func TestJoinNullKeysMatchNothing(t *testing.T) {
	db := MustOpen()
	load := func(name string, cols []types.Column, nulls []int, rows ...[]any) {
		t.Helper()
		b := types.NewBatch(types.NewSchema(cols...))
		for _, r := range rows {
			if err := b.AppendRow(r...); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []int{0, 1} {
			for _, i := range nulls {
				b.Vecs[c].SetNull(i)
			}
		}
		tb := storage.NewTable(name, b.Schema)
		if err := tb.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
		if err := db.Catalog().AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	// l's rows 0 and 2 and r's row 1 are NULL in both key columns. Read
	// past the mask, l0 would join r0 (7, "x"), and l2 would join r1 (8
	// by value; NULL = NULL for VARCHAR).
	load("l", []types.Column{{Name: "lk", Type: types.Int}, {Name: "ls", Type: types.String}, {Name: "a", Type: types.Int}},
		[]int{0, 2}, []any{int64(7), "x", int64(0)}, []any{int64(7), "x", int64(1)}, []any{int64(8), "", int64(2)})
	load("r", []types.Column{{Name: "rk", Type: types.Int}, {Name: "rs", Type: types.String}, {Name: "b", Type: types.Int}},
		[]int{1}, []any{int64(7), "x", int64(10)}, []any{int64(8), "", int64(11)}, []any{int64(9), "y", int64(12)})
	for _, on := range []string{"l.lk = r.rk", "l.ls = r.rs"} {
		for _, dop := range []int{1, 2, 8} {
			res, err := db.QueryWithOptions(`SELECT a, b FROM l JOIN r ON `+on,
				QueryOptions{Parallelism: dop, ParallelThresholdRows: 1})
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for i := 0; i < res.Batch.Len(); i++ {
				got = append(got, fmt.Sprint(res.Batch.Row(i)))
			}
			if fmt.Sprint(got) != "[[1 10]]" {
				t.Errorf("ON %s dop=%d: rows %v, want only [1 10]: a NULL key matched", on, dop, got)
			}
		}
	}
}
