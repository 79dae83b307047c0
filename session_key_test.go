package raven

import (
	"testing"

	"raven/internal/ml"
	"raven/internal/storage"
	"raven/internal/types"
)

// TestSessionKeyFollowsWhatTheSessionIsCompiledFrom: a cached tensor
// session belongs to the optimized graph it was compiled from, which
// depends on the query text, every optimizer option and — under
// UseStatistics — the data. One text run under two option sets, or
// before and after an insert that widens a column's range, must score
// exactly as a session from an empty cache does.
func TestSessionKeyFollowsWhatTheSessionIsCompiledFrom(t *testing.T) {
	same := func(t *testing.T, db *DB, label, q string, opts QueryOptions) {
		t.Helper()
		var want *Result
		withEmptySessionCache(db, func() { want = collectParams(t, db, q, opts, nil) })
		if want.Batch.Len() == 0 {
			t.Fatalf("%s: reference result empty", label)
		}
		batchesIdentical(t, label, want.Batch, collectParams(t, db, q, opts, nil).Batch)
	}

	t.Run("options", func(t *testing.T) {
		db, _ := hospitalDB(t, 1000)
		q := `SELECT d.id, p.s ` + predictOver("duration_of_stay", hospitalJoin) + `WHERE d.pregnant = 1`
		opts := DefaultQueryOptions()
		opts.DisableInlining = true
		same(t, db, "no inlining", q, opts)
		opts.DisableProjectionPushdown = true
		same(t, db, "no inlining, no projection pushdown", q, opts)
	})

	t.Run("statistics", func(t *testing.T) {
		db := MustOpen()
		tb := storage.NewTable("st", types.NewSchema(types.Column{Name: "k", Type: types.Int},
			types.Column{Name: "x", Type: types.Float}, types.Column{Name: "y", Type: types.Float}))
		if err := db.Catalog().AddTable(tb); err != nil {
			t.Fatal(err)
		}
		load := func(lo, hi int, x float64) {
			t.Helper()
			b := types.NewBatch(tb.Schema())
			for i := lo; i < hi; i++ {
				if err := b.AppendRow(int64(i), x+float64(i%7), float64(i%5)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tb.AppendBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		// x <= 0 → 0.2; else y <= 1 → 0.5, else 0.9.
		tree := &ml.DecisionTree{
			NFeat: 2, Feature: []int{0, -1, 1, -1, -1}, Threshold: []float64{0, 0, 1, 0, 0},
			Left: []int{1, -1, 3, -1, -1}, Right: []int{2, -1, 4, -1, -1}, Value: []float64{0, 0.2, 0, 0.5, 0.9},
		}
		if err := db.StoreModel("st_tree", &ml.Pipeline{Final: tree, InputColumns: []string{"x", "y"}}); err != nil {
			t.Fatal(err)
		}
		q := `SELECT d.k, p.s ` + predictOver("st_tree", "st AS d")
		opts := DefaultQueryOptions()
		opts.DisableInlining, opts.UseStatistics = true, true
		load(0, 50, -20) // every x <= 0: statistics prune the tree to one leaf
		same(t, db, "before the insert", q, opts)
		load(50, 100, 1) // now x > 0 too
		same(t, db, "after the insert", q, opts)
	})
}
