package raven

import (
	"math"
	"testing"

	"raven/internal/ml"
	"raven/internal/types"
)

// TestStatisticsFactsCoverEveryRow: UseStatistics narrows a model by the
// range a column's values lie in, so that range must cover every row the
// model reads. A NaN row (which the kernel sends right) or a NULL row
// (whose value slot the kernel reads) gives no range at all. Each table
// holds one such row beside a 1.0 that alone would prune the tree to its
// left leaf; the answers with and without statistics must be equal, in
// memory (the tail) and after a durable seal (the footers).
func TestStatisticsFactsCoverEveryRow(t *testing.T) {
	// x <= 5 → 10, else 20.
	tree := &ml.DecisionTree{
		NFeat: 1, Feature: []int{0, -1, -1}, Threshold: []float64{5, 0, 0},
		Left: []int{1, -1, -1}, Right: []int{2, -1, -1}, Value: []float64{0, 10, 20},
	}
	tables := []struct {
		name string
		x    float64 // the odd row's value (slot)
		null bool
	}{
		{"nan", math.NaN(), false},
		{"null", 7, true},
	}
	for _, durable := range []bool{false, true} {
		var opts []Option
		if durable {
			// Every two-row append seals a segment.
			opts = []Option{WithDataDir(t.TempDir()), WithFsync("off"), WithSegmentRows(2)}
		}
		db, err := Open(opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.StoreModel("x_tree", &ml.Pipeline{Final: tree, InputColumns: []string{"x"}}); err != nil {
			t.Fatal(err)
		}
		for _, tc := range tables {
			if err := db.Exec(`CREATE TABLE ` + tc.name + ` (id INT, x FLOAT)`); err != nil {
				t.Fatal(err)
			}
			tb, err := db.Catalog().Table(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			b := types.NewBatch(tb.Schema())
			if err := b.AppendRow(int64(1), tc.x); err != nil {
				t.Fatal(err)
			}
			if tc.null {
				b.Vecs[1].SetNull(0)
			}
			if err := b.AppendRow(int64(2), 1.0); err != nil {
				t.Fatal(err)
			}
			if err := tb.AppendBatch(b); err != nil {
				t.Fatal(err)
			}
			if durable && db.Stats().Storage.Segments == 0 {
				t.Fatal("the append sealed no segment")
			}
			q := `SELECT d.id, p.s ` + predictOver("x_tree", tc.name+" AS d")
			var got [2]string
			for i, stats := range []bool{false, true} {
				o := DefaultQueryOptions()
				o.DisableInlining, o.UseStatistics = true, stats
				res, err := db.QueryWithOptions(q, o)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = res.Batch.String()
			}
			if got[0] != got[1] {
				t.Errorf("%s (durable %v): with statistics\n%s\nwithout\n%s", tc.name, durable, got[1], got[0])
			}
		}
	}
}
