package raven

import (
	"strings"
	"sync"
	"testing"

	"raven/internal/ml"
	"raven/internal/types"
)

// TestPreparedParamsBindEverySite: a prepared statement's parameters bind
// where its expressions become stages — a filter predicate and the scan
// ranges taken from it, a projection, an aggregate argument — so every
// site that holds one must take the call's value. One statement per site
// runs with two values, one after the other and then concurrently, and
// each answer must equal the same SQL with the value written as a
// literal. The filter directly on a scan must also narrow it: sealed
// segments whose footers miss the bound range are skipped.
func TestPreparedParamsBindEverySite(t *testing.T) {
	db, err := Open(WithDataDir(t.TempDir()), WithFsync("off"), WithSegmentRows(64))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec(`CREATE TABLE bs (id INT, x FLOAT, y FLOAT)`); err != nil {
		t.Fatal(err)
	}
	tb, err := db.Catalog().Table("bs")
	if err != nil {
		t.Fatal(err)
	}
	// Ten sealed 64-row segments and a 30-row tail.
	for lo := 0; lo < 670; lo += 64 {
		b := types.NewBatch(tb.Schema())
		for i := lo; i < min(lo+64, 670); i++ {
			if err := b.AppendRow(int64(i), float64(i%7)+0.5*float64(i%2), float64(i%5)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tb.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	// x <= 3 → 0.2; else y <= 1 → 0.5, else 0.9.
	tree := &ml.DecisionTree{
		NFeat: 2, Feature: []int{0, -1, 1, -1, -1}, Threshold: []float64{3, 0, 1, 0, 0},
		Left: []int{1, -1, 3, -1, -1}, Right: []int{2, -1, 4, -1, -1}, Value: []float64{0, 0.2, 0, 0.5, 0.9},
	}
	if err := db.StoreModel("bs_tree", &ml.Pipeline{Final: tree, InputColumns: []string{"x", "y"}}); err != nil {
		t.Fatal(err)
	}
	// The model stays an operator, so a filter below it is a filter below
	// an operator the relational code does not define.
	opts := DefaultQueryOptions()
	opts.DisableInlining, opts.DisableNNTranslation = true, true

	cases := []struct {
		name    string
		q       string // one @v
		vals    [2]string
		narrows bool
	}{
		{"projection", `SELECT id, x * @v AS z FROM bs`, [2]string{"2", "-1.5"}, false},
		{"aggregate argument", `SELECT COUNT(*) AS n, SUM(x * @v) AS s FROM bs`, [2]string{"2", "0.5"}, false},
		{"filter on a scan", `SELECT id, x FROM bs WHERE id >= @v`, [2]string{"600", "300"}, true},
		{"filter below PREDICT", `SELECT d.id, p.s ` + predictOver("bs_tree", "(SELECT * FROM bs AS e WHERE e.y < @v) AS d"), [2]string{"1.5", "3.5"}, false},
		{"filter on the score above PREDICT", `SELECT d.id, p.s ` + predictOver("bs_tree", "bs AS d") + `WHERE p.s > @v`, [2]string{"0.3", "0.6"}, false},
		{"filter in a CTE referenced twice", `WITH c AS (SELECT id, x FROM bs WHERE x > @v) SELECT a.id, b.x FROM c AS a JOIN c AS b ON a.id = b.id`, [2]string{"2", "5"}, false},
	}
	run := func(st *Stmt, v string) (string, error) {
		res, err := collect(st.Query(P("v", v)))
		if err != nil {
			return "", err
		}
		return res.Batch.String(), nil
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want [2]string
			for i, v := range tc.vals {
				res, err := db.QueryWithOptions(strings.ReplaceAll(tc.q, "@v", v), opts)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = res.Batch.String()
			}
			if want[0] == want[1] {
				t.Fatalf("the two values give one answer:\n%s", want[0])
			}
			st, err := db.PrepareWithOptions(tc.q, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range tc.vals {
				before := db.Stats().Storage
				got, err := run(st, v)
				if err != nil {
					t.Fatal(err)
				}
				if got != want[i] {
					t.Fatalf("@v=%s returned\n%s\nwant\n%s", v, got, want[i])
				}
				after := db.Stats().Storage
				if pruned := after.SegmentsPruned - before.SegmentsPruned; tc.narrows && pruned == 0 {
					t.Errorf("@v=%s pruned no segment (read %d)", v, after.SegmentsScanned-before.SegmentsScanned)
				}
			}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 10; i++ {
						k := (i + w) % 2
						got, err := run(st, tc.vals[k])
						if err != nil {
							t.Error(err)
							return
						}
						if got != want[k] {
							t.Errorf("concurrent @v=%s returned\n%s\nwant\n%s", tc.vals[k], got, want[k])
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}
