package exec

import (
	"testing"

	"raven/internal/expr"
	"raven/internal/plan"
	"raven/internal/types"
)

// BenchmarkOneWorkerScanFilterPredict drives the path every below-threshold
// and DOP-1 query takes: scan + filter + PREDICT compiled at Parallelism 1,
// drained batch by batch. allocs/op over the 25 morsels of the 100K-row
// table is the per-morsel allocation count the inline Next must not grow.
func BenchmarkOneWorkerScanFilterPredict(b *testing.B) {
	tb := numbersTable(b, 100000)
	root := plan.NewPredict(
		&plan.Filter{Child: plan.NewScan(tb), Pred: expr.NewBinary(expr.OpGt, &expr.Column{Name: "x"}, expr.FloatLit(10))},
		"m", []types.Column{{Name: "score", Type: types.Float}})
	env := &Env{
		Parallelism: 1,
		Lower:       scoreWith(constPredictor{bias: 1}),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, err := Compile(root, env)
		if err != nil {
			b.Fatal(err)
		}
		if err := op.Open(); err != nil {
			b.Fatal(err)
		}
		rows := 0
		for {
			batch, err := op.Next()
			if err != nil {
				b.Fatal(err)
			}
			if batch == nil {
				break
			}
			rows += batch.Len()
		}
		if err := op.Close(); err != nil {
			b.Fatal(err)
		}
		if rows != 100000-21 {
			b.Fatalf("rows = %d", rows)
		}
	}
}
