package ml_test

import (
	"testing"

	"raven/internal/data"
	"raven/internal/ml"
	"raven/internal/storage"
	"raven/internal/train"
)

// BenchmarkForestTopK is the batch benchmark's topk_sort model work on one
// core: the hospital forest (16 trees of depth 8, fitted as the benchmark
// fits it) over 30 calls of 4096 rows, ≈ its 120K joined rows, under one
// TopK with k = 100 ("bound"), beside the full kernel over the same rows
// ("full"). It reports ns/row for each and the rows the bound kept.
func BenchmarkForestTopK(b *testing.B) {
	const per, calls = 4096, 30
	h, err := data.GenHospital(storage.NewCatalog(), 1, 4000, 42)
	if err != nil {
		b.Fatal(err)
	}
	p := &ml.Pipeline{Final: train.FitForest(h.TrainX, h.TrainY, train.ForestOptions{
		NumTrees: 16, Tree: train.TreeOptions{MaxDepth: 8, MinLeaf: 5}, Seed: 42})}
	rows, err := data.GenHospital(storage.NewCatalog(), 1, per*calls, 1)
	if err != nil {
		b.Fatal(err)
	}
	cols := make([][]float64, rows.TrainX.Cols)
	for c := range cols {
		for r := 0; r < rows.TrainX.Rows; r++ {
			cols[c] = append(cols[c], rows.TrainX.At(r, c))
		}
	}
	part, sc := make([][]float64, len(cols)), &ml.PredictScratch{}
	each := func(fn func() (int, error)) (kept int) {
		for lo := 0; lo < per*calls; lo += per {
			for c := range cols {
				part[c] = cols[c][lo : lo+per]
			}
			n, err := fn()
			if err != nil {
				b.Fatal(err)
			}
			kept += n
		}
		return kept
	}
	out := make([]float64, per)
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			each(func() (int, error) { return per, p.PredictColumns(part, out, sc) })
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*per*calls), "ns/row")
	})
	b.Run("bound", func(b *testing.B) {
		b.ReportAllocs()
		var keep []int
		kept := 0
		for i := 0; i < b.N; i++ {
			tk := ml.NewTopK(100, true)
			kept = each(func() (int, error) {
				var err error
				keep, out, err = p.PredictColumnsTopK(part, per, tk, keep[:0], out[:0], sc)
				return len(keep), err
			})
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*per*calls), "ns/row")
		b.ReportMetric(float64(kept)/float64(per*calls), "survivors/row")
	})
}
