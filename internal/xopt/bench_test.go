package xopt_test

import (
	"strconv"
	"testing"

	"raven"
	"raven/internal/data"
	"raven/internal/ml"
	"raven/internal/train"
)

var sinkRows int

// BenchmarkSelectivePredict runs the three selective shapes the serving
// and batch benchmarks are made of — a prepared point lookup, a prepared
// 2,000-row range and Fig 1's pregnant = 1 — end to end over the 20K-row
// hospital join with a depth-6 tree, so what it times is what selection
// pushdown changes: how many rows are joined and scored to answer.
func BenchmarkSelectivePredict(b *testing.B) {
	const rows = 20000
	db := raven.MustOpen()
	h, err := data.GenHospital(db.Catalog(), rows, 4000, 42)
	if err != nil {
		b.Fatal(err)
	}
	tree := train.FitTree(h.TrainX, h.TrainY, train.TreeOptions{MaxDepth: 6, MinLeaf: 10})
	if err := db.StoreModel("los_tree", &ml.Pipeline{Final: tree, InputColumns: h.FeatureCols}); err != nil {
		b.Fatal(err)
	}
	const from = `SELECT d.id, p.score FROM PREDICT(MODEL='los_tree', DATA=(SELECT * FROM patient_info AS pi
		JOIN blood_tests AS bt ON pi.id = bt.id JOIN prenatal_tests AS pt ON bt.id = pt.id) AS d) WITH (score FLOAT) AS p WHERE `
	for _, bc := range []struct {
		name, where string
		params      func(i int) []raven.Param
	}{
		{"point", "d.id = @id", func(i int) []raven.Param {
			return []raven.Param{raven.P("id", strconv.Itoa(i*7919%rows))}
		}},
		{"range2k", "d.id >= @lo AND d.id < @hi", func(i int) []raven.Param {
			lo := i * 7919 % (rows - 2000)
			return []raven.Param{raven.P("lo", strconv.Itoa(lo)), raven.P("hi", strconv.Itoa(lo+2000))}
		}},
		{"fig1", "d.pregnant = 1 AND p.score > 0.5", func(int) []raven.Param { return nil }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			st, err := db.Prepare(from + bc.where)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs, err := st.Query(bc.params(i)...)
				if err != nil {
					b.Fatal(err)
				}
				res, err := rs.Collect()
				if err != nil {
					b.Fatal(err)
				}
				sinkRows += res.Batch.Len()
			}
		})
	}
}
