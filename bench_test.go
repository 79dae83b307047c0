// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark wraps the corresponding experiment in
// internal/bench at quick scale; `go run ./cmd/ravenbench` prints the
// full-scale tables recorded in EXPERIMENTS.md.
package raven_test

import (
	"context"
	"testing"

	"raven"
	"raven/internal/bench"
	"raven/internal/data"
	"raven/internal/ml"
	"raven/internal/train"
)

func runExperiment(b *testing.B, fn func(bench.Config) (*bench.Table, error)) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb, err := fn(bench.QuickConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

// BenchmarkFig2aProjectionPushdown regenerates Fig 2(a): model-projection
// pushdown on L1-sparse logistic regression over flight delay.
func BenchmarkFig2aProjectionPushdown(b *testing.B) { runExperiment(b, bench.Fig2a) }

// BenchmarkFig2bModelClustering regenerates Fig 2(b): per-cluster
// precompiled models vs the original pipeline.
func BenchmarkFig2bModelClustering(b *testing.B) { runExperiment(b, bench.Fig2b) }

// BenchmarkFig2cModelInlining regenerates Fig 2(c): decision tree inlined
// as a SQL CASE expression vs external classical-framework scoring.
func BenchmarkFig2cModelInlining(b *testing.B) { runExperiment(b, bench.Fig2c) }

// BenchmarkFig2dNNTranslation regenerates Fig 2(d): random forest vs its
// NN translation on CPU and the simulated GPU.
func BenchmarkFig2dNNTranslation(b *testing.B) { runExperiment(b, bench.Fig2d) }

// BenchmarkFig3InferenceModes regenerates Fig 3: standalone ORT vs Raven
// in-process (cache + parallel scan) vs Raven Ext (out-of-process).
func BenchmarkFig3InferenceModes(b *testing.B) { runExperiment(b, bench.Fig3) }

// BenchmarkPredicatePruning regenerates the §4.1 inline numbers: ~29%
// faster tree under pregnant=1, ~2.1x LR with a categorical equality.
func BenchmarkPredicatePruning(b *testing.B) { runExperiment(b, bench.PredicatePruning) }

// BenchmarkBatchVsTuple regenerates §5 observation (v): batch inference
// vs one prediction per tuple.
func BenchmarkBatchVsTuple(b *testing.B) { runExperiment(b, bench.BatchVsTuple) }

// BenchmarkStaticAnalysis regenerates §3.2's <10ms static-analysis claim.
func BenchmarkStaticAnalysis(b *testing.B) { runExperiment(b, bench.StaticAnalysis) }

// BenchmarkRunningExample regenerates the Fig 1 end-to-end query with all
// optimizations against the unoptimized external path.
func BenchmarkRunningExample(b *testing.B) { runExperiment(b, bench.RunningExample) }

// BenchmarkPreparedPredict measures prepared execution against cold
// per-call compilation on a small inference query.
func BenchmarkPreparedPredict(b *testing.B) { runExperiment(b, bench.PreparedPredict) }

// BenchmarkQueryOptimizedVsBaseline measures one optimized inference query
// end to end (per-iteration latency rather than whole-experiment time).
func BenchmarkQueryOptimizedVsBaseline(b *testing.B) {
	db := raven.MustOpen()
	h, err := data.GenHospital(db.Catalog(), 50000, 4000, 42)
	if err != nil {
		b.Fatal(err)
	}
	tree := train.FitTree(h.TrainX, h.TrainY, train.TreeOptions{MaxDepth: 6, MinLeaf: 10})
	if err := db.StoreModel("m", &ml.Pipeline{Final: tree, InputColumns: h.FeatureCols}); err != nil {
		b.Fatal(err)
	}
	const dataSQL = `SELECT * FROM patient_info AS pi
		      JOIN blood_tests AS bt ON pi.id = bt.id
		      JOIN prenatal_tests AS pt ON bt.id = pt.id`
	q := `SELECT p.s FROM PREDICT(MODEL='m', DATA=(` + dataSQL + `) AS d)
		WITH (s FLOAT) AS p WHERE d.pregnant = 1`
	b.Run("optimized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("baseline-inprocess", func(b *testing.B) {
		opts := raven.QueryOptions{CrossOptimize: false, Parallelism: 1}
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryWithOptions(q, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("baseline-external", func(b *testing.B) {
		// the paper's headline comparison: the framework outside the DB,
		// modelled by the harness
		for i := 0; i < b.N; i++ {
			if _, err := bench.ScoreExternal(context.Background(), db, dataSQL, "m", bench.DefaultExternalStartup); err != nil {
				b.Fatal(err)
			}
		}
	})
}
