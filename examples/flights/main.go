// Flights: model-projection pushdown on L1-sparse logistic regression
// (paper §4.1 / Fig 2a). Trains two flight-delay models at different L1
// strengths, stores both, and shows how the zero-weight features are
// projected out of the scan — larger sparsity, larger win.
package main

import (
	"fmt"
	"log"

	"raven"
	"raven/internal/data"
	"raven/internal/ml"
	"raven/internal/train"
)

func main() {
	db := raven.MustOpen()
	fmt.Println("generating flights_features (wide pre-encoded feature table)...")
	fl, err := data.GenFlightsWide(db.Catalog(), 300000, 150, 40, 5000, 21)
	if err != nil {
		log.Fatal(err)
	}

	for _, m := range []struct {
		name string
		l1   float64
	}{
		{"delay_weak_l1", 0.004},
		{"delay_strong_l1", 0.05},
	} {
		lr := train.FitLogReg(fl.TrainX, fl.TrainY, train.LogRegOptions{L1: m.l1, Epochs: 60, Seed: 2})
		scores, _ := lr.Predict(fl.TrainX)
		auc := train.AUC(scores, fl.TrainY)
		if err := db.StoreModel(m.name, &ml.Pipeline{Final: lr, InputColumns: fl.FeatureCols}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nmodel %s: sparsity %.1f%%, AUC %.3f\n", m.name, lr.Sparsity()*100, auc)

		q := fmt.Sprintf(`SELECT p.prob FROM PREDICT(MODEL='%s',
			DATA=flights_features AS d) WITH (prob FLOAT) AS p`, m.name)

		base, err := db.QueryWithOptions(q, raven.QueryOptions{
			CrossOptimize: false, Parallelism: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		opt, err := db.QueryWithOptions(q, raven.QueryOptions{
			CrossOptimize: true, DisableNNTranslation: true, DisableInlining: true,
			Parallelism: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  baseline:            %v\n", base.Elapsed.Round(1000000))
		fmt.Printf("  projection pushdown: %v (%.2fx, rules %v)\n",
			opt.Elapsed.Round(1000000), float64(base.Elapsed)/float64(opt.Elapsed), opt.AppliedRules)
	}

	// The narrowed scan is visible in the regenerated plan.
	explain, err := db.Explain(`SELECT p.prob FROM PREDICT(MODEL='delay_strong_l1',
		DATA=flights_features AS d) WITH (prob FLOAT) AS p`,
		raven.QueryOptions{CrossOptimize: true, DisableNNTranslation: true, DisableInlining: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== optimizer view (note the pruned scan column list) ==")
	fmt.Println(truncate(explain, 2200))
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "\n... (truncated)"
}
