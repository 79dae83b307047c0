// Hospital: the paper's running example (Fig 1) end to end — three
// joinable tables, a stored decision-tree pipeline, and the pregnant-
// patients inference query, showing each cross-optimization firing and the
// speedup over the same query with the cross optimizer off (every model on
// its pipeline kernel, in process).
package main

import (
	"fmt"
	"log"
	"time"

	"raven"
	"raven/internal/data"
	"raven/internal/ml"
	"raven/internal/train"
)

const inferenceQuery = `
DECLARE @model = 'duration_of_stay';
WITH data AS (
  SELECT * FROM patient_info AS pi
  JOIN blood_tests AS bt ON pi.id = bt.id
  JOIN prenatal_tests AS pt ON bt.id = pt.id
)
SELECT d.id, p.length_of_stay
FROM PREDICT(MODEL = @model, DATA = data AS d)
WITH (length_of_stay FLOAT) AS p
WHERE d.pregnant = 1 AND p.length_of_stay > 0.5`

func main() {
	db := raven.MustOpen()
	fmt.Println("generating hospital workload (patient_info ⋈ blood_tests ⋈ prenatal_tests)...")
	h, err := data.GenHospital(db.Catalog(), 200000, 6000, 42)
	if err != nil {
		log.Fatal(err)
	}

	// Train the length-of-stay decision tree on historical data and store
	// it in the database (the data scientist's half of Fig 1).
	tree := train.FitTree(h.TrainX, h.TrainY, train.TreeOptions{MaxDepth: 6, MinLeaf: 10})
	pipe := &ml.Pipeline{Final: tree, InputColumns: h.FeatureCols}
	if err := db.StoreModel("duration_of_stay", pipe); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored model: decision tree with %d nodes over %v\n\n", tree.NumNodes(), h.FeatureCols)

	// The analyst's query, unoptimized: the classical pipeline scores
	// every joined row inside the engine.
	start := time.Now()
	plain, err := db.QueryWithOptions(inferenceQuery, raven.QueryOptions{CrossOptimize: false, Parallelism: 1})
	if err != nil {
		log.Fatal(err)
	}
	plainTime := time.Since(start)

	// The same query through Raven's cross optimizer.
	start = time.Now()
	opt, err := db.Query(inferenceQuery)
	if err != nil {
		log.Fatal(err)
	}
	optTime := time.Since(start)

	fmt.Printf("unoptimized (model kernel): %8v  -> %d rows\n", plainTime.Round(time.Millisecond), plain.Batch.Len())
	fmt.Printf("Raven cross-optimized:      %8v  -> %d rows\n", optTime.Round(time.Millisecond), opt.Batch.Len())
	fmt.Printf("speedup: %.1fx; rules applied: %v\n\n", float64(plainTime)/float64(optTime), opt.AppliedRules)

	// Show the optimizer's work, Fig 1 as text.
	explain, err := db.Explain(inferenceQuery, raven.DefaultQueryOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(explain)
}
