// Quickstart: create a table, train & store a model pipeline from a Python
// script via the static analyzer, and run an inference query with the
// cross optimizer.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"raven"
	"raven/internal/ml"
	"raven/internal/pyanal"
)

func main() {
	db := raven.MustOpen()

	// 1. A table of loan applicants.
	if err := db.Exec(`CREATE TABLE applicants (
		id INT PRIMARY KEY, income FLOAT, debt FLOAT, age FLOAT)`); err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	applicants, _ := db.Catalog().Table("applicants")
	for i := 0; i < 20000; i++ {
		income := 20000 + rng.Float64()*120000
		debt := rng.Float64() * 60000
		age := 18 + rng.Float64()*60
		if err := applicants.AppendRow(int64(i), income, debt, age); err != nil {
			log.Fatal(err)
		}
	}

	// 2. The data scientist's pipeline script: statically analyzed, then
	// fitted on a training sample and stored in the database, where it
	// replaces any pipeline stored under the same name.
	script := `
from sklearn.pipeline import Pipeline
from sklearn.preprocessing import StandardScaler
from sklearn.linear_model import LogisticRegression

data = pd.read_sql("SELECT * FROM applicants", conn)
features = data[["income", "debt", "age"]]
model = Pipeline([
    ("scaler", StandardScaler()),
    ("clf", LogisticRegression(C=10)),
])
`
	spec, err := pyanal.Analyze(script)
	if err != nil {
		log.Fatal(err)
	}
	trainX, trainY := trainingSample(8000)
	pipe, err := spec.Fit(trainX, trainY, 7)
	if err != nil {
		log.Fatal(err)
	}
	if err := db.StoreModel("default_risk", pipe); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored pipeline: %d featurizer step(s) + %s model\n", len(pipe.Steps), pipe.Final.Kind())

	// 3. The analyst's inference query: PREDICT invokes the stored model;
	// the WHERE clause mixes data and prediction columns.
	res, err := db.Query(`
		SELECT d.id, p.risk
		FROM PREDICT(MODEL='default_risk', DATA=applicants AS d)
		WITH (risk FLOAT) AS p
		WHERE d.debt > 30000 AND p.risk > 0.5
		ORDER BY risk DESC LIMIT 5`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top risky applicants (%d rows, %v, rules: %v):\n",
		res.Batch.Len(), res.Elapsed.Round(1000000), res.AppliedRules)
	for i := 0; i < res.Batch.Len(); i++ {
		fmt.Printf("  id=%v risk=%.3f\n", res.Batch.Col("id").Ints[i], res.Batch.Col("risk").Floats[i])
	}

	// 4. Inspect what the optimizer did.
	explain, err := db.Explain(`
		SELECT p.risk FROM PREDICT(MODEL='default_risk', DATA=applicants AS d)
		WITH (risk FLOAT) AS p WHERE d.age > 40`, raven.DefaultQueryOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n" + explain)
}

// trainingSample synthesizes labelled applicants: default risk rises with
// debt-to-income.
func trainingSample(n int) (ml.Matrix, []float64) {
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, n*3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		income := 20000 + rng.Float64()*120000
		debt := rng.Float64() * 60000
		age := 18 + rng.Float64()*60
		x[i*3], x[i*3+1], x[i*3+2] = income, debt, age
		if debt/income > 0.45+0.2*rng.NormFloat64() {
			y[i] = 1
		}
	}
	return ml.Matrix{Data: x, Rows: n, Cols: 3}, y
}
