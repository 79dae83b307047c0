// Command ravenexplain shows Raven's optimizer at work on the paper's
// running example: the bound logical plan, the unified IR, the optimized
// IR with engine placement, and the regenerated SQL — Fig 1 as text.
//
// Usage:
//
//	ravenexplain [-rows N] [-query "SELECT ..."]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"raven"
	"raven/internal/data"
	"raven/internal/ml"
	"raven/internal/train"
)

const runningExample = `
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ravenexplain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rows := fs.Int("rows", 10000, "rows per generated table")
	query := fs.String("query", runningExample, "inference query to explain")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	db := raven.MustOpen()
	h, err := data.GenHospital(db.Catalog(), *rows, 4000, 42)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	tree := train.FitTree(h.TrainX, h.TrainY, train.TreeOptions{MaxDepth: 5, MinLeaf: 20})
	if err := db.StoreModel("duration_of_stay", &ml.Pipeline{Final: tree, InputColumns: h.FeatureCols}); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	out, err := db.Explain(*query, raven.DefaultQueryOptions())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, out)
	return 0
}
