package raven

import (
	"flag"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"raven/internal/codegen"
	"raven/internal/data"
	"raven/internal/ml"
	"raven/internal/train"
)

var updatePlans = flag.Bool("update-plans", false, "rewrite testdata/plans.golden from the plans this build produces")

const plansGolden = "testdata/plans.golden"

// benchHospitalJoin is benchmark/data.go's hospitalJoin; the query texts
// below are copied from benchmark/batch.go and benchmark/serve.go, with
// their placeholders as execute-time parameters.
const benchHospitalJoin = `(SELECT * FROM patient_info AS pi JOIN blood_tests AS bt ON pi.id = bt.id JOIN prenatal_tests AS pt ON bt.id = pt.id) AS d`

type planCase struct {
	name string
	q    string
	set  func(*QueryOptions)
}

func forestRuntime(o *QueryOptions) { o.DisableNNTranslation = true }

var benchPlanCases = []planCase{
	{name: "running example", q: runningExampleQuery},
	{name: "batch fig1_pruned", q: `SELECT d.id, p.score FROM PREDICT(MODEL='los_tree', DATA=` + benchHospitalJoin + `) WITH (score FLOAT) AS p WHERE d.pregnant = 1 AND p.score > 0.5`},
	{name: "batch forest_groupby", set: forestRuntime, q: `SELECT d.gender, COUNT(*) AS n, AVG(p.score) AS a FROM PREDICT(MODEL='los_forest', DATA=` + benchHospitalJoin + `) WITH (score FLOAT) AS p GROUP BY d.gender`},
	{name: "batch lr_nn_scan", q: `SELECT COUNT(*) AS n, AVG(p.prob) AS a FROM PREDICT(MODEL='flight_delay', DATA=flights_features AS d) WITH (prob FLOAT) AS p`},
	{name: "batch join_agg", q: `SELECT pi.gender, COUNT(*) AS n, AVG(bt.glucose) AS g FROM patient_info AS pi JOIN blood_tests AS bt ON pi.id = bt.id WHERE pi.age > 40 GROUP BY pi.gender`},
	{name: "batch topk_sort", set: forestRuntime, q: `SELECT d.id, p.score FROM PREDICT(MODEL='los_forest', DATA=` + benchHospitalJoin + `) WITH (score FLOAT) AS p ORDER BY p.score DESC, d.id LIMIT 100`},
	{name: "serve point", q: `SELECT d.id, p.score FROM PREDICT(MODEL='los_tree', DATA=` + benchHospitalJoin + `) WITH (score FLOAT) AS p WHERE d.id = @id`},
	{name: "serve rowset", q: `SELECT d.id, p.score FROM PREDICT(MODEL='los_tree', DATA=` + benchHospitalJoin + `) WITH (score FLOAT) AS p WHERE d.id >= @lo AND d.id < @hi`},
	{name: "serve scores", q: `SELECT d.id, p.score FROM PREDICT(MODEL='los_tree', DATA=` + benchHospitalJoin + `) WITH (score FLOAT) AS p`},
	{name: "serve adhoc", q: `SELECT COUNT(*) AS n, SUM(r.amount) AS s FROM requests AS r WHERE r.amount < 12.500000`},
}

// benchPlanDB holds the benchmark's tables and models (benchmark/data.go:
// same generators, same training options, smaller tables) and a depth-5
// duration_of_stay tree for the running example.
func benchPlanDB(t *testing.T) *DB {
	t.Helper()
	db := MustOpen()
	h, err := data.GenHospital(db.Catalog(), 2000, 4000, 42)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := data.GenFlightsWide(db.Catalog(), 1000, 64, 20, 4000, 42)
	if err != nil {
		t.Fatal(err)
	}
	for name, pipe := range map[string]*ml.Pipeline{
		"duration_of_stay": {Final: train.FitTree(h.TrainX, h.TrainY, train.TreeOptions{MaxDepth: 5, MinLeaf: 20}), InputColumns: h.FeatureCols},
		"los_tree":         {Final: train.FitTree(h.TrainX, h.TrainY, train.TreeOptions{MaxDepth: 6, MinLeaf: 10}), InputColumns: h.FeatureCols},
		"los_forest": {Final: train.FitForest(h.TrainX, h.TrainY, train.ForestOptions{
			NumTrees: 16, Tree: train.TreeOptions{MaxDepth: 8, MinLeaf: 5}, Seed: 42}), InputColumns: h.FeatureCols},
		"flight_delay": {Final: train.FitLogReg(fl.TrainX, fl.TrainY, train.LogRegOptions{L1: 0.02, Epochs: 60, Seed: 42}), InputColumns: fl.FeatureCols},
	} {
		if err := db.StoreModel(name, pipe); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Exec(`CREATE TABLE requests (id INT PRIMARY KEY, amount FLOAT); INSERT INTO requests VALUES (0, 3.5), (1, 40.25)`); err != nil {
		t.Fatal(err)
	}
	return db
}

var stageHeader = regexp.MustCompile(`^stage \d+( \((DB|ML)\))?: ?`)

// planOps reduces a regenerated-SQL report to the sorted multiset of its
// operator lines. It reads the parent commit's staged rendering (stage
// headers and Input placeholders dropped, an ML stage's header kept as
// that operator's line) and the one-tree rendering alike, so the golden
// file recorded at the parent compares against either.
func planOps(sqlText string) []string {
	var ops []string
	for _, l := range strings.Split(sqlText, "\n") {
		l = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(l), "--"))
		l = stageHeader.ReplaceAllString(l, "")
		if l == "" || l == "Input" || strings.HasPrefix(l, "regenerated by") {
			continue
		}
		ops = append(ops, l)
	}
	sort.Strings(ops)
	return ops
}

// planExceptions are the intended differences from the parent's plans:
// the golden file keeps what the parent produced, and the named case
// expects line old of it to read new.
var planExceptions = map[string]struct{ reason, old, new string }{
	"selection: stacked PREDICT, renaming middle fragment": {
		reason: "the parent chose the inlined projection's pass-through columns by matching names across the renaming projection above it and kept y, which that projection never reads (its y is the score); column pruning follows the rename and drops it",
		old:    "Project(k AS k, x AS x, y AS y, CASE WHEN (x <= 0) THEN 0.2 ELSE CASE WHEN (y <= 1) THEN 0.5 ELSE 0.9 END END AS s)",
		new:    "Project(k AS k, x AS x, CASE WHEN (x <= 0) THEN 0.2 ELSE CASE WHEN (y <= 1) THEN 0.5 ELSE 0.9 END END AS s)",
	},
}

// TestPlansUnchanged: the one-tree optimizer is a structure change, not a
// plan change. testdata/plans.golden was recorded at the last commit of
// the fragment-cutting optimizer (go test -run TestPlansUnchanged
// -update-plans) and every plan the benchmark runs, the running example
// and every selectionCases query must still come out operator for
// operator, with the same AppliedRules.
func TestPlansUnchanged(t *testing.T) {
	var got strings.Builder
	record := func(db *DB, cases []planCase) {
		for _, c := range cases {
			opts := DefaultQueryOptions()
			if c.set != nil {
				c.set(&opts)
			}
			p, err := db.planFor(c.q, opts, true)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			got.WriteString("== " + c.name + "\nrules: " + strings.Join(p.applied, ", ") + "\n")
			got.WriteString(strings.Join(planOps(codegen.GenerateSQL(p.graph)), "\n") + "\n")
		}
	}
	record(benchPlanDB(t), benchPlanCases)
	var sel []planCase
	for _, c := range selectionCases[:15] {
		sel = append(sel, planCase{name: "selection: " + c.name, q: c.q, set: c.set})
	}
	record(selectionDB(t, 3000), sel)

	if *updatePlans {
		if err := os.WriteFile(plansGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(plansGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, sec := range strings.Split(string(raw), "== ")[1:] {
		name, body, _ := strings.Cut(sec, "\n")
		want[name] = body
	}
	for _, sec := range strings.Split(got.String(), "== ")[1:] {
		name, body, _ := strings.Cut(sec, "\n")
		golden, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden plan", name)
			continue
		}
		if ex, ok := planExceptions[name]; ok {
			t.Logf("%s: expected to differ: %s", name, ex.reason)
			lines := strings.Split(strings.TrimSuffix(golden, "\n"), "\n")
			for i, l := range lines {
				if l == ex.old {
					lines[i] = ex.new
				}
			}
			sort.Strings(lines[1:])
			golden = strings.Join(lines, "\n") + "\n"
		}
		if body != golden {
			t.Errorf("%s: plan differs from the parent's\n--- parent\n%s--- now\n%s", name, golden, body)
		}
	}
}
