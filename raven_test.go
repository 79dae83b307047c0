package raven

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"raven/internal/data"
	"raven/internal/ml"
	"raven/internal/train"
	"raven/internal/types"
)

// fig1Tree hand-builds the running example's decision tree (Fig 1) over
// the hospital feature order: pregnant(0), age(1), gender(2), weight(3),
// bp(4), glucose(5), hematocrit(6), fetal_hr(7), amnio(8). The left
// (pregnant=0) branch tests gender and age; the right branch tests bp —
// so predicate pruning on pregnant=1 kills the gender/age subtree, and
// projection pushdown then drops gender and the prenatal_tests features,
// letting join elimination fire, exactly as §2 narrates.
func fig1Tree() *ml.DecisionTree {
	t := &ml.DecisionTree{NFeat: 9}
	add := func(f int, thr float64, v float64) int {
		t.Feature = append(t.Feature, f)
		t.Threshold = append(t.Threshold, thr)
		t.Left = append(t.Left, -1)
		t.Right = append(t.Right, -1)
		t.Value = append(t.Value, v)
		return len(t.Feature) - 1
	}
	root := add(0, 0.5, 0)   // pregnant <= 0.5 ?
	gender := add(2, 0.5, 0) // gender <= 0.5 ?
	ageM := add(1, 35, 0)    //   male: age <= 35 ?
	l1 := add(-1, 0, 0.05)   //     young male
	l2 := add(-1, 0, 0.15)   //     older male
	ageF := add(1, 35, 0)    //   female: age <= 35 ?
	l3 := add(-1, 0, 0.10)   //     young female
	l4 := add(-1, 0, 0.20)   //     older female
	bp1 := add(4, 140, 0)    // pregnant: bp <= 140 ?
	bp2 := add(4, 120, 0)    //   bp <= 120 ?
	l5 := add(-1, 0, 0.30)   //     normal bp
	l6 := add(-1, 0, 0.55)   //     elevated bp
	l7 := add(-1, 0, 0.90)   //   hypertensive
	t.Left[root], t.Right[root] = gender, bp1
	t.Left[gender], t.Right[gender] = ageM, ageF
	t.Left[ageM], t.Right[ageM] = l1, l2
	t.Left[ageF], t.Right[ageF] = l3, l4
	t.Left[bp1], t.Right[bp1] = bp2, l7
	t.Left[bp2], t.Right[bp2] = l5, l6
	return t
}

// hospitalDB builds an engine loaded with the hospital workload and the
// Fig 1 decision-tree pipeline stored as "duration_of_stay".
func hospitalDB(t testing.TB, rows int) (*DB, *data.Hospital) {
	t.Helper()
	db := MustOpen()
	h, err := data.GenHospital(db.Catalog(), rows, 4000, 42)
	if err != nil {
		t.Fatal(err)
	}
	pipe := &ml.Pipeline{Final: fig1Tree(), InputColumns: h.FeatureCols}
	if err := db.StoreModel("duration_of_stay", pipe); err != nil {
		t.Fatal(err)
	}
	return db, h
}

// runningExampleQuery is the paper's Fig 1 inference query adapted to the
// generated schema.
const runningExampleQuery = `
DECLARE @model = 'duration_of_stay';
WITH data AS (
  SELECT * FROM patient_info AS pi
  JOIN blood_tests AS bt ON pi.id = bt.id
  JOIN prenatal_tests AS pt ON bt.id = pt.id
)
SELECT d.id, p.length_of_stay
FROM PREDICT(MODEL = @model, DATA = data AS d)
WITH (length_of_stay FLOAT) AS p
WHERE d.pregnant = 1 AND p.length_of_stay > 0.5;`

func TestExecDDLAndInsert(t *testing.T) {
	db := MustOpen()
	if err := db.Exec(`CREATE TABLE t (id INT PRIMARY KEY, x FLOAT, name VARCHAR(10), ok BIT);
		INSERT INTO t VALUES (1, 2.5, 'a', TRUE), (2, 3.5, 'b', FALSE)`); err != nil {
		t.Fatal(err)
	}
	relational := QueryOptions{CrossOptimize: false}
	out, err := db.QueryWithOptions("SELECT id, x FROM t WHERE ok = TRUE", relational)
	if err != nil {
		t.Fatal(err)
	}
	if out.Batch.Len() != 1 || out.Batch.Col("x").Floats[0] != 2.5 {
		t.Errorf("result = %v", out.Batch)
	}
	if err := db.Exec("DROP TABLE t"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryWithOptions("SELECT * FROM t", relational); err == nil {
		t.Error("dropped table should not resolve")
	}
	if err := db.Exec("SELECT 1"); err == nil {
		t.Error("Exec of SELECT should fail")
	}
}

func TestRunningExampleEndToEnd(t *testing.T) {
	db, _ := hospitalDB(t, 5000)
	res, err := db.Query(runningExampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.Len() == 0 {
		t.Fatal("no rows returned")
	}
	// applied rules must include pruning and either inlining or relational
	joined := strings.Join(res.AppliedRules, ",")
	if !strings.Contains(joined, "predicate-based-model-pruning") {
		t.Errorf("pruning did not fire: %v", res.AppliedRules)
	}
	if !strings.Contains(joined, "model-inlining") {
		t.Errorf("inlining did not fire: %v", res.AppliedRules)
	}
	// every returned row satisfies the predicates
	los := res.Batch.Col("length_of_stay")
	for i := 0; i < res.Batch.Len(); i++ {
		if los.Floats[i] <= 0.5 {
			t.Fatalf("row %d violates predicate: %v", i, los.Floats[i])
		}
	}
}

// resultKey builds an order-independent multiset fingerprint of a result,
// rounding floats to 1e-6 so inlined-CASE and interpreted trees compare
// equal despite fp noise.
func resultKey(b *types.Batch) []string {
	var keys []string
	for i := 0; i < b.Len(); i++ {
		var sb strings.Builder
		for _, v := range b.Vecs {
			switch v.Type {
			case types.Float:
				fmt.Fprintf(&sb, "%.6f", v.Floats[i])
			default:
				fmt.Fprintf(&sb, "%v", v.Value(i))
			}
			sb.WriteByte('|')
		}
		keys = append(keys, sb.String())
	}
	sort.Strings(keys)
	return keys
}

func TestOptimizedMatchesUnoptimized(t *testing.T) {
	db, _ := hospitalDB(t, 8000)
	optimized, err := db.Query(runningExampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := db.QueryWithOptions(runningExampleQuery, QueryOptions{CrossOptimize: false, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := resultKey(optimized.Batch)
	b := resultKey(plain.Batch)
	if len(a) != len(b) {
		t.Fatalf("row counts differ: optimized %d vs plain %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs:\n%s\nvs\n%s", i, a[i], b[i])
		}
	}
}

// nnRule runs each model as the nn-translation rule leaves it, a tensor
// session: inlining, the rule that would take a tree first, is off.
var nnRule = QueryOptions{CrossOptimize: true, DisableInlining: true}

// TestModelPathsAgree: a tree, a forest and a logistic regression score
// the same rows whichever way the plan runs them — on the pipeline kernel
// (cross optimizer off), as the default plan leaves them (inlined CASE or
// tensor session) and as a tensor session by the nn-translation rule — at
// DOP 1 and 2.
func TestModelPathsAgree(t *testing.T) {
	db, h := hospitalDB(t, 3000)
	forest := train.FitForest(h.TrainX, h.TrainY, train.ForestOptions{NumTrees: 8, Seed: 3, Tree: train.TreeOptions{MaxDepth: 5, MinLeaf: 10}})
	lr := train.FitLogReg(h.TrainX, h.TrainY, train.LogRegOptions{Epochs: 10, Seed: 3})
	for name, m := range map[string]ml.Model{"paths_forest": forest, "paths_lr": lr} {
		if err := db.StoreModel(name, &ml.Pipeline{Final: m, InputColumns: h.FeatureCols}); err != nil {
			t.Fatal(err)
		}
	}
	for _, model := range []string{"duration_of_stay", "paths_forest", "paths_lr"} {
		q := `SELECT d.id, p.s ` + predictOver(model, hospitalJoin) + `WHERE d.age > 50`
		var ref []string
		for _, path := range []struct {
			name string
			opts QueryOptions
		}{{"kernel", QueryOptions{}}, {"default", DefaultQueryOptions()}, {"nn rule", nnRule}} {
			for _, dop := range []int{1, 2} {
				label := fmt.Sprintf("%s %s dop=%d", model, path.name, dop)
				opts := path.opts
				opts.Parallelism, opts.ParallelThresholdRows = dop, 1
				res, err := db.QueryWithOptions(q, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if path.opts == nnRule && !slices.Contains(res.AppliedRules, "nn-translation") {
					t.Fatalf("%s: nn-translation did not fire: %v", label, res.AppliedRules)
				}
				key := resultKey(res.Batch)
				if ref == nil {
					if len(key) == 0 {
						t.Fatalf("%s: empty result", label)
					}
					ref = key
					continue
				}
				if !slices.Equal(key, ref) {
					t.Fatalf("%s: %d rows differ from the kernel's %d", label, len(key), len(ref))
				}
			}
		}
	}
}

func TestParallelMatchesSequentialQuery(t *testing.T) {
	db, _ := hospitalDB(t, 60000)
	q := `SELECT d.id, p.score FROM PREDICT(MODEL='duration_of_stay',
		DATA=(SELECT * FROM patient_info AS pi
		      JOIN blood_tests AS bt ON pi.id = bt.id
		      JOIN prenatal_tests AS pt ON bt.id = pt.id) AS d)
		WITH (score FLOAT) AS p`
	seq, err := db.QueryWithOptions(q, QueryOptions{CrossOptimize: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := db.QueryWithOptions(q, QueryOptions{CrossOptimize: true, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, b := resultKey(seq.Batch), resultKey(par.Batch)
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestSessionCacheWarmsAcrossQueries(t *testing.T) {
	db, _ := hospitalDB(t, 2000)
	q := `SELECT p.score FROM PREDICT(MODEL='duration_of_stay',
		DATA=(SELECT * FROM patient_info AS pi
		      JOIN blood_tests AS bt ON pi.id = bt.id
		      JOIN prenatal_tests AS pt ON bt.id = pt.id) AS d)
		WITH (score FLOAT) AS p`
	opts := nnRule
	opts.Parallelism = 1
	if _, err := db.QueryWithOptions(q, opts); err != nil {
		t.Fatal(err)
	}
	misses1 := db.Stats().SessionCache.Misses
	if _, err := db.QueryWithOptions(q, opts); err != nil {
		t.Fatal(err)
	}
	hits, misses2 := db.Stats().SessionCache.Hits, db.Stats().SessionCache.Misses
	if misses2 != misses1 {
		t.Errorf("second run recompiled the session (misses %d -> %d)", misses1, misses2)
	}
	if hits == 0 {
		t.Error("second run did not hit the session cache")
	}
	// A model specialized by table statistics is specialized to the data:
	// its session is its own and must not touch the shared cache.
	opts.UseStatistics = true
	if _, err := db.QueryWithOptions(q, opts); err != nil {
		t.Fatal(err)
	}
	if db.Stats().SessionCache.Entries > 1 {
		t.Error("a statistics-specialized run polluted the session cache")
	}
}

// TestSessionCacheBoundedAndSweptOnStore is the leak the unbounded
// session map had: under cross-optimization every distinct-literal
// PREDICT compiles a session under its own key (model hash # query), and
// a model store must drop the sessions compiled from the version it
// replaces. 1,000 such queries across 20 model versions may leave only
// the last version's sessions, inside the byte budget.
func TestSessionCacheBoundedAndSweptOnStore(t *testing.T) {
	db := MustOpen()
	if err := db.Exec(`CREATE TABLE pts (id INT PRIMARY KEY, age FLOAT); INSERT INTO pts VALUES (1, 30.0), (2, 60.0)`); err != nil {
		t.Fatal(err)
	}
	const versions, perVersion = 20, 50
	for v := 0; v < versions; v++ {
		if err := db.StoreModel("risk", lrPipeline(0.01*float64(v+1))); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perVersion; i++ {
			q := fmt.Sprintf(`SELECT p.s FROM PREDICT(MODEL='risk', DATA=pts AS d) WITH (s FLOAT) AS p WHERE d.age > %d`, v*perVersion+i)
			if _, err := db.Query(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := db.Stats().SessionCache
	if st.Misses != versions*perVersion {
		t.Fatalf("expected one session compile per distinct query, got %+v", st)
	}
	if st.Entries > perVersion || st.Invalidations < (versions-1)*perVersion {
		t.Errorf("sessions of superseded model versions survive StoreModel: %+v", st)
	}
	if st.Bytes <= 0 || st.Bytes > st.MaxBytes {
		t.Errorf("session cache outside its byte budget: %+v", st)
	}
}

func TestModelUpdateInvalidatesResults(t *testing.T) {
	db, h := hospitalDB(t, 1000)
	q := `SELECT p.score FROM PREDICT(MODEL='duration_of_stay',
		DATA=patient_info AS d) WITH (score FLOAT) AS p`
	// This model only reads patient_info columns.
	tree := train.FitTree(h.TrainX, h.TrainY, train.TreeOptions{MaxDepth: 3, MinLeaf: 50})
	sub, err := tree.RemapFeatures(map[int]int{0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6, 7: 7, 8: 8}, 9)
	if err != nil {
		t.Fatal(err)
	}
	_ = sub
	pipeA := &ml.Pipeline{
		Final:        &ml.LogisticRegression{W: []float64{0, 0.01, 0, 0}, B: 0},
		InputColumns: []string{"pregnant", "age", "gender", "weight"},
	}
	if err := db.StoreModel("duration_of_stay", pipeA); err != nil {
		t.Fatal(err)
	}
	r1, err := db.QueryWithOptions(q, nnRule)
	if err != nil {
		t.Fatal(err)
	}
	pipeB := &ml.Pipeline{
		Final:        &ml.LogisticRegression{W: []float64{0, -0.01, 0, 0}, B: 0},
		InputColumns: []string{"pregnant", "age", "gender", "weight"},
	}
	if err := db.StoreModel("duration_of_stay", pipeB); err != nil {
		t.Fatal(err)
	}
	r2, err := db.QueryWithOptions(q, nnRule)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Batch.Col("score").Floats[0] == r2.Batch.Col("score").Floats[0] {
		t.Error("model update did not change predictions (stale session?)")
	}
}

func TestExplainShowsStages(t *testing.T) {
	db, _ := hospitalDB(t, 1000)
	out, err := db.Explain(runningExampleQuery, DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"logical plan", "unified IR", "optimized IR", "regenerated SQL", "MLD"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
}

// TestExplainIsWhatRuns holds Explain to the plan the engine executes:
// under every option that changes which rules fire, the rule list it
// prints is the AppliedRules of a query run with the same options.
func TestExplainIsWhatRuns(t *testing.T) {
	db, _ := hospitalDB(t, 1000)
	cases := []struct {
		name string
		set  func(*QueryOptions)
	}{
		{"default", func(*QueryOptions) {}},
		{"CrossOptimize=false", func(o *QueryOptions) { o.CrossOptimize = false }},
		{"DisableInlining", func(o *QueryOptions) { o.DisableInlining = true }},
		{"DisableNNTranslation", func(o *QueryOptions) { o.DisableNNTranslation = true }},
		{"DisablePruning", func(o *QueryOptions) { o.DisablePruning = true }},
		{"DisableProjectionPushdown", func(o *QueryOptions) { o.DisableProjectionPushdown = true }},
		{"UseStatistics", func(o *QueryOptions) { o.UseStatistics = true }},
	}
	pointQuery := `SELECT d.id, p.s ` + predictOver("duration_of_stay", hospitalJoin) + `WHERE d.id = 123`
	for _, q := range []string{runningExampleQuery, pointQuery} {
		for _, c := range cases {
			opts := DefaultQueryOptions()
			c.set(&opts)
			res, err := db.QueryWithOptions(q, opts)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			out, err := db.Explain(q, opts)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			want := "== optimized IR (rules: " + strings.Join(res.AppliedRules, ", ") + ") =="
			if !strings.Contains(out, want) {
				t.Errorf("%s: Explain does not show the rules the query ran with, want %q in:\n%s", c.name, want, out)
			}
			// The selection crosses PREDICT under every cross-optimizer
			// rule set and never on the relational-only reference path.
			if moved := strings.Contains(want, selectionRule); moved != opts.CrossOptimize {
				t.Errorf("%s: rules %v, want %s reported: %v", c.name, res.AppliedRules, selectionRule, opts.CrossOptimize)
			}
		}
	}
}

func TestProjectionPushdownNarrowsFlights(t *testing.T) {
	db := MustOpen()
	fl, err := data.GenFlightsWide(db.Catalog(), 5000, 60, 8, 4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	lr := train.FitLogReg(fl.TrainX, fl.TrainY, train.LogRegOptions{L1: 0.05, Seed: 1, Epochs: 60})
	if lr.Sparsity() < 0.3 {
		t.Fatalf("sparsity too low for the test: %v", lr.Sparsity())
	}
	pipe := &ml.Pipeline{Final: lr, InputColumns: fl.FeatureCols}
	if err := db.StoreModel("delay", pipe); err != nil {
		t.Fatal(err)
	}
	q := `SELECT p.prob FROM PREDICT(MODEL='delay', DATA=flights_features AS d) WITH (prob FLOAT) AS p`
	opt, err := db.QueryWithOptions(q, QueryOptions{CrossOptimize: true, DisableNNTranslation: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(opt.AppliedRules, ","), "model-projection-pushdown") {
		t.Errorf("projection pushdown did not fire: %v", opt.AppliedRules)
	}
	plain, err := db.QueryWithOptions(q, QueryOptions{CrossOptimize: false})
	if err != nil {
		t.Fatal(err)
	}
	a, b := resultKey(opt.Batch), resultKey(plain.Batch)
	if len(a) != len(b) {
		t.Fatalf("row counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs after projection pushdown", i)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	db := MustOpen()
	if _, err := db.Query("CREATE TABLE x (a INT)"); err == nil {
		t.Error("Query without SELECT should fail")
	}
	if _, err := db.Query("SELECT p.s FROM PREDICT(MODEL='missing', DATA=t AS d) WITH (s FLOAT) AS p"); err == nil {
		t.Error("missing model/table should fail")
	}
	if err := db.Exec("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT p.s FROM PREDICT(MODEL='missing', DATA=t AS d) WITH (s FLOAT) AS p"); err == nil {
		t.Error("missing model should fail")
	}
	if err := db.Exec("INSERT INTO t VALUES ('str')"); err == nil {
		t.Error("type-mismatched insert should fail")
	}
	if err := db.Exec("INSERT INTO t VALUES (1, 2)"); err == nil {
		t.Error("arity-mismatched insert should fail")
	}
}
