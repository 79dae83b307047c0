package raven

import (
	"context"
	"encoding/gob"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"raven/internal/exec"
	"raven/internal/ir"
	"raven/internal/ml"
	"raven/internal/plan"
	"raven/internal/sql"
	"raven/internal/storage"
	"raven/internal/train"
	"raven/internal/types"
	"raven/internal/xopt"
)

const (
	hospitalJoin  = `(SELECT * FROM patient_info AS pi JOIN blood_tests AS bt ON pi.id = bt.id JOIN prenatal_tests AS pt ON bt.id = pt.id) AS d`
	abJoin        = `(SELECT * FROM a JOIN b ON a.k = b.fk) AS d`
	selectionRule = "selection-pushdown"
)

// hospitalJoinWhere is hospitalJoin with the selection written inside it.
func hospitalJoinWhere(pred string) string {
	return strings.Replace(hospitalJoin, ") AS d", " WHERE "+pred+") AS d", 1)
}

func predictOver(model, data string) string {
	return `FROM PREDICT(MODEL='` + model + `', DATA=` + data + `) WITH (s FLOAT) AS p `
}

// selectionDB is hospitalDB (the Fig 1 tree, inlinable) plus a forest and
// a logistic regression over the same join, and a two-table fixture built
// to be awkward for a pushed-down selection: a(k, x, g, n) ⋈ b(fk, y, z)
// on k = fk is neither 1:1 nor total (some k match twice, some never, some
// fk match nothing), the key columns have different names, and a.n holds
// NULLs.
func selectionDB(t testing.TB, rows int) *DB {
	t.Helper()
	db, h := hospitalDB(t, rows)
	store := func(name string, m ml.Model, cols []string) {
		t.Helper()
		if err := db.StoreModel(name, &ml.Pipeline{Final: m, InputColumns: cols}); err != nil {
			t.Fatal(err)
		}
	}
	store("los_forest", train.FitForest(h.TrainX, h.TrainY, train.ForestOptions{NumTrees: 4, Tree: train.TreeOptions{MaxDepth: 4}, Seed: 5}), h.FeatureCols)
	store("los_lr", train.FitLogReg(h.TrainX, h.TrainY, train.LogRegOptions{Epochs: 20, Seed: 3}), h.FeatureCols)

	a := types.NewBatch(types.NewSchema(
		types.Column{Name: "k", Type: types.Int}, types.Column{Name: "x", Type: types.Float},
		types.Column{Name: "g", Type: types.Int}, types.Column{Name: "n", Type: types.Float}))
	for i := 0; i < 120; i++ {
		if err := a.AppendRow(int64(i), float64(i%17-8), int64(i%4), float64(i%5-2)); err != nil {
			t.Fatal(err)
		}
		if i%7 == 3 {
			a.Vecs[3].SetNull(i)
		}
	}
	b := types.NewBatch(types.NewSchema(
		types.Column{Name: "fk", Type: types.Int}, types.Column{Name: "y", Type: types.Float},
		types.Column{Name: "z", Type: types.Float}))
	for i := 0; i < 180; i++ {
		if err := b.AppendRow(int64(i*7%150), float64(i%13-6), float64(i%10)/10); err != nil {
			t.Fatal(err)
		}
	}
	for name, rows := range map[string]*types.Batch{"a": a, "b": b} {
		tb := storage.NewTable(name, rows.Schema)
		if err := tb.AppendBatch(rows); err != nil {
			t.Fatal(err)
		}
		if err := db.Catalog().AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	// x <= 0 → 0.2; else y <= 1 → 0.5, else 0.9.
	store("ab_tree", &ml.DecisionTree{
		NFeat: 2, Feature: []int{0, -1, 1, -1, -1}, Threshold: []float64{0, 0, 1, 0, 0},
		Left: []int{1, -1, 3, -1, -1}, Right: []int{2, -1, 4, -1, -1}, Value: []float64{0, 0.2, 0, 0.5, 0.9},
	}, []string{"x", "y"})
	store("ab_lr", &ml.LogisticRegression{W: []float64{0.05, 1.5}, B: -0.2}, []string{"x", "y"})
	// z <= 2 → 0.1, else 0.7: b.z never exceeds 0.9, so statistics about
	// b.z read as a fact about another column called z prune the 0.7 leaf.
	store("zy_tree", &ml.DecisionTree{
		NFeat: 2, Feature: []int{0, -1, -1}, Threshold: []float64{2, 0, 0},
		Left: []int{1, -1, -1}, Right: []int{2, -1, -1}, Value: []float64{0, 0.1, 0.7},
	}, []string{"z", "y"})
	// ab_tree and ab_lr again, each behind its own scaler (thresholds and
	// weights are in scaled space).
	for name, pipe := range map[string]*ml.Pipeline{
		"ab_tree_sc": {Steps: []ml.Transformer{&ml.StandardScaler{Mean: []float64{1, -0.5}, Scale: []float64{2, 3}}},
			Final: &ml.DecisionTree{
				NFeat: 2, Feature: []int{0, -1, 1, -1, -1}, Threshold: []float64{0.25, 0, 0.4, 0, 0},
				Left: []int{1, -1, 3, -1, -1}, Right: []int{2, -1, 4, -1, -1}, Value: []float64{0, 0.2, 0, 0.5, 0.9},
			}, InputColumns: []string{"x", "y"}},
		"ab_lr_sc": {Steps: []ml.Transformer{&ml.StandardScaler{Mean: []float64{-2, 0.5}, Scale: []float64{4, 0.25}}},
			Final: &ml.LogisticRegression{W: []float64{0.3, 1.1}, B: -0.4}, InputColumns: []string{"x", "y"}},
	} {
		if err := db.StoreModel(name, pipe); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// selectionCase is one query of the exact-aggregation matrix. The
// reference is the same SQL with CrossOptimize off — the plan that filters
// after scoring — unless twin is set: then it is twin, under the same
// options, which spells the selection inside the DATA subquery by hand.
// ref adjusts the reference's options further.
type selectionCase struct {
	name   string
	q      string
	params []Param
	set    func(*QueryOptions)
	ref    func(*QueryOptions)
	twin   string
	moves  bool // the rule must (not) report itself
}

// stackedScalers is a stacked PREDICT whose two pipelines each carry a
// scaler; the fragment between them renames the inner score onto y.
const stackedScalers = `SELECT d2.k, d2.x, p2.s2 FROM PREDICT(MODEL='ab_lr_sc', DATA=(SELECT d.k AS k, d.x AS x, p.s AS y ` +
	`FROM PREDICT(MODEL='ab_tree_sc', DATA=` + abJoin + `) WITH (s FLOAT) AS p WHERE d.z > 0.2) AS d2) WITH (s2 FLOAT) AS p2 WHERE d2.k > 10`

// uncachedTensorSessions makes a reference score every model as a tensor
// graph translated from the stored pipeline, each on a session of its own.
func uncachedTensorSessions(o *QueryOptions) { o.Mode, o.DisableSessionCache = ModeInProcessNN, true }

// joinAbovePredict joins the scored rows to a table: the PREDICT sits
// under a JOIN, and both conjuncts belong below it.
const joinAbovePredict = `SELECT d.id, x.glucose, p.s ` + `FROM PREDICT(MODEL='duration_of_stay', DATA=` + hospitalJoin +
	`) WITH (s FLOAT) AS p JOIN blood_tests AS x ON d.id = x.id WHERE x.glucose > 100 AND d.age > `

var selectionCases = []selectionCase{
	{name: "point literal", moves: true,
		q: `SELECT d.id, p.s ` + predictOver("duration_of_stay", hospitalJoin) + `WHERE d.id = 123`},
	{name: "point @param", moves: true, params: []Param{P("id", "123")},
		q: `SELECT d.id, p.s ` + predictOver("duration_of_stay", hospitalJoin) + `WHERE d.id = @id`},
	{name: "range @params", moves: true, params: []Param{P("lo", "100"), P("hi", "350")},
		q: `SELECT d.id, p.s ` + predictOver("duration_of_stay", hospitalJoin) + `WHERE d.id >= @lo AND d.id < @hi`},
	{name: "data AND prediction conjunct", moves: true,
		q: `SELECT d.id, p.s ` + predictOver("duration_of_stay", hospitalJoin) + `WHERE d.pregnant = 1 AND p.s > 0.5`},
	{name: "OR spanning both sides stays", moves: false,
		q: `SELECT d.id, p.s ` + predictOver("duration_of_stay", hospitalJoin) + `WHERE d.pregnant = 1 OR p.s > 0.5`},
	{name: "conjunct with no column", moves: true, params: []Param{P("on", "1")},
		q: `SELECT d.id, p.s ` + predictOver("duration_of_stay", hospitalJoin) + `WHERE @on = 1 AND p.s > 0.1`},
	{name: "GROUP BY sink", moves: true,
		q: `SELECT d.gender, COUNT(*) AS c, AVG(p.s) AS avg_s ` + predictOver("duration_of_stay", hospitalJoin) + `WHERE d.age > 40 GROUP BY d.gender`},
	{name: "ORDER BY LIMIT sink", moves: true,
		q: `SELECT d.id, p.s ` + predictOver("duration_of_stay", hospitalJoin) + `WHERE d.bp > 120 ORDER BY p.s DESC, d.id LIMIT 20`},
	{name: "filter over a LIMIT stays", moves: false,
		q: `SELECT t.id, t.s FROM (SELECT d.id AS id, p.s AS s ` + predictOver("duration_of_stay", hospitalJoin) + `LIMIT 50) AS t WHERE t.id > 20`},
	// Splitting emits one branch's rows, then the other's, so its twin is
	// the split plan over the hand-filtered join.
	{name: "model/query splitting", moves: true, set: func(o *QueryOptions) { o.ModelQuerySplitting = true },
		q:    `SELECT d.id, p.s ` + predictOver("duration_of_stay", hospitalJoin) + `WHERE d.age > 50`,
		twin: `SELECT d.id, p.s ` + predictOver("duration_of_stay", hospitalJoinWhere("pi.age > 50"))},
	{name: "forest in the ML runtime", moves: true, set: func(o *QueryOptions) { o.DisableNNTranslation = true },
		q: `SELECT d.id, p.s ` + predictOver("los_forest", hospitalJoin) + `WHERE d.pregnant = 1 AND d.bp > 110`},
	{name: "LR via NN translation", moves: true,
		q:    `SELECT d.id, p.s ` + predictOver("los_lr", hospitalJoin) + `WHERE d.age > 60`,
		twin: `SELECT d.id, p.s ` + predictOver("los_lr", hospitalJoinWhere("pi.age > 60"))},
	{name: "non-key column of the right join input", moves: true,
		q: `SELECT d.k, d.y, p.s ` + predictOver("ab_tree", abJoin) + `WHERE d.z > 0.4`},
	{name: "NULLs in the filtered column", moves: true,
		q: `SELECT d.k, d.n, p.s ` + predictOver("ab_tree", abJoin) + `WHERE d.n > 0`},
	{name: "CASE over the join key", moves: true,
		q: `SELECT d.k, d.y, p.s ` + predictOver("ab_tree", abJoin) + `WHERE CASE WHEN d.k > 60 THEN 1 ELSE 0 END = 1`},
	// Stacked PREDICT: the fragment between the two models swaps the names
	// k and x. The outer d2.k is the inner x, so the outer conjunct may
	// land on top of that fragment but must not cross it; the fragment's
	// own d.z conjunct crosses the inner model as usual.
	{name: "stacked PREDICT, renaming middle fragment", moves: true, set: func(o *QueryOptions) { o.DisableNNTranslation = true },
		q: `SELECT d2.k, d2.x, p2.s2 FROM PREDICT(MODEL='ab_lr', DATA=(SELECT d.x AS k, d.k AS x, p.s AS y ` +
			predictOver("ab_tree", abJoin) + `WHERE d.z > 0.2) AS d2) WITH (s2 FLOAT) AS p2 WHERE d2.k > 0`},

	// The rows below failed on the fragment-cutting optimizer, each with
	// wrong values or an error, not a missed optimization.
	//
	// A filter above a projection that renames bp onto age says nothing
	// about the model's age input. It is not pushed through the projection
	// either.
	{name: "sink filter on a renamed column", moves: false,
		q: `SELECT t.id, t.s FROM (SELECT d.id, d.bp AS age, p.s ` + predictOver("duration_of_stay", hospitalJoin) + `) AS t WHERE t.age > 150`},
	{name: "source filter under a renaming projection", moves: false,
		q: `SELECT d.k, d.x, p.s ` + predictOver("ab_tree", `(SELECT a.k, a.g AS x, b.y FROM a JOIN b ON a.k = b.fk WHERE a.x > 0) AS d`)},
	{name: "statistics under a renaming projection", moves: false, set: func(o *QueryOptions) { o.UseStatistics = true },
		q: `SELECT d.k, d.z, p.s ` + predictOver("zy_tree", `(SELECT a.k, a.x AS z, b.y FROM a JOIN b ON a.k = b.fk) AS d`)},
	// Each model's rules see that model's featurizers only. Where the
	// outer regression runs as a tensor graph, so does the reference.
	{name: "stacked PREDICT, a scaler in both pipelines", moves: true, q: stackedScalers, ref: uncachedTensorSessions},
	{name: "stacked scalers, no inlining", moves: true, q: stackedScalers, ref: uncachedTensorSessions,
		set: func(o *QueryOptions) { o.DisableInlining = true }},
	{name: "stacked scalers, no NN translation", moves: true, q: stackedScalers, set: func(o *QueryOptions) { o.DisableNNTranslation = true }},
	// Two tensor sessions in one plan, cached: each model operator has its
	// own key.
	{name: "stacked PREDICT on cached tensor sessions", moves: true, q: stackedScalers, ref: uncachedTensorSessions,
		set: func(o *QueryOptions) { o.Mode, o.DisableInlining = ModeInProcessNN, true }},
	{name: "JOIN above PREDICT", moves: true, q: joinAbovePredict + `60`,
		twin: `SELECT d.id, d.glucose, p.s ` + predictOver("duration_of_stay", hospitalJoinWhere("bt.glucose > 100 AND pi.age > 60"))},
	{name: "three-deep stack", moves: true, set: func(o *QueryOptions) { o.DisableNNTranslation = true },
		q: `SELECT d3.k, d3.x, p3.s3 FROM PREDICT(MODEL='ab_tree', DATA=(SELECT d2.k AS k, d2.y AS x, p2.s2 AS y ` +
			`FROM PREDICT(MODEL='ab_lr', DATA=(SELECT d.k AS k, d.x AS x, p.s AS y ` + predictOver("ab_tree", abJoin) +
			`WHERE d.z > 0.2) AS d2) WITH (s2 FLOAT) AS p2 WHERE d2.x > -5) AS d3) WITH (s3 FLOAT) AS p3 WHERE d3.k > 10`},
}

func collectParams(t *testing.T, db *DB, q string, opts QueryOptions, params []Param) *Result {
	t.Helper()
	rows, err := db.QueryContextParams(context.Background(), q, opts, params...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSelectionPushdownExact is the rule's invariant, the exact-aggregation
// guarantee: the plan with the selection below PREDICT returns exactly the
// rows, order and schema of the plan that filters after scoring, at every
// degree of parallelism.
func TestSelectionPushdownExact(t *testing.T) {
	db := selectionDB(t, 3000)
	for _, tc := range selectionCases {
		t.Run(tc.name, func(t *testing.T) {
			cross := DefaultQueryOptions()
			if tc.set != nil {
				tc.set(&cross)
			}
			refQ, refOpts := tc.q, cross
			if tc.twin != "" {
				refQ = tc.twin
			} else {
				refOpts.CrossOptimize = false
			}
			refOpts.Parallelism = 1
			if tc.ref != nil {
				tc.ref(&refOpts)
			}
			want := collectParams(t, db, refQ, refOpts, tc.params)
			if want.Batch.Len() == 0 {
				t.Fatal("reference result empty (query shape broken)")
			}
			if applied := strings.Join(want.AppliedRules, ","); tc.twin == "" && strings.Contains(applied, selectionRule) {
				t.Fatalf("reference plan is not the unpushed one: %v", want.AppliedRules)
			}
			for _, dop := range []int{1, 2, 8} {
				cross.Parallelism, cross.ParallelThresholdRows = dop, 1
				got := collectParams(t, db, tc.q, cross, tc.params)
				if moved := strings.Contains(strings.Join(got.AppliedRules, ","), selectionRule); moved != tc.moves {
					t.Errorf("dop %d: rules %v, want %s reported: %v", dop, got.AppliedRules, selectionRule, tc.moves)
				}
				batchesIdentical(t, fmt.Sprintf("dop %d", dop), want.Batch, got.Batch)
			}
		})
	}
}

// TestSelectionStaysAboveUDF: a UDF is opaque, so a conjunct on a column
// it may have rewritten must not cross it. This one negates x; a filter on
// x pushed below it would keep the complementary rows. The model above the
// UDF is row-wise: the conjunct crosses that, and stops.
func TestSelectionStaysAboveUDF(t *testing.T) {
	db := selectionDB(t, 200)
	q := `SELECT d.k, d.x, p.s ` + predictOver("ab_tree", abJoin) + `WHERE d.x > 0`
	run := func(opts QueryOptions) (*types.Batch, *ir.Graph) {
		t.Helper()
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		logical, err := plan.NewBinder(db.Catalog()).BindSelect(st.(*sql.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		g, err := ir.FromPlan(logical, db.LoadModel)
		if err != nil {
			t.Fatal(err)
		}
		model := g.Find(func(n ir.Node) bool { _, ok := n.(*ir.ModelNode); return ok }).(*ir.ModelNode)
		src := model.Child
		model.Child = &ir.UDFNode{Name: "negate_x", Out: src.Schema(), Child: src, Fn: func(b *types.Batch) (*types.Batch, error) {
			neg := types.NewVector(types.Float, b.Len())
			for i := range neg.Floats {
				neg.Floats[i] = -b.Col("x").AsFloat(i)
			}
			out := &types.Batch{Schema: b.Schema, Vecs: append([]*types.Vector(nil), b.Vecs...)}
			out.Vecs[b.Schema.IndexOf("x")] = neg
			return out, nil
		}}
		res, err := xopt.Optimize(g, db.optimizerOptions(opts))
		if err != nil {
			t.Fatal(err)
		}
		op, err := db.lower(context.Background(), res.Graph, opts)
		if err != nil {
			t.Fatal(err)
		}
		out, err := exec.Collect(op)
		if err != nil {
			t.Fatal(err)
		}
		return out, res.Graph
	}
	want, _ := run(QueryOptions{CrossOptimize: false, Parallelism: 1})
	if want.Len() == 0 {
		t.Fatal("reference result empty")
	}
	for _, dop := range []int{1, 2, 8} {
		got, g := run(QueryOptions{CrossOptimize: true, DisableNNTranslation: true, Parallelism: dop, ParallelThresholdRows: 1})
		udf := g.Find(func(n ir.Node) bool { _, ok := n.(*ir.UDFNode); return ok })
		if ex := g.Explain(); udf == nil || !strings.Contains(ex, "Filter((x > 0))") || strings.Contains(plan.Explain(udf), "Filter(") {
			t.Errorf("dop %d: want the selection directly above the UDF:\n%s", dop, ex)
		}
		batchesIdentical(t, fmt.Sprintf("dop %d", dop), want, got)
	}
}

// TestSelectionPushdownPreparedConcurrent: the hoisted @id lives below the
// model operators of the shared template. 8 goroutines re-execute one
// statement with 100 different ids; clone-on-bind must keep the template
// untouched — and must clone the ML operators above a bound filter, not
// only the relational ones — so every execution sees its own id and nobody
// else's. With inlining off the model operators stay in the template.
func TestSelectionPushdownPreparedConcurrent(t *testing.T) {
	db := selectionDB(t, 1000)
	keepModels := DefaultQueryOptions()
	keepModels.DisableInlining, keepModels.DisableNNTranslation = true, true
	stackedOver := func(where string) string {
		return `SELECT d2.k, p2.s2 FROM PREDICT(MODEL='ab_lr', DATA=(SELECT d.k AS k, d.x AS x, p.s AS y ` +
			predictOver("ab_tree", abJoin) + where + `) AS d2) WITH (s2 FLOAT) AS p2`
	}
	for _, tc := range []struct {
		name   string
		all, q string // the unfiltered query (key, score), and q = all restricted to key = @id
		opts   QueryOptions
		keys   int
	}{
		{"point", `SELECT d.id, p.s ` + predictOver("duration_of_stay", hospitalJoin),
			`SELECT d.id, p.s ` + predictOver("duration_of_stay", hospitalJoin) + `WHERE d.id = @id`, DefaultQueryOptions(), 1000},
		{"JOIN above PREDICT", `SELECT d.id, p.s ` + predictOver("duration_of_stay", hospitalJoin),
			`SELECT d.id, p.s ` + predictOver("duration_of_stay", hospitalJoin) + `JOIN blood_tests AS x ON d.id = x.id WHERE d.id = @id`, keepModels, 1000},
		{"stacked PREDICT", stackedOver(``), stackedOver(`WHERE d.k = @id`), keepModels, 120},
	} {
		t.Run(tc.name, func(t *testing.T) {
			all, err := db.QueryWithOptions(tc.all, QueryOptions{CrossOptimize: false, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			scores := make(map[int64][]float64, all.Batch.Len())
			for i := 0; i < all.Batch.Len(); i++ {
				key := all.Batch.Vecs[0].Ints[i]
				scores[key] = append(scores[key], all.Batch.Vecs[1].Floats[i])
			}
			st, err := db.PrepareWithOptions(tc.q, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 100; i++ {
						id := int64((i*37 + w*11) % tc.keys)
						rows, err := st.Query(P("id", strconv.FormatInt(id, 10)))
						if err != nil {
							t.Error(err)
							return
						}
						res, err := rows.Collect()
						if err != nil {
							t.Error(err)
							return
						}
						got := append([]float64(nil), res.Batch.Vecs[1].Floats[:res.Batch.Len()]...)
						for _, k := range res.Batch.Vecs[0].Ints[:res.Batch.Len()] {
							if k != id {
								got = nil
							}
						}
						if fmt.Sprint(got) != fmt.Sprint(scores[id]) {
							t.Errorf("@id=%d returned %v, want scores %v", id, res.Batch, scores[id])
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// TestPredictUnderJoin: a JOIN written above a PREDICT is one tree with it.
// The conjunct on the scored rows' side sinks through the join, crosses
// the model and reaches the scan it reads, and Explain shows it there.
func TestPredictUnderJoin(t *testing.T) {
	db := selectionDB(t, 500)
	opts := DefaultQueryOptions()
	opts.DisableInlining, opts.DisableNNTranslation = true, true
	out, err := db.Explain(joinAbovePredict+`60`, opts)
	if err != nil {
		t.Fatal(err)
	}
	ir := out[strings.Index(out, "== optimized IR"):strings.Index(out, "== regenerated SQL")]
	if !regexp.MustCompile(`(?s)MLD:model:tree -> s\n.*RA:Filter\(\(age > 60\)\)\n *\[RA/db\] RA:Scan\(patient_info`).MatchString(ir) {
		t.Errorf("want age > 60 on the patient_info scan below the model:\n%s", ir)
	}
}

// countingModel scores every row 0.5 and counts the rows it was asked to
// score. Stored models round-trip through gob, so the count is global.
type countingModel struct{ Width int }

var rowsScored atomic.Int64

func init() { gob.Register(&countingModel{}) }

func (m *countingModel) Predict(in ml.Matrix) ([]float64, error) {
	rowsScored.Add(int64(in.Rows))
	out := make([]float64, in.Rows)
	for i := range out {
		out[i] = 0.5
	}
	return out, nil
}
func (m *countingModel) NumFeatures() int { return m.Width }
func (m *countingModel) UsedFeatures() []int {
	out := make([]int, m.Width)
	for i := range out {
		out[i] = i
	}
	return out
}
func (m *countingModel) Kind() string { return "counting" }

// TestOnlySurvivingRowsAreScored: a point query over an N-row three-way
// join scores one row, a [lo, hi) range hi − lo, and the regenerated SQL
// shows the filter sitting directly on each of the three scans.
func TestOnlySurvivingRowsAreScored(t *testing.T) {
	db, h := hospitalDB(t, 2000)
	if err := db.StoreModel("counting", &ml.Pipeline{Final: &countingModel{Width: len(h.FeatureCols)}, InputColumns: h.FeatureCols}); err != nil {
		t.Fatal(err)
	}
	opts := DefaultQueryOptions()
	opts.DisableNNTranslation = true // the counting model has no tensor form
	for _, tc := range []struct {
		where  string
		params []Param
		want   int64
	}{
		{"d.id = @id", []Param{P("id", "1234")}, 1},
		{"d.id >= @lo AND d.id < @hi", []Param{P("lo", "500"), P("hi", "777")}, 277},
	} {
		rowsScored.Store(0)
		res := collectParams(t, db, `SELECT d.id, p.s `+predictOver("counting", hospitalJoin)+`WHERE `+tc.where, opts, tc.params)
		if int64(res.Batch.Len()) != tc.want || rowsScored.Load() != tc.want {
			t.Errorf("WHERE %s: %d rows returned, %d rows scored, want %d of each", tc.where, res.Batch.Len(), rowsScored.Load(), tc.want)
		}
	}
	out, err := db.Explain(`SELECT d.id, p.s `+predictOver("counting", hospitalJoin)+`WHERE d.id = 1234`, opts)
	if err != nil {
		t.Fatal(err)
	}
	sqlText := out[strings.Index(out, "== regenerated SQL =="):]
	lines := strings.Split(sqlText, "\n")
	for _, table := range []string{"patient_info", "blood_tests", "prenatal_tests"} {
		for i, l := range lines {
			if strings.Contains(l, "Scan("+table) && (i == 0 || !strings.Contains(lines[i-1], "Filter((id = 1234))")) {
				t.Errorf("no filter directly over Scan(%s):\n%s", table, sqlText)
			}
		}
	}
	if strings.Count(sqlText, "Filter(") != 3 {
		t.Errorf("want exactly the three scan filters:\n%s", sqlText)
	}
}

// TestTransitiveFilterRenamesInsideCase: a single-column conjunct on a
// join key is copied to the other side of the join under that side's key
// name. The rename used to skip CASE: the copy then read a column the
// other side does not have (variant 1: an error) or an unrelated column
// that happens to share the name (variant 2: silently wrong rows).
func TestTransitiveFilterRenamesInsideCase(t *testing.T) {
	for _, bCols := range []string{"fk INT, y FLOAT", "fk INT, y FLOAT, k INT"} {
		db := MustOpen()
		ins := `INSERT INTO b VALUES (1, 10.0), (2, 20.0), (3, 30.0), (4, 40.0)`
		if strings.Contains(bCols, ", k INT") {
			ins = `INSERT INTO b VALUES (1, 10.0, 9), (2, 20.0, 0), (3, 30.0, 9), (4, 40.0, 9)`
		}
		if err := db.Exec(`CREATE TABLE a (k INT, x FLOAT); CREATE TABLE b (` + bCols + `);
			INSERT INTO a VALUES (1, 0.1), (2, 0.2), (3, 0.3), (4, 0.4); ` + ins); err != nil {
			t.Fatal(err)
		}
		for _, cross := range []bool{true, false} {
			res, err := db.QueryWithOptions(`SELECT a.k, b.y FROM a JOIN b ON a.k = b.fk WHERE CASE WHEN a.k > 1 THEN 1 ELSE 0 END = 1`,
				QueryOptions{CrossOptimize: cross})
			if err != nil {
				t.Fatalf("b(%s) cross=%v: %v", bCols, cross, err)
			}
			if got := fmt.Sprint(res.Batch.Col("k").Ints); got != "[2 3 4]" {
				t.Errorf("b(%s) cross=%v: k = %s, want [2 3 4]", bCols, cross, got)
			}
		}
	}
}
