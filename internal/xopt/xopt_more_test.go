package xopt

import (
	"math"
	"strings"
	"testing"

	"raven/internal/expr"
	"raven/internal/ir"
	"raven/internal/ml"
	"raven/internal/plan"
	"raven/internal/relopt"
	"raven/internal/storage"
	"raven/internal/types"
)

func TestForestPruningAndProjection(t *testing.T) {
	forest := &ml.RandomForest{Trees: []*ml.DecisionTree{fig1Tree(), fig1Tree()}}
	g, cat := hospitalGraph(t, forest, pregnantEq1())
	if !run(t, g, cat, pruningRule, pruning) {
		t.Fatal("pruning did not fire")
	}
	model := modelOf(t, g)
	pf := model.M.(*ml.RandomForest)
	if pf.Trees[0].NumNodes() >= fig1Tree().NumNodes() {
		t.Error("forest trees not pruned")
	}
	if !run(t, g, cat, "model-projection-pushdown", projection) {
		t.Fatal("projection pushdown did not fire")
	}
	// after pruning on pregnant=1, only bp remains used
	if len(model.InputCols) >= len(hospCols) {
		t.Errorf("forest inputs not narrowed: %v", model.InputCols)
	}
}

func TestForestPruningNoChangeWithoutSplits(t *testing.T) {
	// forest over features the predicate doesn't touch
	tr := &ml.DecisionTree{NFeat: 5}
	tr.Feature = []int{4, -1, -1}
	tr.Threshold = []float64{100, 0, 0}
	tr.Left = []int{1, -1, -1}
	tr.Right = []int{2, -1, -1}
	tr.Value = []float64{0, 1, 2}
	forest := &ml.RandomForest{Trees: []*ml.DecisionTree{tr}}
	g, cat := hospitalGraph(t, forest, pregnantEq1())
	if run(t, g, cat, pruningRule, pruning) {
		t.Error("pruning fired without prunable splits")
	}
}

func TestMapFactsThroughScalerAndSelect(t *testing.T) {
	sc := &ml.StandardScaler{Mean: []float64{10, 0}, Scale: []float64{2, 1}}
	sel := &ml.ColumnSelect{Indices: []int{0}}
	facts := columnFacts{"x": {Lo: 10, Hi: 14}}
	ff, ok := mapFactsThroughTransforms(facts, []string{"x", "y"}, []ml.Transformer{sc, sel})
	if !ok {
		t.Fatal("mapping failed")
	}
	iv, present := ff.constraints[0]
	if !present {
		t.Fatalf("no constraint after scaler+select: %+v", ff)
	}
	// (10-10)/2 = 0 ; (14-10)/2 = 2
	if iv.Lo != 0 || iv.Hi != 2 {
		t.Errorf("scaled interval = %+v", iv)
	}
}

func TestMapFactsBailsOnUnion(t *testing.T) {
	u := &ml.FeatureUnion{Parts: []ml.Transformer{&ml.ColumnSelect{Indices: []int{0}}}}
	facts := columnFacts{"x": {Lo: 1, Hi: 1}}
	if _, ok := mapFactsThroughTransforms(facts, []string{"x"}, []ml.Transformer{u}); ok {
		t.Error("union should stop constraint mapping (conservative)")
	}
}

func TestNarrowInputColumnsThroughScaler(t *testing.T) {
	// scaler over 3 cols, then LR that uses only feature 1.
	sc := &ml.StandardScaler{Mean: []float64{1, 2, 3}, Scale: []float64{1, 1, 1}}
	lr := &ml.LogisticRegression{W: []float64{0, 2, 0}, B: 0}
	cat := storage.NewCatalog()
	tb := storage.NewTable("t", types.NewSchema(
		types.Column{Name: "a", Type: types.Float},
		types.Column{Name: "b", Type: types.Float},
		types.Column{Name: "c", Type: types.Float},
	))
	_ = tb.AppendRow(1.0, 2.0, 3.0)
	_ = cat.AddTable(tb)
	g := &ir.Graph{Root: scoreNode(plan.NewScan(tb), lr, []string{"a", "b", "c"}, "s", sc)}
	if !run(t, g, cat, "model-projection-pushdown", projection) {
		t.Fatal("rule did not fire")
	}
	model := modelOf(t, g)
	if len(model.InputCols) != 1 || model.InputCols[0] != "b" {
		t.Errorf("inputs = %v, want [b]", model.InputCols)
	}
	// narrowed scaler must be width 1 with the right mean
	nsc, ok := model.Steps[0].(*ml.StandardScaler)
	if !ok || len(nsc.Mean) != 1 || nsc.Mean[0] != 2 {
		t.Errorf("scaler not narrowed: %+v", model.Steps[0])
	}
}

// TestNarrowInputColumnsAllOrNothing: a step the rewrite cannot re-index
// after one it can (one-hot behind a scaler) leaves every step and the
// input columns as they were, not a narrowed scaler over the full input.
func TestNarrowInputColumnsAllOrNothing(t *testing.T) {
	sc := &ml.StandardScaler{Mean: []float64{1, 2, 3}, Scale: []float64{1, 1, 1}}
	enc := &ml.OneHotEncoder{Cols: []int{2}, Categories: [][]float64{{0, 1}}, InputDim: 3}
	lr := &ml.LogisticRegression{W: []float64{0, 2, 0, 1}, B: 0}
	tb := storage.NewTable("t", types.NewSchema(
		types.Column{Name: "a", Type: types.Float},
		types.Column{Name: "b", Type: types.Float},
		types.Column{Name: "c", Type: types.Float},
	))
	model := scoreNode(plan.NewScan(tb), lr, []string{"a", "b", "c"}, "s", sc, enc)
	if _, fired, err := projectModel(model); err != nil || !fired {
		t.Fatal(fired, err)
	}
	if got := model.Steps[0].(*ml.StandardScaler); len(got.Mean) != 3 || len(model.InputCols) != 3 {
		t.Errorf("half-narrowed pipeline: scaler width %d over inputs %v", len(got.Mean), model.InputCols)
	}
}

func TestOptimizeWithSplittingOption(t *testing.T) {
	g, cat := hospitalGraph(t, fig1Tree(), nil)
	opts := DefaultOptions(&relopt.Optimizer{Catalog: cat, AssumeRI: true})
	opts.ModelQuerySplitting = true
	opts.ModelInlining = false
	opts.NNTranslation = false
	res, err := Optimize(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(res.Applied, ","), "model-query-splitting") {
		t.Errorf("splitting did not fire: %v", res.Applied)
	}
	if _, ok := res.Graph.Root.(*ir.SplitNode); !ok {
		t.Errorf("no split node in optimized graph:\n%s", res.Graph.Explain())
	}
}

func TestOptimizeNNTranslationPath(t *testing.T) {
	g, cat := hospitalGraph(t, fig1Tree(), pregnantEq1())
	opts := DefaultOptions(&relopt.Optimizer{Catalog: cat, AssumeRI: true})
	opts.ModelInlining = false
	res, err := Optimize(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.Applied, ",")
	if !strings.Contains(joined, "nn-translation") {
		t.Errorf("nn-translation did not fire: %v", res.Applied)
	}
	la := res.Graph.Find(func(n ir.Node) bool { _, ok := n.(*ir.LANode); return ok })
	if la == nil {
		t.Fatal("no LA node")
	}
	if !strings.Contains(res.Graph.Explain(), "[LA/ml] LA:graph(") {
		t.Errorf("LA node not placed on ML engine:\n%s", res.Graph.Explain())
	}
}

// TestFactsFollowColumns: facts are computed bottom-up through each
// operator's contract, so a fact stays with its column and with nothing
// else of the same name.
func TestFactsFollowColumns(t *testing.T) {
	g, _ := hospitalGraph(t, fig1Tree(), nil)
	model := modelOf(t, g)
	join := model.Child.(*plan.Join)
	join.Left = &plan.Filter{Child: join.Left, Pred: expr.And([]expr.Expr{pregnantEq1(), colCmp(expr.OpGt, "age", 30)})}
	join.Right = &plan.Filter{Child: join.Right, Pred: colCmp(expr.OpLe, "bp", 120)}

	// A join's rows satisfy both inputs' facts; a row-wise model passes
	// them through, and says nothing about the column it adds.
	scored := &plan.Filter{Child: model, Pred: colCmp(expr.OpGt, "score", 0.5)}
	f := factsOf(scored, false)
	if f["pregnant"].Lo != 1 || f["pregnant"].Hi != 1 || f["age"].Lo <= 30 || f["bp"].Hi != 120 || f["score"].Lo <= 0.5 {
		t.Errorf("facts above the model: %+v", f)
	}
	if _, leaked := factsOf(model.Child, false)["score"]; leaked {
		t.Error("a fact about the prediction reached the model's own input")
	}

	// A projection keeps a fact for a bare column reference only, under
	// its output name: bp's range moves to "age", age's own is gone, and
	// an expression over pregnant carries nothing.
	proj, err := plan.NewProject(scored,
		[]expr.Expr{&expr.Column{Name: "bp"}, expr.NewBinary(expr.OpAdd, &expr.Column{Name: "pregnant"}, expr.IntLit(1)), &expr.Column{Name: "score"}},
		[]string{"age", "pregnant", "s"})
	if err != nil {
		t.Fatal(err)
	}
	f = factsOf(proj, false)
	if len(f) != 2 || f["age"].Hi != 120 || f["s"].Lo <= 0.5 {
		t.Errorf("facts above the renaming projection: %+v", f)
	}

	// An aggregate keeps its group keys'; an opaque operator keeps none.
	agg, err := plan.NewAggregate(proj, []string{"age"}, []plan.AggSpec{{Func: plan.AggMax, Arg: &expr.Column{Name: "s"}, Name: "s"}})
	if err != nil {
		t.Fatal(err)
	}
	if f = factsOf(agg, false); len(f) != 1 || f["age"].Hi != 120 {
		t.Errorf("facts above the aggregate: %+v", f)
	}
	if f = factsOf(&ir.UDFNode{Name: "opaque", Child: proj, Out: proj.Schema()}, false); len(f) != 0 {
		t.Errorf("facts crossed a UDF: %+v", f)
	}
}

func TestRoutingFeaturesDegenerate(t *testing.T) {
	// single-cluster model has no routing features
	sample := ml.Matrix{Data: []float64{1, 2, 3, 4}, Rows: 2, Cols: 2}
	lr := &ml.LogisticRegression{W: []float64{1, 1}}
	cm, err := BuildClusteredModel(lr, sample, 1, 1e-9, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cm.Predict(sample)
	if err != nil || len(p) != 2 {
		t.Fatal(p, err)
	}
	want, _ := lr.Predict(sample)
	for i := range want {
		if math.Abs(want[i]-p[i]) > 1e-12 {
			t.Errorf("k=1 clustered diverges at %d", i)
		}
	}
}

func TestClusteredEncodedModelMatchesPipeline(t *testing.T) {
	// 2 numerics + 2 cats with group structure
	const n, d, groups = 600, 4, 4
	raw := make([]float64, n*d)
	for i := 0; i < n; i++ {
		g := i % groups
		raw[i*d] = float64(i%7) * 0.5
		raw[i*d+1] = float64(i%5) * 0.25
		raw[i*d+2] = float64(g)
		raw[i*d+3] = float64(g % 2)
	}
	rawM := ml.Matrix{Data: raw, Rows: n, Cols: d}
	enc := ml.FitOneHot(rawM, []int{2, 3})
	encd, err := enc.Transform(rawM)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, encd.Cols)
	for j := range w {
		w[j] = 0.1 * float64(j%5)
	}
	lr := &ml.LogisticRegression{W: w, B: -0.3}
	want, err := lr.Predict(encd)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := BuildClusteredEncodedModel(enc, lr, rawM, groups, 1e-9, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cm.Predict(rawM)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-9 {
			t.Fatalf("clustered-encoded diverges at %d: %v vs %v", i, want[i], got[i])
		}
	}
	if cm.K() != groups {
		t.Errorf("K = %d", cm.K())
	}
	if cm.AvgActiveTerms() >= float64(d) {
		t.Errorf("nothing specialized: %v", cm.AvgActiveTerms())
	}
}

func TestClusteredEncodedModelValidation(t *testing.T) {
	enc := &ml.OneHotEncoder{Cols: []int{0}, Categories: [][]float64{{0, 1}}, InputDim: 1}
	lr := &ml.LogisticRegression{W: []float64{1}} // wrong width (encoder yields 2)
	if _, err := BuildClusteredEncodedModel(enc, lr, ml.Matrix{Data: []float64{0, 1}, Rows: 2, Cols: 1}, 2, 1e-9, 1); err == nil {
		t.Error("width mismatch should fail")
	}
}

func colCmp(op expr.BinOp, col string, v float64) expr.Expr {
	return expr.NewBinary(op, &expr.Column{Name: col}, expr.FloatLit(v))
}

// selection runs selection pushdown alone and reports whether it fired.
func selection(t *testing.T, g *ir.Graph, cat *storage.Catalog) bool {
	t.Helper()
	return run(t, g, cat, "selection-pushdown", func(o *Options) { o.SelectionPushdown = true })
}

// TestSelectionPushdownPlacement pins where each kind of conjunct ends up.
func TestSelectionPushdownPlacement(t *testing.T) {
	mixedOr := expr.NewBinary(expr.OpOr, colCmp(expr.OpGt, "age", 30), colCmp(expr.OpGt, "score", 0.9))

	// Data conjuncts cross, and go on through the join; prediction
	// conjuncts and mixed ORs stay.
	g, cat := hospitalGraph(t, fig1Tree(), expr.And([]expr.Expr{pregnantEq1(), colCmp(expr.OpGt, "score", 0.5), mixedOr}))
	if !selection(t, g, cat) {
		t.Fatal("rule did not fire")
	}
	want := "Filter(((score > 0.5) AND ((age > 30) OR (score > 0.9))))\n  model:tree -> score\n    Join(id = id)\n      Filter((pregnant = 1))\n        Scan(patient_info)\n"
	if got := plan.Explain(g.Root); !strings.HasPrefix(got, want) {
		t.Errorf("plan:\n%s", got)
	}

	// A filter that was only data conjuncts disappears from above the model.
	g, cat = hospitalGraph(t, fig1Tree(), pregnantEq1())
	if ok := selection(t, g, cat); !ok || g.Root != plan.Node(modelOf(t, g)) {
		t.Errorf("fired=%v, graph after:\n%s", ok, g.Explain())
	}

	// Nothing to move: the rule does not report itself.
	g, cat = hospitalGraph(t, fig1Tree(), mixedOr)
	if selection(t, g, cat) {
		t.Error("rule reported a move with only a mixed OR above the model")
	}

	// A filter over a LIMIT is not directly above the model: it sees the
	// first rows of the unfiltered stream, so it stays.
	g, cat = hospitalGraph(t, fig1Tree(), nil)
	g.Root = &plan.Filter{Child: &plan.Limit{Child: g.Root, N: 5}, Pred: pregnantEq1()}
	if selection(t, g, cat) {
		t.Error("a filter over a LIMIT crossed PREDICT")
	}

	// An opaque UDF below the model stops the conjunct there.
	g, cat = hospitalGraph(t, fig1Tree(), pregnantEq1())
	model := modelOf(t, g)
	model.Child = &ir.UDFNode{Name: "opaque", Child: model.Child, Out: model.Child.Schema()}
	if ok := selection(t, g, cat); !ok || !strings.HasPrefix(plan.Explain(g.Root), "model:tree -> score\n  Filter((pregnant = 1))\n    opaque\n      Join(id = id)\n        Scan(") {
		t.Errorf("fired=%v, want the selection between the model and the UDF:\n%s", ok, g.Explain())
	}

	// With the rule off nothing crosses, and the relational pass leaves the
	// filter where the query wrote it: the reference plan.
	g, cat = hospitalGraph(t, fig1Tree(), pregnantEq1())
	if run(t, g, cat, "selection-pushdown", func(o *Options) { o.Relational = true }); !strings.HasPrefix(plan.Explain(g.Root), "Filter((pregnant = 1))\n  model:tree") {
		t.Errorf("a selection crossed the model with the rule off:\n%s", g.Explain())
	}
}

// TestSelectionPushdownStacked: under stacked PREDICTs the projection
// between the models may rename columns — here it swaps age and pregnant —
// so the outer conjunct lands on top of that projection and goes no
// further, while the WHERE under it crosses the inner model.
func TestSelectionPushdownStacked(t *testing.T) {
	g, cat := hospitalGraph(t, fig1Tree(), nil)
	swap, err := plan.NewProject(
		&plan.Filter{Child: g.Root, Pred: colCmp(expr.OpGt, "weight", 60)},
		[]expr.Expr{&expr.Column{Name: "age"}, &expr.Column{Name: "pregnant"}, &expr.Column{Name: "score"}},
		[]string{"pregnant", "age", "bp"})
	if err != nil {
		t.Fatal(err)
	}
	outer := scoreNode(swap, &ml.LogisticRegression{W: []float64{1, 1}}, []string{"age", "bp"}, "score2")
	g.Root = &plan.Filter{Child: outer, Pred: colCmp(expr.OpGt, "pregnant", 40)}

	if !selection(t, g, cat) {
		t.Fatal("rule did not fire")
	}
	want := "model:logreg -> score2\n" +
		"  Filter((pregnant > 40))\n" +
		"    Project(age AS pregnant, pregnant AS age, score AS bp)\n" +
		"      model:tree -> score\n" +
		"        Join(id = id)\n" +
		"          Filter((weight > 60))\n" +
		"            Scan(patient_info)\n" +
		"          Scan(blood_tests)\n"
	if got := plan.Explain(g.Root); got != want {
		t.Errorf("plan:\n%s\nwant:\n%s", got, want)
	}
}
