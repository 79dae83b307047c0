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
	g, _ := hospitalGraph(t, forest, pregnantEq1())
	ok, err := rulePredicateModelPruning(g, false)
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	_, model := mldChain(g)
	pf := model.M.(*ml.RandomForest)
	if pf.Trees[0].NumNodes() >= fig1Tree().NumNodes() {
		t.Error("forest trees not pruned")
	}
	ok, err = ruleModelProjectionPushdown(g)
	if err != nil || !ok {
		t.Fatal(ok, err)
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
	g, _ := hospitalGraph(t, forest, pregnantEq1())
	if ok, _ := rulePredicateModelPruning(g, false); ok {
		t.Error("pruning fired without prunable splits")
	}
}

func TestMapFactsThroughScalerAndSelect(t *testing.T) {
	sc := &ml.StandardScaler{Mean: []float64{10, 0}, Scale: []float64{2, 1}}
	sel := &ml.ColumnSelect{Indices: []int{0}}
	facts := &columnFacts{
		ranges: map[string]expr.Range{"x": {Lo: 10, Hi: 14}},
		equals: map[string]float64{},
	}
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
	facts := &columnFacts{ranges: map[string]expr.Range{"x": {Lo: 1, Hi: 1}}, equals: map[string]float64{}}
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
	src := &ir.RelNode{Plan: plan.NewScan(tb)}
	tr := &ir.TransformNode{T: sc, In: src}
	mn := &ir.ModelNode{M: lr, InputCols: []string{"a", "b", "c"}, OutputCol: types.Column{Name: "s", Type: types.Float}, In: tr}
	g := &ir.Graph{Root: mn}
	ok, err := ruleModelProjectionPushdown(g)
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	_, model := mldChain(g)
	if len(model.InputCols) != 1 || model.InputCols[0] != "b" {
		t.Errorf("inputs = %v, want [b]", model.InputCols)
	}
	// narrowed scaler must be width 1 with the right mean
	steps, _ := mldChain(g)
	nsc, ok2 := steps[0].T.(*ml.StandardScaler)
	if !ok2 || len(nsc.Mean) != 1 || nsc.Mean[0] != 2 {
		t.Errorf("scaler not narrowed: %+v", steps[0].T)
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
	if res.Graph.Find(func(n ir.Node) bool { _, ok := n.(*ir.SplitNode); return ok }) == nil {
		t.Error("no split node in optimized graph")
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
	if la.(*ir.LANode).Engine != ir.EngineML {
		t.Error("LA node not placed on ML engine")
	}
}

func TestGatherFactsSkipsPredictionColumns(t *testing.T) {
	g, _ := hospitalGraph(t, fig1Tree(), expr.And([]expr.Expr{
		pregnantEq1(),
		expr.NewBinary(expr.OpGt, &expr.Column{Name: "score"}, expr.FloatLit(0.5)),
	}))
	facts := gatherFacts(g, false)
	if _, ok := facts.ranges["score"]; ok {
		t.Error("prediction column leaked into facts")
	}
	if r, ok := facts.ranges["pregnant"]; !ok || r.Lo != 1 {
		t.Errorf("pregnant fact missing: %+v", facts.ranges)
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

// TestSelectionPushdownPlacement pins where each kind of conjunct ends up.
func TestSelectionPushdownPlacement(t *testing.T) {
	mixedOr := expr.NewBinary(expr.OpOr, colCmp(expr.OpGt, "age", 30), colCmp(expr.OpGt, "score", 0.9))

	// Data conjuncts cross; prediction conjuncts and mixed ORs stay.
	g, _ := hospitalGraph(t, fig1Tree(), expr.And([]expr.Expr{pregnantEq1(), colCmp(expr.OpGt, "score", 0.5), mixedOr}))
	if ok, _ := ruleSelectionPushdown(g); !ok {
		t.Fatal("rule did not fire")
	}
	if got := plan.Explain(g.SourcePlan()); !strings.HasPrefix(got, "Filter((pregnant = 1))\n  Join") {
		t.Errorf("source plan:\n%s", got)
	}
	if got := plan.Explain(g.SinkRel().Plan); !strings.HasPrefix(got, "Filter(((score > 0.5) AND ((age > 30) OR (score > 0.9))))\n  Input") {
		t.Errorf("sink plan:\n%s", got)
	}

	// A sink that was only the filter disappears with it.
	g, _ = hospitalGraph(t, fig1Tree(), pregnantEq1())
	if ok, _ := ruleSelectionPushdown(g); !ok || g.SinkRel() != nil {
		t.Errorf("fired=%v, graph after:\n%s", ok, g.Explain())
	}

	// Nothing to move: the rule does not report itself.
	g, _ = hospitalGraph(t, fig1Tree(), mixedOr)
	if ok, _ := ruleSelectionPushdown(g); ok {
		t.Error("rule reported a move with only a mixed OR in the sink")
	}

	// A filter over a LIMIT is not directly above Input: it sees the first
	// rows of the unfiltered stream, so it stays.
	g, _ = hospitalGraph(t, fig1Tree(), nil)
	sink := g.SinkRel()
	sink.Plan = &plan.Filter{Child: &plan.Limit{Child: sink.Plan, N: 5}, Pred: pregnantEq1()}
	if ok, _ := ruleSelectionPushdown(g); ok {
		t.Error("a filter over a LIMIT crossed PREDICT")
	}

	// An opaque UDF below the model stops the conjunct.
	g, _ = hospitalGraph(t, fig1Tree(), pregnantEq1())
	_, model := mldChain(g)
	model.In = &ir.UDFNode{Name: "opaque", In: model.In}
	if ok, _ := ruleSelectionPushdown(g); ok {
		t.Error("a selection crossed a UDF")
	}
}

// TestSelectionPushdownStackedOneStageAtATime: under stacked PREDICTs the
// fragment between the models may rename columns — here it swaps age and
// pregnant — so the outer conjunct lands on top of that fragment and goes
// no further, while the fragment's own WHERE crosses the inner model.
func TestSelectionPushdownStackedOneStageAtATime(t *testing.T) {
	g, _ := hospitalGraph(t, fig1Tree(), colCmp(expr.OpGt, "pregnant", 40))
	outer := g.SinkRel()
	inner := outer.In.(*ir.ModelNode)
	inSchema := inner.In.(*ir.RelNode).Plan.Schema().Concat(types.NewSchema(inner.OutputCol))
	swap, err := plan.NewProject(
		&plan.Filter{Child: &plan.Input{Sch: inSchema}, Pred: colCmp(expr.OpGt, "weight", 60)},
		[]expr.Expr{&expr.Column{Name: "age"}, &expr.Column{Name: "pregnant"}, &expr.Column{Name: "score"}},
		[]string{"pregnant", "age", "bp"})
	if err != nil {
		t.Fatal(err)
	}
	middle := &ir.RelNode{Plan: swap, In: inner}
	outerModel := &ir.ModelNode{M: &ml.LogisticRegression{W: []float64{1, 1}}, InputCols: []string{"age", "bp"},
		OutputCol: types.Column{Name: "score2", Type: types.Float}, In: middle}
	outer.In = outerModel
	outer.Plan.(*plan.Filter).Child = &plan.Input{Sch: swap.Schema().Concat(types.NewSchema(outerModel.OutputCol))}

	if ok, _ := ruleSelectionPushdown(g); !ok {
		t.Fatal("rule did not fire")
	}
	if g.Root != outerModel {
		t.Errorf("outer sink survived:\n%s", g.Explain())
	}
	if got := plan.Explain(middle.Plan); !strings.HasPrefix(got, "Filter((pregnant > 40))\n  Project(age AS pregnant, pregnant AS age, score AS bp)\n    Input") {
		t.Errorf("middle fragment:\n%s", got)
	}
	if got := plan.Explain(g.SourcePlan()); !strings.HasPrefix(got, "Filter((weight > 60))\n  Join") {
		t.Errorf("source plan:\n%s", got)
	}
}
