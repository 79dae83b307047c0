package xopt

import (
	"math/rand"
	"strings"
	"testing"

	"raven/internal/expr"
	"raven/internal/ir"
	"raven/internal/ml"
	"raven/internal/plan"
	"raven/internal/relopt"
	"raven/internal/storage"
	"raven/internal/train"
	"raven/internal/types"
)

// fig1Tree mirrors the running example: pregnant(0) at root, gender(2)/
// age(1) on the not-pregnant side, bp(4) on the pregnant side.
func fig1Tree() *ml.DecisionTree {
	t := &ml.DecisionTree{NFeat: 5}
	add := func(f int, thr, v float64) int {
		t.Feature = append(t.Feature, f)
		t.Threshold = append(t.Threshold, thr)
		t.Left = append(t.Left, -1)
		t.Right = append(t.Right, -1)
		t.Value = append(t.Value, v)
		return len(t.Feature) - 1
	}
	root := add(0, 0.5, 0)
	g := add(2, 0.5, 0)
	l1 := add(-1, 0, 0.1)
	l2 := add(-1, 0, 0.2)
	bp := add(4, 140, 0)
	l3 := add(-1, 0, 0.3)
	l4 := add(-1, 0, 0.9)
	t.Left[root], t.Right[root] = g, bp
	t.Left[g], t.Right[g] = l1, l2
	t.Left[bp], t.Right[bp] = l3, l4
	return t
}

var hospCols = []string{"pregnant", "age", "gender", "weight", "bp"}

// hospitalGraph builds filter(pred) over model over join, the tree the
// binder and ir.FromPlan produce for a PREDICT with a WHERE above it.
func hospitalGraph(t *testing.T, model ml.Model, pred expr.Expr) (*ir.Graph, *storage.Catalog) {
	t.Helper()
	cat := storage.NewCatalog()
	pi := storage.NewTable("patient_info", types.NewSchema(
		types.Column{Name: "id", Type: types.Int},
		types.Column{Name: "age", Type: types.Float},
		types.Column{Name: "pregnant", Type: types.Int},
		types.Column{Name: "gender", Type: types.Int},
		types.Column{Name: "weight", Type: types.Float},
	))
	bt := storage.NewTable("blood_tests", types.NewSchema(
		types.Column{Name: "id", Type: types.Int},
		types.Column{Name: "bp", Type: types.Float},
	))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		_ = pi.AppendRow(int64(i), 20+rng.Float64()*50, int64(i%2), int64(i%2), 50+rng.Float64()*50)
		_ = bt.AppendRow(int64(i), 90+rng.Float64()*80)
	}
	_ = cat.AddTable(pi)
	_ = cat.AddTable(bt)
	cat.SetUniqueKey("patient_info", "id")
	cat.SetUniqueKey("blood_tests", "id")

	join, err := plan.NewJoin(plan.NewScan(pi), plan.NewScan(bt), "id", "id")
	if err != nil {
		t.Fatal(err)
	}
	var root plan.Node = scoreNode(join, model, hospCols, "score")
	if pred != nil {
		root = &plan.Filter{Child: root, Pred: pred}
	}
	return &ir.Graph{Root: root}, cat
}

func scoreNode(child plan.Node, m ml.Model, cols []string, out string, steps ...ml.Transformer) *ir.ModelNode {
	return &ir.ModelNode{
		Scorer: ir.Scorer{Child: child, InputCols: cols, OutputCol: types.Column{Name: out, Type: types.Float}},
		Steps:  steps, M: m,
	}
}

// modelOf returns the (first) model operator of the tree.
func modelOf(t *testing.T, g *ir.Graph) *ir.ModelNode {
	t.Helper()
	m, ok := g.Find(func(n ir.Node) bool { _, ok := n.(*ir.ModelNode); return ok }).(*ir.ModelNode)
	if !ok {
		t.Fatalf("no model operator in:\n%s", g.Explain())
	}
	return m
}

// run optimizes g with exactly the rules set switches on, and reports
// whether rule fired.
func run(t *testing.T, g *ir.Graph, cat *storage.Catalog, rule string, set func(*Options)) bool {
	t.Helper()
	opts := Options{RelOpt: &relopt.Optimizer{Catalog: cat, AssumeRI: true}}
	set(&opts)
	res, err := Optimize(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Contains(strings.Join(res.Applied, ","), rule)
}

func pruning(o *Options)    { o.SelectionPushdown, o.PredicateModelPruning = true, true }
func projection(o *Options) { o.ModelProjectionPushdown = true }

const pruningRule = "predicate-based-model-pruning"

func pregnantEq1() expr.Expr {
	return expr.NewBinary(expr.OpEq, &expr.Column{Name: "pregnant"}, expr.IntLit(1))
}

func TestPredicatePruningShrinksTree(t *testing.T) {
	tree := fig1Tree()
	before := tree.NumNodes()
	g, cat := hospitalGraph(t, tree, pregnantEq1())
	if !run(t, g, cat, pruningRule, pruning) {
		t.Fatal("rule did not fire")
	}
	model := modelOf(t, g)
	after := model.M.(*ml.DecisionTree).NumNodes()
	if after >= before {
		t.Errorf("tree did not shrink: %d -> %d", before, after)
	}
	// gender must be gone (paper: "gender is no longer used")
	for _, f := range model.M.UsedFeatures() {
		if f == 2 {
			t.Error("gender still used after pruning")
		}
	}
}

func TestPredicatePruningNoPredicatesNoChange(t *testing.T) {
	g, cat := hospitalGraph(t, fig1Tree(), nil)
	if run(t, g, cat, pruningRule, pruning) {
		t.Error("rule fired without predicates")
	}
}

func TestPredicatePruningFromStatistics(t *testing.T) {
	// No WHERE clause; but patient_info.pregnant has a single distinct
	// value when we build such a table.
	cat := storage.NewCatalog()
	pi := storage.NewTable("patient_info", types.NewSchema(
		types.Column{Name: "pregnant", Type: types.Int},
		types.Column{Name: "age", Type: types.Float},
		types.Column{Name: "gender", Type: types.Int},
		types.Column{Name: "weight", Type: types.Float},
		types.Column{Name: "bp", Type: types.Float},
	))
	for i := 0; i < 30; i++ {
		_ = pi.AppendRow(int64(1), float64(30+i), int64(i%2), 60.0, float64(100+i))
	}
	_ = cat.AddTable(pi)
	g := &ir.Graph{Root: scoreNode(plan.NewScan(pi), fig1Tree(), hospCols, "score")}
	if !run(t, g, cat, pruningRule, func(o *Options) { o.PredicateModelPruning, o.UseDataStatistics = true, true }) {
		t.Fatal("stat-derived pruning did not fire")
	}
	for _, f := range modelOf(t, g).M.UsedFeatures() {
		if f == 0 {
			t.Error("pregnant split survived although the column is constant")
		}
	}
}

func TestProjectionPushdownNarrowsModelAndInputs(t *testing.T) {
	lr := &ml.LogisticRegression{W: []float64{0.5, 0, 0, 0, 1.5}, B: 0.1}
	g, cat := hospitalGraph(t, lr, nil)
	if !run(t, g, cat, "model-projection-pushdown", projection) {
		t.Fatal("rule did not fire")
	}
	model := modelOf(t, g)
	if got := len(model.M.(*ml.LogisticRegression).W); got != 2 {
		t.Errorf("model width = %d, want 2", got)
	}
	if len(model.InputCols) != 2 || model.InputCols[0] != "pregnant" || model.InputCols[1] != "bp" {
		t.Errorf("input cols = %v", model.InputCols)
	}
}

func TestProjectionPushdownEnablesJoinElimination(t *testing.T) {
	// Model reads only patient_info columns and the query only the score;
	// after pushdown the blood_tests join must disappear.
	lr := &ml.LogisticRegression{W: []float64{1, 0.5, 0, 0, 0}, B: 0}
	g, cat := hospitalGraph(t, lr, nil)
	root, err := plan.NewProject(g.Root, []expr.Expr{&expr.Column{Name: "score"}}, []string{"score"})
	if err != nil {
		t.Fatal(err)
	}
	g.Root = root
	if !run(t, g, cat, "relational-optimizations", func(o *Options) { o.ModelProjectionPushdown, o.Relational = true, true }) {
		t.Fatal("the relational pass changed nothing")
	}
	s := g.Explain()
	if strings.Contains(s, "blood_tests") {
		t.Errorf("join not eliminated:\n%s", s)
	}
}

func TestNNTranslationReplacesChainWithLANode(t *testing.T) {
	g, cat := hospitalGraph(t, fig1Tree(), nil)
	if !run(t, g, cat, "nn-translation", func(o *Options) { o.NNTranslation = true }) {
		t.Fatal("rule did not fire")
	}
	la, ok := g.Root.(*ir.LANode)
	if !ok || strings.Contains(g.Explain(), "MLD") {
		t.Fatalf("the model was not replaced by an LA node:\n%s", g.Explain())
	}
	if la.G.NumNodes() == 0 || la.OutputCol.Name != "score" {
		t.Errorf("LA node = %+v", la)
	}
}

func TestModelInliningProducesCase(t *testing.T) {
	g, cat := hospitalGraph(t, fig1Tree(), nil)
	if !run(t, g, cat, "model-inlining", inlining) {
		t.Fatal("rule did not fire")
	}
	// The model is now a projection with a CASE, passing its input through.
	proj, ok := g.Root.(*plan.Project)
	if !ok || len(g.ModelOps()) != 0 {
		t.Fatalf("model not replaced by a projection:\n%s", g.Explain())
	}
	if n := len(proj.Exprs); n != 7 || proj.Names[n-1] != "score" || !strings.Contains(proj.Exprs[n-1].String(), "CASE") {
		t.Errorf("inlined projection:\n%s", g.Explain())
	}
}

func inlining(o *Options) { o.ModelInlining = true }

func TestModelInliningWithScaler(t *testing.T) {
	tree := &ml.DecisionTree{NFeat: 1}
	tree.Feature = []int{0, -1, -1}
	tree.Threshold = []float64{0, 0, 0} // scaled space: (x-10)/2 <= 0  <=>  x <= 10
	tree.Left = []int{1, -1, -1}
	tree.Right = []int{2, -1, -1}
	tree.Value = []float64{0, 1, 2}
	sc := &ml.StandardScaler{Mean: []float64{10}, Scale: []float64{2}}

	cat := storage.NewCatalog()
	tb := storage.NewTable("t", types.NewSchema(types.Column{Name: "x", Type: types.Float}))
	_ = tb.AppendRow(5.0)
	_ = tb.AppendRow(15.0)
	_ = cat.AddTable(tb)
	g := &ir.Graph{Root: scoreNode(plan.NewScan(tb), tree, []string{"x"}, "y", sc)}
	if !run(t, g, cat, "model-inlining", inlining) {
		t.Fatal("rule did not fire")
	}
	s := g.Explain()
	if !strings.Contains(s, "CASE WHEN (((x - 10) / 2) <= 0)") {
		t.Errorf("no CASE:\n%s", s)
	}
}

func TestInliningSkipsLargeTreesAndOneHot(t *testing.T) {
	// large tree
	big := &ml.DecisionTree{NFeat: 1}
	var build func(d int) int
	build = func(d int) int {
		if d == 0 {
			big.Feature = append(big.Feature, -1)
			big.Threshold = append(big.Threshold, 0)
			big.Left = append(big.Left, -1)
			big.Right = append(big.Right, -1)
			big.Value = append(big.Value, 1)
			return len(big.Feature) - 1
		}
		big.Feature = append(big.Feature, 0)
		big.Threshold = append(big.Threshold, float64(d))
		big.Left = append(big.Left, -1)
		big.Right = append(big.Right, -1)
		big.Value = append(big.Value, 0)
		self := len(big.Feature) - 1
		l := build(d - 1)
		r := build(d - 1)
		big.Left[self], big.Right[self] = l, r
		return self
	}
	build(10) // 2^11-1 nodes > InlineMaxNodes
	g, cat := hospitalGraph(t, big, nil)
	if run(t, g, cat, "model-inlining", inlining) {
		t.Error("inlined an oversized tree")
	}

	// onehot chain blocks inlining
	enc := &ml.OneHotEncoder{Cols: []int{0}, Categories: [][]float64{{0, 1}}, InputDim: 5}
	g2, cat := hospitalGraph(t, fig1Tree(), nil)
	modelOf(t, g2).Steps = []ml.Transformer{enc}
	if run(t, g2, cat, "model-inlining", inlining) {
		t.Error("inlined through a one-hot encoder")
	}
}

func TestOptimizeDriverOrderAndEnginePlacement(t *testing.T) {
	g, cat := hospitalGraph(t, fig1Tree(), pregnantEq1())
	opts := DefaultOptions(&relopt.Optimizer{Catalog: cat, AssumeRI: true})
	res, err := Optimize(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.Applied, ",")
	for _, want := range []string{"predicate-based-model-pruning", "model-projection-pushdown", "model-inlining"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing rule %s: %v", want, res.Applied)
		}
	}
	// everything is relational after inlining: engines all db
	if ex := res.Graph.Explain(); strings.Contains(ex, "/ml]") || !strings.Contains(ex, "[RA/db]") {
		t.Errorf("an operator is still placed on the ML runtime:\n%s", ex)
	}
}

func TestMapFactsThroughOneHot(t *testing.T) {
	enc := &ml.OneHotEncoder{Cols: []int{1}, Categories: [][]float64{{3, 7, 9}}, InputDim: 2}
	facts := columnFacts{"dest": {Lo: 7, Hi: 7}}
	ff, ok := mapFactsThroughTransforms(facts, []string{"dist", "dest"}, []ml.Transformer{enc})
	if !ok {
		t.Fatal("mapping failed")
	}
	// output layout: [dist, dest==3, dest==7, dest==9]
	if v, ok := ff.pinned[2]; !ok || v != 1 {
		t.Errorf("dest==7 indicator not pinned to 1: %v", ff.pinned)
	}
	if v, ok := ff.pinned[1]; !ok || v != 0 {
		t.Errorf("dest==3 indicator not pinned to 0: %v", ff.pinned)
	}
	if v, ok := ff.pinned[3]; !ok || v != 0 {
		t.Errorf("dest==9 indicator not pinned to 0: %v", ff.pinned)
	}
}

func TestCategoricalPruningPinsLogReg(t *testing.T) {
	// LR over one-hot features; equality on dest pins its block, dropping
	// those features from the model (the paper's ~2.1× flight case).
	enc := &ml.OneHotEncoder{Cols: []int{1}, Categories: [][]float64{{0, 1, 2}}, InputDim: 2}
	lr := &ml.LogisticRegression{W: []float64{0.5, 1, -1, 2}, B: 0}
	cat := storage.NewCatalog()
	tb := storage.NewTable("flights", types.NewSchema(
		types.Column{Name: "distance", Type: types.Float},
		types.Column{Name: "dest", Type: types.Float},
	))
	for i := 0; i < 10; i++ {
		_ = tb.AppendRow(float64(i*100), float64(i%3))
	}
	_ = cat.AddTable(tb)
	src := &plan.Filter{
		Child: plan.NewScan(tb),
		Pred:  expr.NewBinary(expr.OpEq, &expr.Column{Name: "dest"}, expr.FloatLit(1)),
	}
	g := &ir.Graph{Root: scoreNode(src, lr, []string{"distance", "dest"}, "p", enc)}
	if !run(t, g, cat, pruningRule, pruning) {
		t.Fatal("rule did not fire")
	}
	nw := len(modelOf(t, g).M.(*ml.LogisticRegression).W)
	if nw != 1 {
		t.Errorf("pinned model width = %d, want 1 (only distance left)", nw)
	}
}

func TestClusteredModelMatchesFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := 8
	n := 400
	sample := make([]float64, n*d)
	for i := 0; i < n; i++ {
		c := float64(i % 4)
		for j := 0; j < d; j++ {
			if j < 3 {
				sample[i*d+j] = c * 10 // constant within cluster, well separated
			} else {
				sample[i*d+j] = rng.NormFloat64()
			}
		}
	}
	sm := ml.Matrix{Data: sample, Rows: n, Cols: d}
	w := make([]float64, d)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	lr := &ml.LogisticRegression{W: w, B: 0.2}
	// An encoder with no categorical columns: clustering of the bare LR.
	cm, err := BuildClusteredEncodedModel(&ml.OneHotEncoder{InputDim: d}, lr, sm, 4, 1e-9, 7)
	if err != nil {
		t.Fatal(err)
	}
	if cm.AvgActiveTerms() >= float64(d) {
		t.Errorf("clustering pinned nothing: avg active terms = %v", cm.AvgActiveTerms())
	}
	want, err := lr.Predict(sm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cm.Predict(sm)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		diff := want[i] - got[i]
		if diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("clustered model diverges at %d: %v vs %v", i, want[i], got[i])
		}
	}
	if cm.K() != 4 {
		t.Errorf("K = %d, want 4", cm.K())
	}
}

func TestClusteredModelWidthMismatch(t *testing.T) {
	lr := &ml.LogisticRegression{W: []float64{1, 2}}
	enc := &ml.OneHotEncoder{InputDim: len(lr.W)}
	if _, err := BuildClusteredEncodedModel(enc, lr, ml.Matrix{Rows: 1, Cols: 3, Data: []float64{1, 2, 3}}, 2, 1e-9, 1); err == nil {
		t.Error("width mismatch should fail")
	}
}

// Semantics check: the full optimizer must preserve predictions for rows
// satisfying the predicate, across a trained tree.
func TestOptimizePreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 2000
	d := 5
	xs := make([]float64, n*d)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i*d] = float64(i % 2)
		for j := 1; j < d; j++ {
			xs[i*d+j] = rng.NormFloat64() * 30
		}
		if xs[i*d] == 1 && xs[i*d+4] > 0 {
			ys[i] = 1
		}
	}
	xm := ml.Matrix{Data: xs, Rows: n, Cols: d}
	tree := train.FitTree(xm, ys, train.TreeOptions{MaxDepth: 5, MinLeaf: 10})

	g, cat := hospitalGraph(t, tree, pregnantEq1())
	res, err := Optimize(g, DefaultOptions(&relopt.Optimizer{Catalog: cat, AssumeRI: true}))
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// Predictions for pregnant=1 rows must match the original tree; check
	// via whatever the chain became (inlined CASE or model). We verify on
	// the inlined plan by evaluating its CASE against batches.
	proj, ok := res.Graph.Find(func(n ir.Node) bool {
		p, ok := n.(*plan.Project)
		return ok && strings.Contains(p.String(), "CASE")
	}).(*plan.Project)
	if !ok {
		t.Skip("tree was not inlined for this shape")
	}
	// build a batch with pregnant=1 rows
	sch := types.NewSchema(
		types.Column{Name: "pregnant", Type: types.Float},
		types.Column{Name: "age", Type: types.Float},
		types.Column{Name: "gender", Type: types.Float},
		types.Column{Name: "weight", Type: types.Float},
		types.Column{Name: "bp", Type: types.Float},
	)
	b := types.NewBatch(sch)
	var wantRows []int
	for i := 0; i < n && b.Len() < 200; i++ {
		if xs[i*d] == 1 {
			_ = b.AppendRow(xs[i*d], xs[i*d+1], xs[i*d+2], xs[i*d+3], xs[i*d+4])
			wantRows = append(wantRows, i)
		}
	}
	scoreExpr := proj.Exprs[len(proj.Exprs)-1]
	got, err := scoreExpr.Eval(b)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := tree.Predict(xm)
	for k, i := range wantRows {
		if got.AsFloat(k) != full[i] {
			t.Fatalf("row %d: inlined %v vs tree %v", i, got.AsFloat(k), full[i])
		}
	}
}
