package xopt

import (
	"fmt"
	"sort"
	"strings"

	"raven/internal/expr"
	"raven/internal/ir"
	"raven/internal/ml"
	"raven/internal/nnconv"
	"raven/internal/plan"
	"raven/internal/types"
)

// mldChain extracts the featurizer steps and model node of the (single)
// MLD chain in the graph, in execution order.
func mldChain(g *ir.Graph) (steps []*ir.TransformNode, model *ir.ModelNode) {
	for _, n := range g.Chain() {
		switch x := n.(type) {
		case *ir.TransformNode:
			steps = append(steps, x)
		case *ir.ModelNode:
			if model == nil {
				model = x
			}
		}
	}
	return steps, model
}

func stepTransformers(steps []*ir.TransformNode) []ml.Transformer {
	out := make([]ml.Transformer, len(steps))
	for i, s := range steps {
		out[i] = s.T
	}
	return out
}

// ruleSelectionPushdown moves WHERE conjuncts across the ML operator: a
// conjunct sitting directly above a fragment's Input that reads only
// columns of the relational fragment feeding the model becomes a filter
// on top of that fragment's plan, and the relational pass pushes it on
// through the joins onto the scans. Scoring is row-wise and deterministic, so exactly the
// rows the original plan returned are scored and returned; the rest are
// never joined or scored. It crosses only transforms and models — a UDF
// is opaque — and one stage at a time: under stacked PREDICTs a conjunct
// lands on top of the user-written fragment between them, which may
// rename or drop the column, and goes no further. Conjuncts on a
// prediction output, ORs mixing both sides and filters over a LIMIT or
// an aggregate stay where they are.
func ruleSelectionPushdown(g *ir.Graph) (bool, error) {
	moved := false
	for _, n := range g.Chain() {
		if rn, ok := n.(*ir.RelNode); ok && rn.In != nil && pushSelections(g, rn) {
			moved = true
		}
	}
	return moved, nil
}

func pushSelections(g *ir.Graph, rn *ir.RelNode) bool {
	var below *ir.RelNode
	scored := make(map[string]bool)
	for n := rn.In; below == nil; n = n.Input() {
		switch x := n.(type) {
		case *ir.TransformNode:
		case *ir.ModelNode:
			scored[strings.ToLower(x.OutputCol.Name)] = true
		case *ir.RelNode:
			below = x
		default:
			return false
		}
	}
	var parent plan.Node
	cur := rn.Plan
	for {
		kids := cur.Children()
		if len(kids) != 1 {
			return false
		}
		if _, leaf := kids[0].(*plan.Input); leaf {
			break
		}
		parent, cur = cur, kids[0]
	}
	f, ok := cur.(*plan.Filter)
	if !ok {
		return false
	}
	var move, keep []expr.Expr
	for _, c := range expr.Conjuncts(f.Pred) {
		crosses := true
		for _, col := range expr.Columns(c) {
			if scored[col] || below.Plan.Schema().IndexOf(col) < 0 {
				crosses = false
			}
		}
		if crosses {
			move = append(move, c)
		} else {
			keep = append(keep, c)
		}
	}
	if len(move) == 0 {
		return false
	}
	below.Plan = &plan.Filter{Child: below.Plan, Pred: expr.And(move)}
	switch {
	case len(keep) > 0:
		f.Pred = expr.And(keep)
	case parent != nil:
		parent.SetChild(0, f.Child)
	default:
		replaceInput(g, rn, rn.In) // the fragment was only the filter
	}
	return true
}

// rulePredicateModelPruning implements §4.1 predicate-based model pruning:
// derive row constraints from predicates (and optionally statistics), map
// them into feature space, and specialize the model — cutting dead tree
// branches, or folding pinned features into a linear model's bias.
func rulePredicateModelPruning(g *ir.Graph, useStats bool) (bool, error) {
	steps, model := mldChain(g)
	if model == nil {
		return false, nil
	}
	facts := gatherFacts(g, useStats)
	if len(facts.ranges) == 0 && len(facts.equals) == 0 {
		return false, nil
	}
	ff, ok := mapFactsThroughTransforms(facts, model.InputCols, stepTransformers(steps))
	if !ok || (len(ff.constraints) == 0 && len(ff.pinned) == 0) {
		return false, nil
	}
	switch m := model.M.(type) {
	case *ml.DecisionTree:
		pruned := m.Prune(ff.constraints)
		if pruned.NumNodes() >= m.NumNodes() {
			return false, nil
		}
		model.M = pruned
		return true, nil
	case *ml.RandomForest:
		pruned := m.Prune(ff.constraints)
		before, after := 0, 0
		for i := range m.Trees {
			before += m.Trees[i].NumNodes()
			after += pruned.Trees[i].NumNodes()
		}
		if after >= before {
			return false, nil
		}
		model.M = pruned
		return true, nil
	case *ml.LogisticRegression:
		if len(ff.pinned) == 0 {
			return false, nil
		}
		narrowed, kept := m.PinFeatures(ff.pinned)
		if len(kept) == len(m.W) {
			return false, nil
		}
		model.M = narrowed
		appendFeatureSelect(g, model, kept)
		return true, nil
	default:
		return false, nil
	}
}

// appendFeatureSelect inserts a feature-space ColumnSelect immediately
// before the model (after all existing transforms).
func appendFeatureSelect(g *ir.Graph, model *ir.ModelNode, kept []int) {
	sel := &ir.TransformNode{T: &ml.ColumnSelect{Indices: kept}, In: model.In, Engine: ir.EngineML}
	model.In = sel
}

// ruleModelProjectionPushdown implements §4.1 model-projection pushdown:
// features the model provably ignores (zero weights, pruned branches) are
// projected out — the model narrows, and when the featurizer chain permits
// it the projection propagates to the relational side, shrinking scans and
// enabling join elimination.
func ruleModelProjectionPushdown(g *ir.Graph) (bool, error) {
	steps, model := mldChain(g)
	if model == nil {
		return false, nil
	}
	changed := false
	switch m := model.M.(type) {
	case *ml.LogisticRegression:
		if m.Sparsity() == 0 {
			return false, nil
		}
		narrowed, kept := m.Compact()
		if len(kept) == len(m.W) {
			return false, nil
		}
		model.M = narrowed
		if len(steps) == 0 {
			// Feature i == input column i: narrow the relational feed.
			newCols := make([]string, len(kept))
			for i, j := range kept {
				newCols[i] = model.InputCols[j]
			}
			model.InputCols = newCols
		} else {
			appendFeatureSelect(g, model, kept)
		}
		changed = true
	case *ml.DecisionTree, *ml.RandomForest:
		used := model.M.UsedFeatures()
		var nf int
		if t, ok := m.(*ml.DecisionTree); ok {
			nf = t.NFeat
		} else {
			nf = m.(*ml.RandomForest).NumFeatures()
		}
		if len(used) == 0 || len(used) >= nf {
			return false, nil
		}
		remap := make(map[int]int, len(used))
		for i, f := range used {
			remap[f] = i
		}
		switch t := m.(type) {
		case *ml.DecisionTree:
			nt, err := t.RemapFeatures(remap, len(used))
			if err != nil {
				return false, err
			}
			model.M = nt
		case *ml.RandomForest:
			nf := &ml.RandomForest{Trees: make([]*ml.DecisionTree, len(t.Trees))}
			for i, tr := range t.Trees {
				x, err := tr.RemapFeatures(remap, len(used))
				if err != nil {
					return false, err
				}
				nf.Trees[i] = x
			}
			model.M = nf
		}
		if len(steps) == 0 {
			newCols := make([]string, len(used))
			for i, j := range used {
				newCols[i] = model.InputCols[j]
			}
			model.InputCols = newCols
		} else {
			appendFeatureSelect(g, model, used)
		}
		changed = true
	}
	if !changed {
		return false, nil
	}
	// With transforms present, try to narrow the input columns too: an
	// input column is droppable when no used feature depends on it.
	return true, narrowInputColumns(g)
}

// narrowInputColumns back-maps feature usage through supported transforms
// (select/scaler/onehot chains) and rebuilds the chain over the reduced
// input column set.
func narrowInputColumns(g *ir.Graph) error {
	steps, model := mldChain(g)
	if model == nil || len(steps) == 0 {
		return nil
	}
	// Forward usability check only for chains of select/scaler/onehot.
	used := make(map[int]bool)
	for _, f := range model.M.UsedFeatures() {
		used[f] = true
	}
	// Walk backwards from model input to pipeline input.
	for i := len(steps) - 1; i >= 0; i-- {
		prev := make(map[int]bool)
		switch t := steps[i].T.(type) {
		case *ml.ColumnSelect:
			for out, in := range t.Indices {
				if used[out] {
					prev[in] = true
				}
			}
		case *ml.StandardScaler:
			prev = used
		case *ml.OneHotEncoder:
			inDim := t.InputDim
			if inDim == 0 {
				return nil // cannot back-map without the fitted width
			}
			for j := 0; j < inDim; j++ {
				if out, err := t.PassthroughOutputIndex(j); err == nil {
					if used[out] {
						prev[j] = true
					}
					continue
				}
				lo, hi, err := t.IndicatorRange(inDim, j)
				if err != nil {
					continue
				}
				for k := lo; k < hi; k++ {
					if used[k] {
						prev[j] = true
						break
					}
				}
			}
		default:
			return nil // unsupported transform: keep all inputs
		}
		used = prev
	}
	var keep []int
	for j := range model.InputCols {
		if used[j] {
			keep = append(keep, j)
		}
	}
	sort.Ints(keep)
	if len(keep) == len(model.InputCols) || len(keep) == 0 {
		return nil
	}
	// Rebuild: the simplest sound rewrite inserts a leading ColumnSelect
	// over the kept columns only when every later step can be re-indexed.
	// Chains starting with a OneHotEncoder or Scaler over the full input
	// are re-fitted by subsetting their per-column state.
	remap := make(map[int]int, len(keep))
	for i, j := range keep {
		remap[j] = i
	}
	for _, sn := range steps {
		switch t := sn.T.(type) {
		case *ml.StandardScaler:
			if len(t.Mean) != len(model.InputCols) {
				return nil // not the leading full-width scaler; bail
			}
			nm := make([]float64, len(keep))
			ns := make([]float64, len(keep))
			for i, j := range keep {
				nm[i] = t.Mean[j]
				ns[i] = t.Scale[j]
			}
			sn.T = &ml.StandardScaler{Mean: nm, Scale: ns}
		case *ml.ColumnSelect:
			ni := make([]int, len(t.Indices))
			for i, j := range t.Indices {
				nj, ok := remap[j]
				if !ok {
					return nil
				}
				ni[i] = nj
			}
			sn.T = &ml.ColumnSelect{Indices: ni}
			// After an explicit select, later steps see unchanged indices.
			remapLater := true
			_ = remapLater
			// Later steps operate on select output; stop re-indexing.
			goto done
		default:
			return nil
		}
	}
done:
	newCols := make([]string, len(keep))
	for i, j := range keep {
		newCols[i] = model.InputCols[j]
	}
	model.InputCols = newCols
	return nil
}

// ruleNNTranslation implements §4.2 NN translation: the MLD chain compiles
// into a tensor graph executable by the ort runtime (with CPU intra-op
// parallelism or the simulated GPU).
func ruleNNTranslation(g *ir.Graph, useGPU bool) (bool, error) {
	steps, model := mldChain(g)
	if model == nil {
		return false, nil
	}
	pipe := &ml.Pipeline{Steps: stepTransformers(steps), Final: model.M, InputColumns: model.InputCols}
	graph, err := nnconv.TranslatePipeline(pipe)
	if err != nil {
		return false, fmt.Errorf("xopt: NN translation: %w", err)
	}
	la := &ir.LANode{
		G:         graph,
		InputCols: model.InputCols,
		OutputCol: model.OutputCol,
		Engine:    ir.EngineML,
		UseGPU:    useGPU,
	}
	// Splice: LA node replaces the whole MLD chain.
	var below ir.Node
	if len(steps) > 0 {
		below = steps[0].In
	} else {
		below = model.In
	}
	la.In = below
	replaceInput(g, model, la)
	return true, nil
}

// replaceInput rewires whichever node consumed old to consume new; if old
// was the root, new becomes the root.
func replaceInput(g *ir.Graph, old, new ir.Node) {
	if g.Root == old {
		g.Root = new
		return
	}
	for _, n := range g.Chain() {
		if n.Input() == old {
			n.SetInput(new)
			return
		}
	}
}

// InlineMaxNodes bounds the tree size model inlining accepts; beyond this
// the generated CASE expression stops paying off (mirrors SQL Server UDF
// inlining limits).
const InlineMaxNodes = 511

// ruleModelInlining implements §4.2 model inlining: a small decision tree
// whose featurization is a pure column mapping (none, select, scaler)
// becomes a relational CASE expression evaluated entirely by the DB engine
// — no data leaves the relational runtime (the paper's ~17× at 300K rows).
func ruleModelInlining(g *ir.Graph) (bool, error) {
	steps, model := mldChain(g)
	if model == nil {
		return false, nil
	}
	tree, ok := model.M.(*ml.DecisionTree)
	if !ok || tree.NumNodes() > InlineMaxNodes {
		return false, nil
	}
	colExpr, ok := featureColumnExprs(model.InputCols, stepTransformers(steps))
	if !ok {
		return false, nil
	}
	caseExpr := treeToCase(tree, 0, colExpr)

	// Build the relational fragment: pass through only the columns the
	// nodes above actually read (all of them when the model is the root),
	// append the score column. Narrow pass-through is what later lets
	// projection pushdown shrink scans and eliminate joins below.
	inSchema := inputRowSchema(g, model)
	keep := map[string]bool{}
	for _, c := range columnsReadAbove(g, model, inSchema) {
		keep[strings.ToLower(c)] = true
	}
	var exprs []expr.Expr
	var names []string
	for _, c := range inSchema.Columns {
		if !keep[strings.ToLower(c.Name)] {
			continue
		}
		exprs = append(exprs, &expr.Column{Name: c.Name})
		names = append(names, c.Name)
	}
	exprs = append(exprs, caseExpr)
	names = append(names, model.OutputCol.Name)
	proj, err := plan.NewProject(&plan.Input{Sch: inSchema}, exprs, names)
	if err != nil {
		return false, err
	}
	rel := &ir.RelNode{Plan: proj, Engine: ir.EngineDB}
	var below ir.Node
	if len(steps) > 0 {
		below = steps[0].In
	} else {
		below = model.In
	}
	rel.In = below
	replaceInput(g, model, rel)
	return true, nil
}

// inputRowSchema reconstructs the schema of rows entering the MLD stage.
func inputRowSchema(g *ir.Graph, model *ir.ModelNode) *types.Schema {
	// The node feeding the first MLD node is relational; use its plan
	// schema.
	n := model.In
	for n != nil {
		if rn, ok := n.(*ir.RelNode); ok {
			return rn.Plan.Schema()
		}
		n = n.Input()
	}
	// Fallback: input columns as floats.
	cols := make([]types.Column, len(model.InputCols))
	for i, c := range model.InputCols {
		cols[i] = types.Column{Name: c, Type: types.Float}
	}
	return types.NewSchema(cols...)
}

// featureColumnExprs maps each model feature to a relational expression
// over the input columns, through select/scaler-only chains. It returns
// false when a transform cannot be expressed relationally here (onehot and
// union stay in the ML runtime).
func featureColumnExprs(inputCols []string, steps []ml.Transformer) (func(f int) (expr.Expr, bool), bool) {
	// exprs[i] is the expression producing current feature i.
	exprs := make([]expr.Expr, len(inputCols))
	for i, c := range inputCols {
		exprs[i] = &expr.Column{Name: c}
	}
	for _, s := range steps {
		switch t := s.(type) {
		case *ml.ColumnSelect:
			next := make([]expr.Expr, len(t.Indices))
			for out, in := range t.Indices {
				if in >= len(exprs) {
					return nil, false
				}
				next[out] = exprs[in]
			}
			exprs = next
		case *ml.StandardScaler:
			if len(t.Mean) != len(exprs) {
				return nil, false
			}
			next := make([]expr.Expr, len(exprs))
			for j := range exprs {
				// (col - mean) / scale
				next[j] = expr.NewBinary(expr.OpDiv,
					expr.NewBinary(expr.OpSub, exprs[j], expr.FloatLit(t.Mean[j])),
					expr.FloatLit(t.Scale[j]))
			}
			exprs = next
		default:
			return nil, false
		}
	}
	return func(f int) (expr.Expr, bool) {
		if f < 0 || f >= len(exprs) {
			return nil, false
		}
		return exprs[f], true
	}, true
}

// treeToCase compiles a decision (sub)tree into a nested CASE expression.
func treeToCase(t *ml.DecisionTree, node int, colExpr func(int) (expr.Expr, bool)) expr.Expr {
	if t.Leaf(node) {
		return expr.FloatLit(t.Value[node])
	}
	col, ok := colExpr(t.Feature[node])
	if !ok {
		return expr.FloatLit(0)
	}
	return &expr.Case{
		Whens: []expr.When{{
			Cond: expr.NewBinary(expr.OpLe, col, expr.FloatLit(t.Threshold[node])),
			Then: treeToCase(t, t.Left[node], colExpr),
		}},
		Else: treeToCase(t, t.Right[node], colExpr),
	}
}

// ruleModelQuerySplitting implements §2's model/query splitting: the tree's
// root test partitions rows into a cheap branch and a complex branch, each
// scored by its own sub-model and unioned — enabling independent
// optimization of the two sides (akin to model cascades).
func ruleModelQuerySplitting(g *ir.Graph) (bool, error) {
	steps, model := mldChain(g)
	if model == nil || len(steps) > 0 {
		return false, nil // only bare trees over direct columns
	}
	tree, ok := model.M.(*ml.DecisionTree)
	if !ok || tree.NumNodes() < 7 {
		return false, nil
	}
	f, thr, left, right, err := tree.SplitOnRoot()
	if err != nil {
		return false, nil
	}
	if f >= len(model.InputCols) {
		return false, nil
	}
	leftNode := &ir.ModelNode{M: left, InputCols: model.InputCols, OutputCol: model.OutputCol, Engine: ir.EngineML}
	rightNode := &ir.ModelNode{M: right, InputCols: model.InputCols, OutputCol: model.OutputCol, Engine: ir.EngineML}
	split := &ir.SplitNode{
		CondCol:   model.InputCols[f],
		Threshold: thr,
		Left:      leftNode,
		Right:     rightNode,
		In:        model.In,
	}
	replaceInput(g, model, split)
	return true, nil
}
