package xopt

import (
	"fmt"
	"sort"

	"raven/internal/expr"
	"raven/internal/ir"
	"raven/internal/ml"
	"raven/internal/nnconv"
	"raven/internal/plan"
)

// pruneModel implements §4.1 predicate-based model pruning on one model
// operator: map the facts that hold for its input rows into feature space
// through its own steps, and specialize the model — cutting dead tree
// branches, or folding pinned features into a linear model's bias.
func pruneModel(model *ir.ModelNode, facts columnFacts) bool {
	if len(facts) == 0 {
		return false
	}
	ff, ok := mapFactsThroughTransforms(facts, model.InputCols, model.Steps)
	if !ok || (len(ff.constraints) == 0 && len(ff.pinned) == 0) {
		return false
	}
	switch m := model.M.(type) {
	case *ml.DecisionTree:
		pruned := m.Prune(ff.constraints)
		if pruned.NumNodes() >= m.NumNodes() {
			return false
		}
		model.M = pruned
		return true
	case *ml.RandomForest:
		pruned := m.Prune(ff.constraints)
		before, after := 0, 0
		for i := range m.Trees {
			before += m.Trees[i].NumNodes()
			after += pruned.Trees[i].NumNodes()
		}
		if after >= before {
			return false
		}
		model.M = pruned
		return true
	case *ml.LogisticRegression:
		if len(ff.pinned) == 0 {
			return false
		}
		narrowed, kept := m.PinFeatures(ff.pinned)
		if len(kept) == len(m.W) {
			return false
		}
		model.M = narrowed
		appendFeatureSelect(model, kept)
		return true
	default:
		return false
	}
}

// appendFeatureSelect adds a feature-space ColumnSelect immediately
// before the model (after all existing steps).
func appendFeatureSelect(model *ir.ModelNode, kept []int) {
	model.Steps = append(model.Steps[:len(model.Steps):len(model.Steps)], &ml.ColumnSelect{Indices: kept})
}

// projectModel implements §4.1 model-projection pushdown on one model
// operator: features the model provably ignores (zero weights, pruned
// branches) are projected out — the model narrows, and when its featurizer
// steps permit it so do its input columns, which is what lets the
// relational pass shrink scans and eliminate joins below it.
func projectModel(model *ir.ModelNode) (plan.Node, bool, error) {
	steps := model.Steps
	changed := false
	switch m := model.M.(type) {
	case *ml.LogisticRegression:
		if m.Sparsity() == 0 {
			return model, false, nil
		}
		narrowed, kept := m.Compact()
		if len(kept) == len(m.W) {
			return model, false, nil
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
			appendFeatureSelect(model, kept)
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
			return model, false, nil
		}
		remap := make(map[int]int, len(used))
		for i, f := range used {
			remap[f] = i
		}
		switch t := m.(type) {
		case *ml.DecisionTree:
			nt, err := t.RemapFeatures(remap, len(used))
			if err != nil {
				return nil, false, err
			}
			model.M = nt
		case *ml.RandomForest:
			nf := &ml.RandomForest{Trees: make([]*ml.DecisionTree, len(t.Trees))}
			for i, tr := range t.Trees {
				x, err := tr.RemapFeatures(remap, len(used))
				if err != nil {
					return nil, false, err
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
			appendFeatureSelect(model, used)
		}
		changed = true
	}
	if changed {
		// With steps present, try to narrow the input columns too: an
		// input column is droppable when no used feature depends on it.
		narrowInputColumns(model)
	}
	return model, changed, nil
}

// narrowInputColumns back-maps feature usage through supported steps
// (select/scaler/onehot chains) and rebuilds them over the reduced input
// column set.
func narrowInputColumns(model *ir.ModelNode) {
	steps := model.Steps
	if len(steps) == 0 {
		return
	}
	// Forward usability check only for chains of select/scaler/onehot.
	used := make(map[int]bool)
	for _, f := range model.M.UsedFeatures() {
		used[f] = true
	}
	// Walk backwards from model input to pipeline input.
	for i := len(steps) - 1; i >= 0; i-- {
		prev := make(map[int]bool)
		switch t := steps[i].(type) {
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
				return // cannot back-map without the fitted width
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
			return // unsupported transform: keep all inputs
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
		return
	}
	// Rebuild: the simplest sound rewrite re-indexes the leading steps
	// over the kept columns, and only when every one of them can be:
	// a scaler over the full input is re-fitted by subsetting its
	// per-column state, a select by remapping its indices. The steps are
	// rewritten in a copy that replaces the model's only once all are.
	remap := make(map[int]int, len(keep))
	for i, j := range keep {
		remap[j] = i
	}
	steps = append([]ml.Transformer(nil), steps...)
rewrite:
	for i, st := range steps {
		switch t := st.(type) {
		case *ml.StandardScaler:
			if len(t.Mean) != len(model.InputCols) {
				return // not the leading full-width scaler; bail
			}
			nm := make([]float64, len(keep))
			ns := make([]float64, len(keep))
			for i, j := range keep {
				nm[i] = t.Mean[j]
				ns[i] = t.Scale[j]
			}
			steps[i] = &ml.StandardScaler{Mean: nm, Scale: ns}
		case *ml.ColumnSelect:
			ni := make([]int, len(t.Indices))
			for i, j := range t.Indices {
				nj, ok := remap[j]
				if !ok {
					return
				}
				ni[i] = nj
			}
			steps[i] = &ml.ColumnSelect{Indices: ni}
			// Later steps operate on the select's output, whose indices
			// did not change: stop re-indexing.
			break rewrite
		default:
			return
		}
	}
	newCols := make([]string, len(keep))
	for i, j := range keep {
		newCols[i] = model.InputCols[j]
	}
	model.Steps, model.InputCols = steps, newCols
}

// translateModel implements §4.2 NN translation on one model operator:
// its steps and model compile into a tensor graph that the ort runtime
// executes on the CPU with intra-op parallelism, and an LA node takes the
// operator's place.
func translateModel(model *ir.ModelNode) (plan.Node, bool, error) {
	pipe := &ml.Pipeline{Steps: model.Steps, Final: model.M, InputColumns: model.InputCols}
	graph, err := nnconv.TranslatePipeline(pipe)
	if err != nil {
		return nil, false, fmt.Errorf("xopt: NN translation: %w", err)
	}
	return &ir.LANode{Scorer: model.Scorer, G: graph}, true, nil
}

// InlineMaxNodes bounds the tree size model inlining accepts; beyond this
// the generated CASE expression stops paying off (mirrors SQL Server UDF
// inlining limits).
const InlineMaxNodes = 511

// inlineModel implements §4.2 model inlining on one model operator: a
// small decision tree whose featurization is a pure column mapping (none,
// select, scaler) becomes a relational CASE expression evaluated entirely
// by the DB engine — no data leaves the relational runtime (the paper's
// ~17× at 300K rows). The projection passes every input column through
// and appends the score; column pruning then drops what nothing above
// reads, which is what lets it shrink scans and eliminate joins below.
func inlineModel(model *ir.ModelNode) (plan.Node, bool, error) {
	tree, ok := model.M.(*ml.DecisionTree)
	if !ok || tree.NumNodes() > InlineMaxNodes {
		return model, false, nil
	}
	colExpr, ok := featureColumnExprs(model.InputCols, model.Steps)
	if !ok {
		return model, false, nil
	}
	var exprs []expr.Expr
	var names []string
	for _, c := range model.Child.Schema().Columns {
		exprs = append(exprs, &expr.Column{Name: c.Name})
		names = append(names, c.Name)
	}
	exprs = append(exprs, treeToCase(tree, 0, colExpr))
	names = append(names, model.OutputCol.Name)
	proj, err := plan.NewProject(model.Child, exprs, names)
	if err != nil {
		return nil, false, err
	}
	return proj, true, nil
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

// splitModel implements §2's model/query splitting on one model operator:
// the tree's root test partitions rows into a cheap branch and a complex
// branch, each scored by its own sub-model and unioned — enabling
// independent optimization of the two sides (akin to model cascades).
func splitModel(model *ir.ModelNode) (plan.Node, bool, error) {
	tree, ok := model.M.(*ml.DecisionTree)
	if !ok || len(model.Steps) > 0 || tree.NumNodes() < 7 {
		return model, false, nil // only bare trees over direct columns
	}
	f, thr, left, right, err := tree.SplitOnRoot()
	if err != nil || f >= len(model.InputCols) {
		return model, false, nil
	}
	return &ir.SplitNode{Scorer: model.Scorer, CondCol: model.InputCols[f], Threshold: thr, Left: left, Right: right}, true, nil
}
