package xopt

import (
	"raven/internal/ir"
	"raven/internal/plan"
	"raven/internal/relopt"
)

// Options selects which rules run. The zero value disables everything;
// DefaultOptions enables the paper's standard set.
type Options struct {
	SelectionPushdown       bool // WHERE conjuncts on data columns cross PREDICT
	PredicateModelPruning   bool // also topk-score-bound: a forest scores only rows the sort above may keep
	UseDataStatistics       bool // derive predicates from table stats (§4.1)
	ModelProjectionPushdown bool
	ModelInlining           bool
	NNTranslation           bool
	// Relational enables the standard DB optimizations pass over the tree
	// (predicate/projection pushdown, join elimination).
	Relational bool
	RelOpt     *relopt.Optimizer
}

// DefaultOptions enables the heuristic rule set of §4.3: cross-IR
// information passing first, then operator transformations, then standard
// relational optimization. Inlining wins over NN translation for small
// trees, so both default on and a model that was inlined is not
// translated.
func DefaultOptions(ro *relopt.Optimizer) Options {
	return Options{
		SelectionPushdown:       true,
		PredicateModelPruning:   true,
		ModelProjectionPushdown: true,
		ModelInlining:           true,
		NNTranslation:           true,
		Relational:              true,
		RelOpt:                  ro,
	}
}

// Result reports what the optimizer did.
type Result struct {
	Graph   *ir.Graph
	Applied []string
}

// Optimize runs the heuristic cross optimizer over the one tree: rules
// fire in the fixed order below, mirroring the paper's initial
// (pre-Cascades) optimizer (§4.3). A model rule is applied to every model
// operator of the tree, each over its own featurizer steps and the facts
// that hold for its own input, and reports itself if it fired on any.
func Optimize(g *ir.Graph, opts Options) (*Result, error) {
	res := &Result{Graph: g}
	var relational bool
	rules := []struct {
		name string
		on   bool
		fn   func() (bool, error)
	}{
		// 1. Cross-IR information passing. Selections sink first — through
		// the joins and, being row-wise, below the model operators — so
		// the model rules find them as facts about their input.
		{"selection-pushdown", opts.SelectionPushdown && opts.RelOpt != nil, func() (crossed bool, err error) {
			g.Root, crossed, relational, err = opts.RelOpt.PushFilters(g.Root)
			return crossed, err
		}},
		{"predicate-based-model-pruning", opts.PredicateModelPruning, func() (bool, error) {
			return eachModel(g, func(m *ir.ModelNode) (plan.Node, bool, error) {
				return m, pruneModel(m, factsOf(m.Child, opts.UseDataStatistics)), nil
			})
		}},
		{"model-projection-pushdown", opts.ModelProjectionPushdown, func() (bool, error) {
			return eachModel(g, projectModel)
		}},
		// 2. Operator transformations: inlining, then NN translation for
		// the models inlining left (an inlined model has already left the
		// MLD category).
		{"model-inlining", opts.ModelInlining, func() (bool, error) { return eachModel(g, inlineModel) }},
		{"nn-translation", opts.NNTranslation, func() (bool, error) {
			return eachModel(g, translateModel)
		}},
		// 3. Standard relational optimizations over the whole tree (the
		// paper's §2 "standard DB optimizations": pushdown, and the column
		// pruning and join elimination the narrowed model inputs enable).
		// What step 1 moved within the relational operators counts here.
		{"relational-optimizations", opts.Relational && opts.RelOpt != nil, func() (changed bool, err error) {
			g.Root, changed, err = opts.RelOpt.Optimize(g.Root)
			return relational || changed, err
		}},
		// 4. Last, over the tree that runs: a model the bounded sort above
		// reads only through renames learns the sort's k and direction.
		{"topk-score-bound", opts.PredicateModelPruning, func() (bool, error) { return boundTopK(g), nil }},
	}
	for _, r := range rules {
		if !r.on {
			continue
		}
		fired, err := r.fn()
		if err != nil {
			return nil, err
		}
		if fired {
			res.Applied = append(res.Applied, r.name)
		}
	}
	return res, nil
}

// eachModel applies fn to every model operator of the tree, deepest
// first, and puts the node fn returns in its place. It reports whether fn
// fired on any.
func eachModel(g *ir.Graph, fn func(*ir.ModelNode) (plan.Node, bool, error)) (bool, error) {
	fired := false
	var visit func(n plan.Node) (plan.Node, error)
	visit = func(n plan.Node) (plan.Node, error) {
		for i, c := range n.Children() {
			nc, err := visit(c)
			if err != nil {
				return nil, err
			}
			if nc != c {
				n.SetChild(i, nc)
			}
		}
		m, ok := n.(*ir.ModelNode)
		if !ok {
			return n, nil
		}
		out, ok, err := fn(m)
		fired = fired || ok
		return out, err
	}
	root, err := visit(g.Root)
	if err != nil {
		return false, err
	}
	g.Root = root
	return fired, nil
}
