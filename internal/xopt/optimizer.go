package xopt

import (
	"raven/internal/ir"
	"raven/internal/plan"
	"raven/internal/relopt"
	"raven/internal/types"
)

// Options selects which rules run. The zero value disables everything;
// DefaultOptions enables the paper's standard set.
type Options struct {
	SelectionPushdown       bool // WHERE conjuncts on data columns cross PREDICT
	PredicateModelPruning   bool
	UseDataStatistics       bool // derive predicates from table stats (§4.1)
	ModelProjectionPushdown bool
	ModelInlining           bool
	NNTranslation           bool
	UseGPU                  bool // LA nodes request the simulated accelerator
	ModelQuerySplitting     bool
	// Relational enables the standard DB optimizations pass over the
	// source plan (predicate/projection pushdown, join elimination).
	Relational bool
	RelOpt     *relopt.Optimizer
}

// DefaultOptions enables the heuristic rule set of §4.3: cross-IR
// information passing first, then operator transformations, then standard
// relational optimization. Inlining wins over NN translation for small
// trees, so both default on and the driver prefers inlining when it fires.
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

// Optimize runs the heuristic cross optimizer: rules fire in a fixed
// order, each at most once, mirroring the paper's initial (pre-Cascades)
// optimizer (§4.3).
func Optimize(g *ir.Graph, opts Options) (*Result, error) {
	res := &Result{Graph: g}
	apply := func(name string, fn func() (bool, error)) error {
		ok, err := fn()
		if err != nil {
			return err
		}
		if ok {
			res.Applied = append(res.Applied, name)
		}
		return nil
	}

	// 1. Cross-IR information passing. Selections cross first, while the
	// graph is still source ← transforms ← model ← sink: the model rules
	// then see the filters where the relational pass will find them.
	if opts.SelectionPushdown {
		if err := apply("selection-pushdown", func() (bool, error) {
			return ruleSelectionPushdown(g)
		}); err != nil {
			return nil, err
		}
	}
	if opts.PredicateModelPruning {
		if err := apply("predicate-based-model-pruning", func() (bool, error) {
			return rulePredicateModelPruning(g, opts.UseDataStatistics)
		}); err != nil {
			return nil, err
		}
	}
	if opts.ModelProjectionPushdown {
		if err := apply("model-projection-pushdown", func() (bool, error) {
			return ruleModelProjectionPushdown(g)
		}); err != nil {
			return nil, err
		}
	}

	// 2. Operator transformations. Splitting first (it needs the raw
	// tree); then inlining; NN translation only when inlining didn't fire
	// (an inlined model has already left the MLD category).
	if opts.ModelQuerySplitting {
		if err := apply("model-query-splitting", func() (bool, error) {
			return ruleModelQuerySplitting(g)
		}); err != nil {
			return nil, err
		}
	}
	inlined := false
	if opts.ModelInlining {
		if err := apply("model-inlining", func() (bool, error) {
			ok, err := ruleModelInlining(g)
			inlined = ok
			return ok, err
		}); err != nil {
			return nil, err
		}
	}
	if opts.NNTranslation && !inlined {
		if err := apply("nn-translation", func() (bool, error) {
			return ruleNNTranslation(g, opts.UseGPU)
		}); err != nil {
			return nil, err
		}
	}

	// 3. Standard relational optimizations over the source plan (the
	// paper's §2 "standard DB optimizations": pushdown + join elimination
	// enabled by the narrowed model inputs).
	if opts.Relational && opts.RelOpt != nil {
		if err := apply("relational-optimizations", func() (bool, error) {
			return optimizeSourcePlan(g, opts.RelOpt)
		}); err != nil {
			return nil, err
		}
	}

	// 4. Engine placement (§4.3): RA nodes to the DB engine, MLD/LA nodes
	// to the ML runtime.
	placeEngines(g)
	return res, nil
}

// optimizeSourcePlan runs the relational optimizer over the source plan
// with the columns the rest of the graph reads — the model's (possibly
// narrowed) inputs, and whatever the fragments above reference, e.g.
// SELECT d.id — as the required set.
func optimizeSourcePlan(g *ir.Graph, ro *relopt.Optimizer) (bool, error) {
	src, ok := g.Source().(*ir.RelNode)
	if !ok {
		return false, nil
	}
	before := plan.Explain(src.Plan)
	opt, err := ro.OptimizeFor(src.Plan, columnsReadAbove(g, src, src.Plan.Schema()))
	if err != nil {
		return false, err
	}
	src.Plan = opt
	return plan.Explain(opt) != before, nil
}

// columnsReadAbove returns the columns of below's output (schema out) that
// the nodes above it read: what relational fragments reference and what
// models, tensor graphs and split conditions consume. Names are matched
// across fragments without tracking renames, which can only keep a column
// too many. When nothing sits above below, or a UDF does — it is opaque
// and may read anything — every column is needed.
func columnsReadAbove(g *ir.Graph, below ir.Node, out *types.Schema) []string {
	chain := g.Chain()
	for len(chain) > 0 && chain[0] != below {
		chain = chain[1:]
	}
	if len(chain) < 2 {
		return out.Names()
	}
	var cols []string
	for _, n := range chain[1:] {
		switch x := n.(type) {
		case *ir.RelNode:
			cols = append(cols, plan.ReferencedColumns(x.Plan)...)
		case *ir.ModelNode:
			cols = append(cols, x.InputCols...)
		case *ir.LANode:
			cols = append(cols, x.InputCols...)
		case *ir.SplitNode:
			cols = append(cols, x.CondCol)
		case *ir.UDFNode:
			return out.Names()
		}
	}
	return cols
}

func placeEngines(g *ir.Graph) {
	for _, n := range g.Chain() {
		switch x := n.(type) {
		case *ir.RelNode:
			x.Engine = ir.EngineDB
		case *ir.TransformNode:
			x.Engine = ir.EngineML
		case *ir.ModelNode:
			x.Engine = ir.EngineML
		case *ir.LANode:
			x.Engine = ir.EngineML
		case *ir.UDFNode:
			x.Engine = ir.EngineML
		}
	}
}
