package ir

import (
	"fmt"

	"raven/internal/ml"
	"raven/internal/plan"
)

// PipelineResolver loads the stored pipeline for a model name (backed by
// the model store).
type PipelineResolver func(name string) (*ml.Pipeline, error)

// FromPlan lowers a bound logical plan into the unified IR: relational
// subtrees become RelNodes, and every PREDICT expands into the stored
// pipeline's featurizer chain plus model node — the static-analysis result
// (§3.2) spliced into the query plan, exactly Fig 1's unified DAG.
func FromPlan(p plan.Node, resolve PipelineResolver) (*Graph, error) {
	root, err := lower(p, resolve)
	if err != nil {
		return nil, err
	}
	return &Graph{Root: root}, nil
}

// lower converts a plan subtree into an IR node.
func lower(p plan.Node, resolve PipelineResolver) (Node, error) {
	pr, above := findPredict(p)
	if pr == nil {
		return &RelNode{Plan: p, Engine: EngineDB}, nil
	}
	// Below the predict: recurse (supports stacked PREDICTs).
	below, err := lower(pr.Child, resolve)
	if err != nil {
		return nil, err
	}
	pipe, err := resolve(pr.ModelName)
	if err != nil {
		return nil, err
	}
	if err := pipe.Validate(); err != nil {
		return nil, fmt.Errorf("ir: model %q: %w", pr.ModelName, err)
	}
	if len(pr.OutputCols) != 1 {
		return nil, fmt.Errorf("ir: PREDICT with %d output columns not supported (model %q returns one score)", len(pr.OutputCols), pr.ModelName)
	}
	cur := below
	for _, step := range pipe.Steps {
		cur = &TransformNode{T: step, In: cur, Engine: EngineML}
	}
	var modelNode Node = &ModelNode{
		M:         pipe.Final,
		InputCols: pipe.InputColumns,
		OutputCol: pr.OutputCols[0],
		In:        cur,
		Engine:    EngineML,
	}
	if above == nil {
		return modelNode, nil
	}
	// The plan fragment above the predict operates on predict output rows:
	// replace the predict leaf with an Input placeholder.
	replacePredict(above, pr)
	return &RelNode{Plan: above, In: modelNode, Engine: EngineDB}, nil
}

// findPredict locates the topmost Predict on the spine of p. It returns
// the predict node and the fragment above it (nil when the predict is the
// root). Predicts under joins are not supported.
func findPredict(p plan.Node) (*plan.Predict, plan.Node) {
	if pr, ok := p.(*plan.Predict); ok {
		return pr, nil
	}
	switch p.(type) {
	case *plan.Filter, *plan.Project, *plan.Sort, *plan.Limit, *plan.Distinct, *plan.Aggregate:
		if pr, _ := findPredict(p.Children()[0]); pr != nil {
			return pr, p
		}
		return nil, nil
	default:
		return nil, nil
	}
}

// replacePredict substitutes the predict node in the fragment with an
// Input placeholder carrying the predict's output schema.
func replacePredict(frag plan.Node, pr *plan.Predict) {
	for i, c := range frag.Children() {
		if c == pr {
			frag.SetChild(i, &plan.Input{Sch: pr.Schema()})
			return
		}
		replacePredict(c, pr)
	}
}

// SourcePlan returns the relational plan below the ML stage, or nil when
// the source is not relational.
func (g *Graph) SourcePlan() plan.Node {
	if rn, ok := g.Source().(*RelNode); ok {
		return rn.Plan
	}
	return nil
}

// SinkRel returns the RA node sitting above the ML stage (the WHERE /
// SELECT applied to predictions), or nil.
func (g *Graph) SinkRel() *RelNode {
	if rn, ok := g.Root.(*RelNode); ok && rn.In != nil {
		return rn
	}
	return nil
}
