package ir

import (
	"fmt"

	"raven/internal/ml"
	"raven/internal/plan"
)

// PipelineResolver loads the stored pipeline for a model name (backed by
// the model store).
type PipelineResolver func(name string) (*ml.Pipeline, error)

// FromPlan lowers a bound logical plan into the unified IR: every PREDICT,
// wherever it sits — under a join, stacked, inside a derived table — is
// replaced in place by the stored pipeline's model operator, featurizer
// steps included — the static-analysis result (§3.2) spliced into the
// query plan, exactly Fig 1's unified DAG. The relational operators stay
// what they were.
func FromPlan(p plan.Node, resolve PipelineResolver) (*Graph, error) {
	root, err := lower(p, resolve)
	if err != nil {
		return nil, err
	}
	return &Graph{Root: root}, nil
}

func lower(p plan.Node, resolve PipelineResolver) (plan.Node, error) {
	for i, c := range p.Children() {
		nc, err := lower(c, resolve)
		if err != nil {
			return nil, err
		}
		p.SetChild(i, nc)
	}
	pr, ok := p.(*plan.Predict)
	if !ok {
		return p, nil
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
	return &ModelNode{
		Scorer: Scorer{Child: pr.Child, Model: pr.ModelName, InputCols: pipe.InputColumns, OutputCol: pr.OutputCols[0]},
		Steps:  pipe.Steps,
		M:      pipe.Final,
	}, nil
}
