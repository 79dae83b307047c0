// Package xopt is Raven's Cross Optimizer (paper §4): transformation rules
// over the unified IR that pass information between data and ML operators
// (selection pushdown below PREDICT, predicate-based model pruning,
// model-projection pushdown, model clustering) and operator transformations (model inlining to SQL CASE,
// NN translation to tensor graphs, model/query splitting), followed by
// standard relational optimization and engine placement. The initial
// optimizer is heuristic, applying rules in a fixed order (§4.3).
package xopt

import (
	"math"
	"strings"

	"raven/internal/expr"
	"raven/internal/ir"
	"raven/internal/ml"
	"raven/internal/plan"
)

// columnFacts aggregates what the relational side knows about the rows
// reaching the model: per-column value ranges (from WHERE conjuncts and,
// optionally, data statistics) and exact equalities.
type columnFacts struct {
	ranges map[string]expr.Range
	equals map[string]float64
}

// gatherFacts walks the IR collecting predicates that constrain rows
// flowing into the ML stage: filters in the source plan — where selection
// pushdown has already put the WHERE conjuncts that could cross the model
// — and whatever the sink still filters on source columns (a conjunct
// above a UDF, or a graph optimized without that rule).
//
// Sink filters constrain the rows that *survive*; they are still sound for
// model pruning only when the prediction of dropped rows is irrelevant —
// which holds for inference queries that filter on source columns (the
// paper's pregnant=1): rows failing the predicate never contribute output,
// so the model may be specialized to the passing rows.
func gatherFacts(g *ir.Graph, useStats bool) *columnFacts {
	f := &columnFacts{ranges: make(map[string]expr.Range), equals: make(map[string]float64)}
	merge := func(pred expr.Expr) {
		for col, r := range expr.DeriveRanges(pred) {
			cur, ok := f.ranges[col]
			if !ok {
				cur = expr.FullRange()
			}
			f.ranges[col] = cur.Intersect(r)
		}
		for col, v := range expr.DeriveEqualities(pred) {
			if x, ok := v.(float64); ok {
				f.equals[col] = x
			}
		}
	}
	// Source-plan filters.
	if sp := g.SourcePlan(); sp != nil {
		walkPlan(sp, func(n plan.Node) {
			if fl, ok := n.(*plan.Filter); ok {
				merge(fl.Pred)
			}
			if useStats {
				if sc, ok := n.(*plan.Scan); ok {
					addStatFacts(f, sc)
				}
			}
		})
	}
	// Sink filters on source columns: a conjunct referencing a prediction
	// output says nothing about the model's inputs and is skipped.
	if sink := g.SinkRel(); sink != nil {
		outCols := predictionColumns(g)
		walkPlan(sink.Plan, func(n plan.Node) {
			fl, ok := n.(*plan.Filter)
			if !ok {
				return
			}
			for _, c := range expr.Conjuncts(fl.Pred) {
				refsOut := false
				for _, col := range expr.Columns(c) {
					if outCols[col] {
						refsOut = true
						break
					}
				}
				if !refsOut {
					merge(c)
				}
			}
		})
	}
	return f
}

func predictionColumns(g *ir.Graph) map[string]bool {
	out := make(map[string]bool)
	for _, n := range g.Chain() {
		switch x := n.(type) {
		case *ir.ModelNode:
			out[strings.ToLower(x.OutputCol.Name)] = true
		case *ir.LANode:
			out[strings.ToLower(x.OutputCol.Name)] = true
		}
	}
	return out
}

// addStatFacts derives predicates from data properties (paper §4.1: "this
// technique can also be applied based on data properties instead of
// explicit selections"): single-valued columns become equalities, and
// min/max become ranges.
func addStatFacts(f *columnFacts, sc *plan.Scan) {
	for _, c := range sc.Schema().Columns {
		if !c.Type.IsNumeric() && c.Type.String() != "BOOL" {
			continue
		}
		st, err := sc.Table.Stats(c.Name)
		if err != nil || st.NumRows == 0 {
			continue
		}
		col := strings.ToLower(c.Name)
		if st.DistinctCount == 1 {
			f.equals[col] = st.Min
		}
		cur, ok := f.ranges[col]
		if !ok {
			cur = expr.FullRange()
		}
		f.ranges[col] = cur.Intersect(expr.Range{Lo: st.Min, Hi: st.Max})
	}
}

func walkPlan(n plan.Node, fn func(plan.Node)) {
	fn(n)
	for _, c := range n.Children() {
		walkPlan(c, fn)
	}
}

// featureFacts are columnFacts mapped into the model's feature space.
type featureFacts struct {
	constraints ml.Constraints
	pinned      map[int]float64
}

// mapFactsThroughTransforms converts column-level facts into model-input
// feature constraints by pushing them through the featurizer chain. It
// supports ColumnSelect, StandardScaler and OneHotEncoder; a FeatureUnion
// or unknown transformer stops the mapping (sound but conservative).
func mapFactsThroughTransforms(facts *columnFacts, inputCols []string, steps []ml.Transformer) (*featureFacts, bool) {
	// Per-feature interval at the current layer; start from input columns.
	width := len(inputCols)
	ranges := make(map[int]expr.Range, width)
	for j, col := range inputCols {
		if r, ok := facts.ranges[strings.ToLower(col)]; ok {
			ranges[j] = r
		}
		if v, ok := facts.equals[strings.ToLower(col)]; ok {
			cur, ok2 := ranges[j]
			if !ok2 {
				cur = expr.FullRange()
			}
			ranges[j] = cur.Intersect(expr.Range{Lo: v, Hi: v})
		}
	}
	for _, s := range steps {
		next := make(map[int]expr.Range)
		switch t := s.(type) {
		case *ml.ColumnSelect:
			for out, in := range t.Indices {
				if r, ok := ranges[in]; ok {
					next[out] = r
				}
			}
			width = len(t.Indices)
		case *ml.StandardScaler:
			if width != len(t.Mean) {
				return nil, false
			}
			for j, r := range ranges {
				if j >= len(t.Mean) {
					continue
				}
				lo := (r.Lo - t.Mean[j]) / t.Scale[j]
				hi := (r.Hi - t.Mean[j]) / t.Scale[j]
				if t.Scale[j] < 0 {
					lo, hi = hi, lo
				}
				next[j] = expr.Range{Lo: lo, Hi: hi}
			}
		case *ml.OneHotEncoder:
			inDim := t.InputDim
			if inDim == 0 {
				inDim = width
			}
			if inDim != width {
				return nil, false
			}
			// passthrough columns keep their ranges
			for j := 0; j < width; j++ {
				out, err := t.PassthroughOutputIndex(j)
				if err != nil {
					continue
				}
				if r, ok := ranges[j]; ok {
					next[out] = r
				}
			}
			// an equality on a categorical column pins its whole block
			for ci, c := range t.Cols {
				r, ok := ranges[c]
				if !ok || r.Lo != r.Hi {
					continue
				}
				lo, hi, err := t.IndicatorRange(inDim, c)
				if err != nil {
					continue
				}
				for k, cat := range t.Categories[ci] {
					idx := lo + k
					if idx >= hi {
						break
					}
					if cat == r.Lo {
						next[idx] = expr.Range{Lo: 1, Hi: 1}
					} else {
						next[idx] = expr.Range{Lo: 0, Hi: 0}
					}
				}
			}
			od, err := t.OutputDim(width)
			if err != nil {
				return nil, false
			}
			width = od
		default:
			return nil, false
		}
		ranges = next
	}
	ff := &featureFacts{constraints: make(ml.Constraints), pinned: make(map[int]float64)}
	for j, r := range ranges {
		if r.Lo == math.Inf(-1) && r.Hi == math.Inf(1) {
			continue
		}
		ff.constraints[j] = ml.Interval{Lo: r.Lo, Hi: r.Hi}
		if r.Lo == r.Hi {
			ff.pinned[j] = r.Lo
		}
	}
	return ff, true
}
