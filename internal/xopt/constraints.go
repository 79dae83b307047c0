// Package xopt is Raven's Cross Optimizer (paper §4): transformation rules
// over the one plan tree that holds relational and ML operators alike.
// Information passes between them (selection pushdown below the model
// operators, predicate-based model pruning, model-projection pushdown,
// model clustering), operators transform (model inlining to SQL CASE, NN
// translation to tensor graphs), and the standard
// relational optimizations run over the whole tree. The relational rules
// are package relopt's, which knows an ML operator only by the contract it
// declares (plan.Extension); the model rules here are applied to every
// model operator of the tree. The initial optimizer is heuristic, applying
// rules in a fixed order (§4.3).
package xopt

import (
	"math"
	"strings"

	"raven/internal/expr"
	"raven/internal/ml"
	"raven/internal/plan"
)

// columnFacts is what is known about every row an operator emits: a value
// range per (lower-cased) column, an equality being the range [v, v].
type columnFacts map[string]expr.Range

func (f columnFacts) narrow(col string, r expr.Range) {
	cur, ok := f[col]
	if !ok {
		cur = expr.FullRange()
	}
	f[col] = cur.Intersect(r)
}

// factsOf computes the facts that hold for n's output rows, bottom-up
// through each operator's contract, so a fact follows its column and never
// leaks onto another of the same name: table statistics (optionally, §4.1:
// "this technique can also be applied based on data properties instead of
// explicit selections") enter at a Scan; a Filter intersects its
// conjuncts' ranges in; a Join's rows satisfy both inputs' facts; a
// Project keeps a fact only for a bare column reference, under its output
// name; an Aggregate keeps its group keys'; Sort, Limit and Distinct only
// drop rows; a row-wise extension operator passes its input's facts
// through and an opaque one (a UDF) none.
//
// A model may be specialized to these facts because rows failing them
// never reach it — the paper's pregnant = 1, once selection pushdown has
// moved it below the model.
func factsOf(n plan.Node, useStats bool) columnFacts {
	f := columnFacts{}
	switch x := n.(type) {
	case *plan.Scan:
		if useStats {
			addStatFacts(f, x)
		}
	case *plan.Filter:
		f = factsOf(x.Child, useStats)
		for col, r := range expr.DeriveRanges(x.Pred) {
			f.narrow(col, r)
		}
	case *plan.Join:
		// Left columns shadow right ones of the same name in the output.
		f = factsOf(x.Left, useStats)
		for col, r := range factsOf(x.Right, useStats) {
			if x.Left.Schema().IndexOf(col) < 0 {
				f[col] = r
			}
		}
	case *plan.Project:
		in := factsOf(x.Child, useStats)
		for i := len(x.Exprs) - 1; i >= 0; i-- { // the first of a repeated name wins
			name := strings.ToLower(x.Names[i])
			delete(f, name)
			if c, ok := x.Exprs[i].(*expr.Column); ok {
				if r, ok := in[strings.ToLower(c.BareName())]; ok {
					f[name] = r
				}
			}
		}
	case *plan.Aggregate:
		in := factsOf(x.Child, useStats)
		for _, g := range x.GroupBy {
			if r, ok := in[strings.ToLower(g)]; ok {
				f[strings.ToLower(g)] = r
			}
		}
	case *plan.Sort, *plan.Limit, *plan.Distinct:
		f = factsOf(n.Children()[0], useStats)
	case plan.Extension:
		if x.RowWise() {
			f = factsOf(x.Children()[0], useStats)
			for _, c := range x.Adds() {
				delete(f, strings.ToLower(c))
			}
		}
	}
	return f
}

// addStatFacts derives facts from data properties: min/max become a
// range, which for a single-valued column is an equality.
func addStatFacts(f columnFacts, sc *plan.Scan) {
	for _, c := range sc.Schema().Columns {
		if !c.Type.IsNumeric() && c.Type.String() != "BOOL" {
			continue
		}
		st, err := sc.Table.Stats(c.Name)
		if err != nil || st.NumRows == 0 {
			continue
		}
		f.narrow(strings.ToLower(c.Name), expr.Range{Lo: st.Min, Hi: st.Max})
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
func mapFactsThroughTransforms(facts columnFacts, inputCols []string, steps []ml.Transformer) (*featureFacts, bool) {
	// Per-feature interval at the current layer; start from input columns.
	width := len(inputCols)
	ranges := make(map[int]expr.Range, width)
	for j, col := range inputCols {
		if r, ok := facts[strings.ToLower(col)]; ok {
			ranges[j] = r
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
