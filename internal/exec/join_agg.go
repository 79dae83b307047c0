package exec

import (
	"fmt"
	"math"
	"strconv"

	"raven/internal/expr"
	"raven/internal/plan"
	"raven/internal/types"
)

// joinOutputSchema computes the join output (left ++ right minus the
// right key column, matching plan.Join) and the kept right-column
// ordinals — shared by HashProbeStage and the serial reference join the
// tests keep (reference_test.go).
func joinOutputSchema(left, right *types.Schema, rightCol string) (schema *types.Schema, rightSel []int, rightIdx int, err error) {
	rightIdx = right.IndexOf(rightCol)
	if rightIdx < 0 {
		return nil, nil, -1, fmt.Errorf("exec: join key %q not in right schema", rightCol)
	}
	var cols []types.Column
	cols = append(cols, left.Columns...)
	for i, c := range right.Columns {
		if i == rightIdx {
			continue
		}
		cols = append(cols, c)
		rightSel = append(rightSel, i)
	}
	return types.NewSchema(cols...), rightSel, rightIdx, nil
}

// aggOutputSchema computes the output schema of a grouped aggregation over
// child schema cs, mirroring plan.NewAggregate — shared by
// ParallelHashAggregate and the serial reference aggregate the tests keep
// (reference_test.go).
func aggOutputSchema(cs *types.Schema, groupBy []string, aggs []plan.AggSpec) (*types.Schema, error) {
	var cols []types.Column
	for _, g := range groupBy {
		i := cs.IndexOf(g)
		if i < 0 {
			return nil, fmt.Errorf("exec: GROUP BY column %q not found", g)
		}
		cols = append(cols, cs.Columns[i])
	}
	for _, a := range aggs {
		t := types.Float
		if a.Func == plan.AggCount {
			t = types.Int
		} else if a.Arg != nil && (a.Func == plan.AggMin || a.Func == plan.AggMax) {
			at, err := a.Arg.Type(cs)
			if err != nil {
				return nil, err
			}
			t = at
		}
		cols = append(cols, types.Column{Name: a.Name, Type: t})
	}
	return types.NewSchema(cols...), nil
}

// appendGroupKey renders row i's grouping columns as the hash key into
// dst (reset first), returning the grown buffer — callers keep one
// scratch buffer per batch so the hottest loop of every aggregation pays
// only the unavoidable string(key) allocation. Each value is
// length-prefixed so string values containing a delimiter cannot make
// two distinct key tuples collide (e.g. ("x|","y") vs ("x","|y")), and
// values render through typed strconv paths instead of reflection. The
// scheme is shared by aggregation and DISTINCT, so they key rows
// identically.
func appendGroupKey(dst []byte, b *types.Batch, keyIdx []int, i int) []byte {
	dst = dst[:0]
	for _, ki := range keyIdx {
		v := b.Vecs[ki]
		if v.IsNull(i) {
			// Distinct marker: every rendered value starts with a digit
			// (its length prefix), so NULL can never collide with a
			// literal string like "<nil>".
			dst = append(dst, 'n')
			continue
		}
		var s string
		switch {
		case v.Type == types.Int:
			s = strconv.FormatInt(v.Ints[i], 10)
		case v.Type == types.Float:
			// shortest round-trip form, same rendering fmt %v uses
			s = strconv.FormatFloat(v.Floats[i], 'g', -1, 64)
		case v.Type == types.Bool:
			s = strconv.FormatBool(v.Bools[i])
		case v.Type == types.String:
			s = v.Strings[i]
		default:
			s = fmt.Sprintf("%v", v.Value(i))
		}
		dst = strconv.AppendInt(dst, int64(len(s)), 10)
		dst = append(dst, ':')
		dst = append(dst, s...)
	}
	return dst
}

// evalAggArgs evaluates the aggregate arguments over b into argVals
// (reused across batches). Broadcast results are materialized because the
// typed accumulation loops in observe index the data slices directly.
func evalAggArgs(argVals []*types.Vector, aggs []plan.AggSpec, b *types.Batch) error {
	for ai, a := range aggs {
		if a.Arg == nil {
			continue
		}
		v, err := a.Arg.Eval(b)
		if err != nil {
			return err
		}
		if v.Const {
			d := v.Densify()
			expr.PutEvalResult(a.Arg, v)
			v = d
		}
		argVals[ai] = v
	}
	return nil
}

// putAggArgs returns the evaluated argument vectors to the pool once a
// batch has been folded.
func putAggArgs(argVals []*types.Vector, aggs []plan.AggSpec) {
	for ai, a := range aggs {
		if a.Arg != nil && argVals[ai] != nil {
			expr.PutEvalResult(a.Arg, argVals[ai])
			argVals[ai] = nil
		}
	}
}

// aggGroup accumulates all aggregates for one group. SUM/AVG use exact
// (order-invariant, correctly rounded) float accumulation so partial
// aggregation merges bit-identically at any DOP; MIN/MAX keep a
// typed int64 path so INT keys above 2^53 do not collapse through float64.
type aggGroup struct {
	keys   []any
	counts []int64
	sums   []exactFloatSum
	mins   []float64
	maxs   []float64
	minInt []int64
	maxInt []int64
	minStr []string
	maxStr []string
}

// aggFamilies records which accumulator families a spec list needs —
// derived once per operator from the aggregate functions and the static
// MIN/MAX argument types, so each group allocates only the slices its
// query can ever read.
type aggFamilies struct {
	sum     bool // SUM/AVG present
	minMaxF bool // MIN/MAX over float (or bool) arguments
	minMaxI bool // MIN/MAX over int arguments
	minMaxS bool // MIN/MAX over string arguments
}

// aggFamiliesOf derives the families from the specs against the input
// schema. Argument types were already validated by aggOutputSchema, so a
// type error here cannot occur; unknown types default to the float
// family (matching observe's AsFloat fallback).
func aggFamiliesOf(aggs []plan.AggSpec, in *types.Schema) aggFamilies {
	var f aggFamilies
	for _, a := range aggs {
		switch a.Func {
		case plan.AggSum, plan.AggAvg:
			f.sum = true
		case plan.AggMin, plan.AggMax:
			t := types.Float
			if a.Arg != nil {
				if at, err := a.Arg.Type(in); err == nil {
					t = at
				}
			}
			switch t {
			case types.Int:
				f.minMaxI = true
			case types.String:
				f.minMaxS = true
			default:
				f.minMaxF = true
			}
		}
	}
	return f
}

// newAggGroup allocates state for one group, but only the accumulator
// families the query actually uses — a group is allocated per key per
// worker, so a high-cardinality COUNT-only (or single-typed MIN/MAX)
// GROUP BY must not pay for unused slices.
func newAggGroup(nKeys int, aggs []plan.AggSpec, fam aggFamilies) *aggGroup {
	g := &aggGroup{
		keys:   make([]any, nKeys),
		counts: make([]int64, len(aggs)),
	}
	if fam.sum {
		g.sums = make([]exactFloatSum, len(aggs))
	}
	if fam.minMaxF {
		g.mins = make([]float64, len(aggs))
		g.maxs = make([]float64, len(aggs))
		for a := range g.mins {
			g.mins[a] = math.Inf(1)
			g.maxs[a] = math.Inf(-1)
		}
	}
	if fam.minMaxI {
		g.minInt = make([]int64, len(aggs))
		g.maxInt = make([]int64, len(aggs))
		for a := range g.minInt {
			g.minInt[a] = math.MaxInt64
			g.maxInt[a] = math.MinInt64
		}
	}
	if fam.minMaxS {
		g.minStr = make([]string, len(aggs))
		g.maxStr = make([]string, len(aggs))
	}
	return g
}

// observe folds row i of the evaluated aggregate arguments into the group.
func (g *aggGroup) observe(aggs []plan.AggSpec, argVals []*types.Vector, i int) {
	for ai, a := range aggs {
		if a.Func == plan.AggCount {
			g.counts[ai]++
			continue
		}
		v := argVals[ai]
		switch v.Type {
		case types.String:
			if a.Func == plan.AggMin || a.Func == plan.AggMax {
				s := v.Strings[i]
				if g.counts[ai] == 0 || s < g.minStr[ai] {
					g.minStr[ai] = s
				}
				if g.counts[ai] == 0 || s > g.maxStr[ai] {
					g.maxStr[ai] = s
				}
			}
			g.counts[ai]++
		case types.Int:
			g.counts[ai]++
			switch a.Func {
			case plan.AggSum, plan.AggAvg:
				g.sums[ai].Add(float64(v.Ints[i]))
			default:
				k := v.Ints[i]
				if k < g.minInt[ai] {
					g.minInt[ai] = k
				}
				if k > g.maxInt[ai] {
					g.maxInt[ai] = k
				}
			}
		default:
			x := v.AsFloat(i)
			g.counts[ai]++
			switch a.Func {
			case plan.AggSum, plan.AggAvg:
				// Exact accumulation is the expensive path; only the
				// functions that emit it pay for it.
				g.sums[ai].Add(x)
			default:
				if x < g.mins[ai] {
					g.mins[ai] = x
				}
				if x > g.maxs[ai] {
					g.maxs[ai] = x
				}
			}
		}
	}
}

// merge folds another partial state for the same group into g. All
// supported aggregate functions are mergeable (plan.AggFunc.Mergeable):
// counts add, exact sums merge exactly, min/max combine. Each function
// only touches its own accumulator family (the others may be unallocated).
func (g *aggGroup) merge(o *aggGroup, aggs []plan.AggSpec) {
	for ai, a := range aggs {
		switch a.Func {
		case plan.AggCount:
			g.counts[ai] += o.counts[ai]
		case plan.AggSum, plan.AggAvg:
			if o.counts[ai] == 0 {
				continue
			}
			g.counts[ai] += o.counts[ai]
			g.sums[ai].Merge(&o.sums[ai])
		case plan.AggMin, plan.AggMax:
			if o.counts[ai] == 0 {
				continue
			}
			// Only the allocated families are merged; which one this
			// aggregate uses is fixed by its argument type.
			if g.minStr != nil {
				if g.counts[ai] == 0 {
					g.minStr[ai], g.maxStr[ai] = o.minStr[ai], o.maxStr[ai]
				} else {
					if o.minStr[ai] < g.minStr[ai] {
						g.minStr[ai] = o.minStr[ai]
					}
					if o.maxStr[ai] > g.maxStr[ai] {
						g.maxStr[ai] = o.maxStr[ai]
					}
				}
			}
			g.counts[ai] += o.counts[ai]
			if g.mins != nil {
				if o.mins[ai] < g.mins[ai] {
					g.mins[ai] = o.mins[ai]
				}
				if o.maxs[ai] > g.maxs[ai] {
					g.maxs[ai] = o.maxs[ai]
				}
			}
			if g.minInt != nil {
				if o.minInt[ai] < g.minInt[ai] {
					g.minInt[ai] = o.minInt[ai]
				}
				if o.maxInt[ai] > g.maxInt[ai] {
					g.maxInt[ai] = o.maxInt[ai]
				}
			}
		}
	}
}

// emitRow renders the group as an output row in schema order.
func (g *aggGroup) emitRow(aggs []plan.AggSpec, schema *types.Schema, nKeys int) []any {
	row := make([]any, 0, schema.Len())
	row = append(row, g.keys...)
	for ai, a := range aggs {
		idx := nKeys + ai
		switch a.Func {
		case plan.AggCount:
			row = append(row, g.counts[ai])
		case plan.AggSum:
			row = append(row, g.sums[ai].Round())
		case plan.AggAvg:
			if g.counts[ai] == 0 {
				row = append(row, 0.0)
			} else {
				row = append(row, g.sums[ai].Round()/float64(g.counts[ai]))
			}
		case plan.AggMin, plan.AggMax:
			switch schema.Columns[idx].Type {
			case types.String:
				if a.Func == plan.AggMin {
					row = append(row, g.minStr[ai])
				} else {
					row = append(row, g.maxStr[ai])
				}
			case types.Int:
				if a.Func == plan.AggMin {
					row = append(row, g.minInt[ai])
				} else {
					row = append(row, g.maxInt[ai])
				}
			default:
				if a.Func == plan.AggMin {
					row = append(row, g.mins[ai])
				} else {
					row = append(row, g.maxs[ai])
				}
			}
		}
	}
	return row
}
