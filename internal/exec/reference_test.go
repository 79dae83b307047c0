package exec

// The serial HashJoin and HashAggregate, moved here when the serial
// operator set left the production package: they are the independent
// oracles TestParallelJoinMatchesSerialReference, TestParallelJoinMatrix,
// FuzzHashJoin, TestParallelAggregateMatchesSerialReference and
// TestAggregateKeyMatrix compare the compiled pipelines against.
// HashJoin's map-based table is the one the flat join table replaced, and
// HashAggregate's row-at-a-time aggGroup the one aggTable replaced.

import (
	"context"
	"fmt"
	"math"

	"raven/internal/plan"
	"raven/internal/types"
)

// HashJoin is the serial inner equi-join: build on the right input, probe
// with the left. The output drops the right key column (matching
// plan.Join). Compilation now lowers plan.Join to ParallelHashJoin (which
// degrades to one worker at DOP 1); HashJoin remains as the reference
// implementation the parity tests compare against.
type HashJoin struct {
	Left, Right       Operator
	LeftCol, RightCol string
	// Ctx cancels the build and probe phases between batches.
	Ctx context.Context

	schema   *types.Schema
	leftIdx  int
	rightIdx int
	// built maps key to row ordinals in the materialized right side.
	// builtInt is the allocation-free fast path for INT keys (the common
	// case: surrogate-key joins); built handles everything else.
	built    map[any][]int
	builtInt map[int64][]int32
	rightAll *types.Batch
	rightSel []int // right columns kept in output order
}

// NewHashJoin builds the operator and resolves key ordinals.
func NewHashJoin(left, right Operator, leftCol, rightCol string) (*HashJoin, error) {
	li := left.Schema().IndexOf(leftCol)
	if li < 0 {
		return nil, fmt.Errorf("exec: join key %q not in left schema", leftCol)
	}
	schema, rightSel, ri, err := joinOutputSchema(left.Schema(), right.Schema(), rightCol)
	if err != nil {
		return nil, err
	}
	return &HashJoin{
		Left: left, Right: right, LeftCol: leftCol, RightCol: rightCol,
		schema: schema, leftIdx: li, rightIdx: ri, rightSel: rightSel,
	}, nil
}

// Schema implements Operator.
func (j *HashJoin) Schema() *types.Schema { return j.schema }

// Open implements Operator: materialize and hash the right input.
func (j *HashJoin) Open() error {
	all, err := CollectContext(j.Ctx, j.Right)
	if err != nil {
		return err
	}
	j.rightAll = all
	kv := all.Vecs[j.rightIdx]
	// A NULL key matches nothing, so it is never tabled.
	if kv.Type == types.Int {
		j.builtInt = make(map[int64][]int32, all.Len())
		for i := 0; i < all.Len(); i++ {
			if kv.IsNull(i) {
				continue
			}
			k := kv.Ints[i]
			j.builtInt[k] = append(j.builtInt[k], int32(i))
		}
	} else {
		j.built = make(map[any][]int, all.Len())
		for i := 0; i < all.Len(); i++ {
			if kv.IsNull(i) {
				continue
			}
			k := kv.Value(i)
			j.built[k] = append(j.built[k], i)
		}
	}
	return j.Left.Open()
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.built = nil
	j.builtInt = nil
	j.rightAll = nil
	return j.Left.Close()
}

// Next implements Operator.
func (j *HashJoin) Next() (*types.Batch, error) {
	for {
		if err := ctxErr(j.Ctx); err != nil {
			return nil, err
		}
		b, err := j.Left.Next()
		if err != nil || b == nil {
			return nil, err
		}
		kv := b.Vecs[j.leftIdx]
		lp, rp := getSel(), getSel()
		leftSel, rightSel := (*lp)[:0], (*rp)[:0]
		if j.builtInt != nil && kv.Type == types.Int {
			for i, k := range kv.Ints {
				if kv.IsNull(i) {
					continue
				}
				for _, r := range j.builtInt[k] {
					leftSel = append(leftSel, i)
					rightSel = append(rightSel, int(r))
				}
			}
		} else {
			for i := 0; i < b.Len(); i++ {
				if kv.IsNull(i) {
					continue
				}
				for _, r := range j.built[kv.Value(i)] {
					leftSel = append(leftSel, i)
					rightSel = append(rightSel, r)
				}
			}
		}
		if len(leftSel) == 0 {
			*lp, *rp = leftSel, rightSel
			putSel(lp)
			putSel(rp)
			continue
		}
		lpart := b.Gather(leftSel)
		rpart := j.rightAll.Gather(rightSel).Project(j.rightSel)
		*lp, *rp = leftSel, rightSel
		putSel(lp)
		putSel(rp)
		vecs := make([]*types.Vector, 0, len(lpart.Vecs)+len(rpart.Vecs))
		vecs = append(vecs, lpart.Vecs...)
		vecs = append(vecs, rpart.Vecs...)
		return &types.Batch{Schema: j.schema, Vecs: vecs}, nil
	}
}

// HashAggregate is the serial grouped aggregation, emitting one batch in
// first-seen group order: every row's key rendered by appendGroupKey and
// looked up in one map, then folded by aggGroup.observe. Compilation
// lowers plan.Aggregate to the two-phase ParallelHashAggregate; this
// operator remains as the reference implementation.
type HashAggregate struct {
	Child   Operator
	GroupBy []string
	Aggs    []plan.AggSpec
	// Ctx cancels the aggregation between input batches.
	Ctx context.Context

	schema *types.Schema
	groups map[string]*aggGroup
	order  []string
	out    *types.Batch
	done   bool
}

// NewHashAggregate builds the operator; schema mirrors plan.NewAggregate.
func NewHashAggregate(child Operator, groupBy []string, aggs []plan.AggSpec) (*HashAggregate, error) {
	schema, err := aggOutputSchema(child.Schema(), groupBy, aggs)
	if err != nil {
		return nil, err
	}
	return &HashAggregate{Child: child, GroupBy: groupBy, Aggs: aggs, schema: schema}, nil
}

// Schema implements Operator.
func (h *HashAggregate) Schema() *types.Schema { return h.schema }

// Open implements Operator: consume the child and aggregate.
func (h *HashAggregate) Open() error {
	h.done = false
	h.groups = make(map[string]*aggGroup)
	h.order = nil
	if err := h.Child.Open(); err != nil {
		return err
	}
	defer h.Child.Close()

	keyIdx := make([]int, len(h.GroupBy))
	for i, g := range h.GroupBy {
		keyIdx[i] = h.Child.Schema().IndexOf(g)
	}
	fam := aggFamiliesOf(h.Aggs, h.Child.Schema())
	argVals := make([]*types.Vector, len(h.Aggs))
	var scratch []byte
	for {
		if err := ctxErr(h.Ctx); err != nil {
			return err
		}
		b, err := h.Child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if err := evalAggArgs(argVals, h.Aggs, b); err != nil {
			return err
		}
		for i := 0; i < b.Len(); i++ {
			scratch = appendGroupKey(scratch, b, keyIdx, i)
			// The compiler elides the string conversion in a map lookup, so
			// existing groups (the per-row common case) cost zero
			// allocations; the key string materializes only on insert.
			st, ok := h.groups[string(scratch)]
			if !ok {
				key := string(scratch)
				st = newAggGroup(len(keyIdx), h.Aggs, fam)
				for k, ki := range keyIdx {
					st.keys[k] = b.Vecs[ki].Value(i)
				}
				h.groups[key] = st
				h.order = append(h.order, key)
			}
			st.observe(h.Aggs, argVals, i)
		}
		putAggArgs(argVals, h.Aggs)
	}
	return h.emit()
}

// emit renders the groups; a scalar aggregate over no rows is one row of
// COUNT 0 and NULLs.
func (h *HashAggregate) emit() error {
	out := types.NewBatch(h.schema)
	var rows [][]any
	for _, key := range h.order {
		rows = append(rows, h.groups[key].emitRow(h.Aggs, h.schema, len(h.GroupBy)))
	}
	if len(rows) == 0 && len(h.GroupBy) == 0 {
		row := make([]any, len(h.Aggs))
		for a, spec := range h.Aggs {
			if spec.Func == plan.AggCount {
				row[a] = int64(0)
			}
		}
		rows = append(rows, row)
	}
	for _, row := range rows {
		for c, x := range row {
			v := out.Vecs[c]
			if x == nil { // a NULL key or aggregate: a zero slot, marked NULL
				v.AppendFrom(types.NewVector(v.Type, 1), 0)
				v.SetNull(v.Len() - 1)
			} else if err := v.Append(x); err != nil {
				return err
			}
		}
	}
	h.out = out
	h.groups = nil
	h.order = nil
	return nil
}

// Next implements Operator.
func (h *HashAggregate) Next() (*types.Batch, error) {
	if h.done {
		return nil, nil
	}
	h.done = true
	return h.out, nil
}

// Close implements Operator.
func (h *HashAggregate) Close() error {
	h.out = nil
	return nil
}

// CollectContext drains op into a single batch, polling ctx between
// batches: how the reference join materializes its build side.
func CollectContext(ctx context.Context, op Operator) (*types.Batch, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	out := types.NewBatch(op.Schema())
	for {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		if err := out.Append(b); err != nil {
			return nil, err
		}
	}
}

// aggGroup accumulates all aggregates for one group, a row at a time: the
// fold the column-at-a-time aggTable replaced. SUM/AVG use exact float
// accumulation; MIN/MAX keep a typed int64 path so INT values above 2^53
// do not collapse through float64.
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
