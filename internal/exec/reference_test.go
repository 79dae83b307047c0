package exec

// The serial HashJoin and HashAggregate, moved here when the serial
// operator set left the production package: they are the independent
// oracles TestParallelJoinMatchesSerialReference, TestParallelJoinMatrix,
// FuzzHashJoin and TestParallelAggregateMatchesSerialReference compare
// the compiled pipelines against. HashJoin's map-based table is the one
// the flat join table replaced.

import (
	"context"
	"fmt"

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
// first-seen group order. Compilation now lowers plan.Aggregate to the
// two-phase ParallelHashAggregate; this operator remains as the reference
// implementation (it shares aggGroup, so the two cannot drift).
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

func (h *HashAggregate) emit() error {
	out := types.NewBatch(h.schema)
	for _, key := range h.order {
		st := h.groups[key]
		if err := out.AppendRow(st.emitRow(h.Aggs, h.schema, len(h.GroupBy))...); err != nil {
			return err
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
