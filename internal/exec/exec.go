// Package exec is the vectorized morsel-pipeline executor. Per-row work
// (scan, filter, project, PREDICT, join probe) runs in exactly one shape:
// an Exchange — a MorselSource, a chain of Stages and a degree of
// parallelism. At DOP 1, and for scans below the parallel threshold, the
// pipeline runs inline on the caller's goroutine, one morsel per Next; at
// DOP > 1 the same source and stages run on worker goroutines whose
// results merge back into source order (SQL Server auto-parallelizing scan
// and PREDICT, paper §5 observation iii). Pipeline breakers (join build,
// aggregate, sort) and the ordered operators (LIMIT, DISTINCT) consume one
// pipeline and feed the next through a StreamMorselSource.
package exec

import (
	"cmp"

	"raven/internal/types"
)

// Operator is a physical operator. Next returns nil at end of stream.
type Operator interface {
	Open() error
	Next() (*types.Batch, error)
	Close() error
	Schema() *types.Schema
}

// Predictor scores batches; the runtime package provides the
// implementations.
// Implementations must be safe for concurrent PredictBatch calls: one
// predictor instance is shared by all workers of a morsel-parallel plan.
type Predictor interface {
	// PredictBatch returns one output vector per declared output column.
	PredictBatch(b *types.Batch) ([]*types.Vector, error)
}

// SelectPredictor is a Predictor that may leave rows out: PredictSelect
// returns the rows it kept, in order (nil keeps every row), and one output
// vector per declared column over the kept rows alone.
type SelectPredictor interface {
	PredictSelect(b *types.Batch) (keep []int, outs []*types.Vector, err error)
}

// LimitOp truncates the stream after N rows.
type LimitOp struct {
	Child Operator
	N     int
	seen  int
}

// Schema implements Operator.
func (l *LimitOp) Schema() *types.Schema { return l.Child.Schema() }

// Open implements Operator.
func (l *LimitOp) Open() error { l.seen = 0; return l.Child.Open() }

// Close implements Operator.
func (l *LimitOp) Close() error { return l.Child.Close() }

// Next implements Operator.
func (l *LimitOp) Next() (*types.Batch, error) {
	if l.seen >= l.N {
		return nil, nil
	}
	b, err := l.Child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	if l.seen+b.Len() > l.N {
		b = b.Slice(0, l.N-l.seen)
	}
	l.seen += b.Len()
	return b, nil
}

// Collect drains an operator into a single batch (for results and tests).
func Collect(op Operator) (*types.Batch, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	out := types.NewBatch(op.Schema())
	for {
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

// compareVecs compares row i of a with row j of b (same type). INT keys
// compare as int64 — going through AsFloat would collapse keys above
// 2^53 into equality and mis-sort large surrogate keys. NaN floats sort
// before every other value (cmp.Compare's order, like sort.Float64s): the
// comparator must be a total order or run merging would emit rows in
// morsel-boundary-dependent positions around NaNs, breaking the any-DOP
// parity guarantee.
func compareVecs(a *types.Vector, i int, b *types.Vector, j int) int {
	switch a.Type {
	case types.String:
		return cmp.Compare(a.Strings[i], b.Strings[j])
	case types.Int:
		return cmp.Compare(a.Ints[i], b.Ints[j])
	default:
		return cmp.Compare(a.AsFloat(i), b.AsFloat(j))
	}
}

// DistinctOp removes duplicate rows (hash-based, materializing keys only).
// Rows are keyed with the aggregation paths' typed, length-prefixed
// appendGroupKey, so values containing a delimiter, and NULL versus the
// string "<nil>", stay distinct.
type DistinctOp struct {
	Child Operator
	seen  map[string]bool
	cols  []int // every column ordinal: the whole row is the key
}

// Schema implements Operator.
func (d *DistinctOp) Schema() *types.Schema { return d.Child.Schema() }

// Open implements Operator.
func (d *DistinctOp) Open() error {
	d.seen = make(map[string]bool)
	d.cols = make([]int, d.Child.Schema().Len())
	for i := range d.cols {
		d.cols[i] = i
	}
	return d.Child.Open()
}

// Close implements Operator.
func (d *DistinctOp) Close() error { return d.Child.Close() }

// Next implements Operator.
func (d *DistinctOp) Next() (*types.Batch, error) {
	for {
		b, err := d.Child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		var sel []int
		var scratch []byte
		for i := 0; i < b.Len(); i++ {
			scratch = appendGroupKey(scratch, b, d.cols, i)
			if !d.seen[string(scratch)] {
				d.seen[string(scratch)] = true
				sel = append(sel, i)
			}
		}
		if len(sel) == 0 {
			continue
		}
		return b.Gather(sel), nil
	}
}
