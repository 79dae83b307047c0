package types

import (
	"fmt"
	"strings"
)

// DefaultBatchSize is the row count operators aim for per Batch. 4096 rows
// keeps column chunks within L2 while amortizing per-batch overheads, and is
// also the default inference batch size (paper §5, observation v).
const DefaultBatchSize = 4096

// Batch is a columnar chunk of rows flowing between operators.
type Batch struct {
	Schema *Schema
	Vecs   []*Vector
}

// NewBatch allocates an empty batch (zero rows) with the given schema.
func NewBatch(schema *Schema) *Batch {
	vecs := make([]*Vector, schema.Len())
	for i, c := range schema.Columns {
		vecs[i] = NewVector(c.Type, 0)
	}
	return &Batch{Schema: schema, Vecs: vecs}
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int {
	if len(b.Vecs) == 0 {
		return 0
	}
	return b.Vecs[0].Len()
}

// Col returns the vector for the named column, or nil if absent.
func (b *Batch) Col(name string) *Vector {
	i := b.Schema.IndexOf(name)
	if i < 0 {
		return nil
	}
	return b.Vecs[i]
}

// AppendRow appends one row given as raw Go values in schema order.
func (b *Batch) AppendRow(vals ...any) error {
	if len(vals) != len(b.Vecs) {
		return fmt.Errorf("types: row has %d values, schema has %d columns", len(vals), len(b.Vecs))
	}
	for i, v := range vals {
		if err := b.Vecs[i].Append(v); err != nil {
			return fmt.Errorf("column %q: %w", b.Schema.Columns[i].Name, err)
		}
	}
	return nil
}

// Row materializes row i as a slice of interface values.
func (b *Batch) Row(i int) []any {
	out := make([]any, len(b.Vecs))
	for j, v := range b.Vecs {
		out[j] = v.Value(i)
	}
	return out
}

// Slice returns a zero-copy view of rows [lo, hi).
func (b *Batch) Slice(lo, hi int) *Batch {
	vecs := make([]*Vector, len(b.Vecs))
	for i, v := range b.Vecs {
		vecs[i] = v.Slice(lo, hi)
	}
	return &Batch{Schema: b.Schema, Vecs: vecs}
}

// Gather returns a new batch with rows picked by sel, in order.
func (b *Batch) Gather(sel []int) *Batch {
	vecs := make([]*Vector, len(b.Vecs))
	for i, v := range b.Vecs {
		vecs[i] = v.Gather(sel)
	}
	return &Batch{Schema: b.Schema, Vecs: vecs}
}

// Project returns a batch view containing only the columns at ordinals idx.
func (b *Batch) Project(idx []int) *Batch {
	vecs := make([]*Vector, len(idx))
	for i, j := range idx {
		vecs[i] = b.Vecs[j]
	}
	return &Batch{Schema: b.Schema.Project(idx), Vecs: vecs}
}

// Grow reserves capacity for n additional rows in every column.
func (b *Batch) Grow(n int) {
	for _, v := range b.Vecs {
		v.Grow(n)
	}
}

// Append appends all rows of src (same schema arity) into b.
func (b *Batch) Append(src *Batch) error {
	if len(src.Vecs) != len(b.Vecs) {
		return fmt.Errorf("types: batch arity mismatch %d vs %d", len(src.Vecs), len(b.Vecs))
	}
	for i := range b.Vecs {
		if err := b.Vecs[i].AppendVector(src.Vecs[i]); err != nil {
			return err
		}
	}
	return nil
}

// String renders the batch as a small ASCII table (for tests and the CLI).
func (b *Batch) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(b.Schema.Names(), " | "))
	sb.WriteByte('\n')
	n := b.Len()
	for i := 0; i < n; i++ {
		parts := make([]string, len(b.Vecs))
		for j, v := range b.Vecs {
			parts[j] = fmt.Sprintf("%v", v.Value(i))
		}
		sb.WriteString(strings.Join(parts, " | "))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// NumericCols resolves the named columns to their vectors, once, for
// callers that read them as float64 features: FLOAT columns as they are,
// INT and BOOL widened.
func (b *Batch) NumericCols(names []string) ([]*Vector, error) {
	vecs := make([]*Vector, len(names))
	for j, name := range names {
		v := b.Col(name)
		if v == nil {
			return nil, fmt.Errorf("types: column %q not in batch schema %v", name, b.Schema)
		}
		if v.Type != Float && v.Type != Int && v.Type != Bool {
			return nil, fmt.Errorf("types: column %q has non-numeric type %v", name, v.Type)
		}
		vecs[j] = v
	}
	return vecs, nil
}

// FloatMatrix extracts the named columns into a flat row-major float64
// matrix (n rows × len(cols) features). This is the bridge from relational
// batches to ML feature matrices.
func (b *Batch) FloatMatrix(cols []string) ([]float64, int, error) {
	vecs, err := b.NumericCols(cols)
	if err != nil {
		return nil, 0, err
	}
	n := b.Len()
	out := make([]float64, n*len(cols))
	for j, v := range vecs {
		if n > 0 {
			v.WidenInto(out[j:], len(vecs))
		}
	}
	return out, n, nil
}
