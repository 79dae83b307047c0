package ml

import (
	"fmt"
	"math"
)

// StandardScaler centers and scales every input column: (x - Mean) / Scale.
// Zero Scale entries pass through unscaled (constant columns), matching
// scikit-learn's behaviour.
type StandardScaler struct {
	Mean  []float64
	Scale []float64
}

// FitScaler computes per-column mean and standard deviation.
func FitScaler(in Matrix) *StandardScaler {
	d := in.Cols
	s := &StandardScaler{Mean: make([]float64, d), Scale: make([]float64, d)}
	n := float64(in.Rows)
	if n == 0 {
		for j := range s.Scale {
			s.Scale[j] = 1
		}
		return s
	}
	for i := 0; i < in.Rows; i++ {
		row := in.Row(i)
		for j, x := range row {
			s.Mean[j] += x
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for i := 0; i < in.Rows; i++ {
		row := in.Row(i)
		for j, x := range row {
			dx := x - s.Mean[j]
			s.Scale[j] += dx * dx
		}
	}
	for j := range s.Scale {
		s.Scale[j] = math.Sqrt(s.Scale[j] / n)
		if s.Scale[j] == 0 {
			s.Scale[j] = 1
		}
	}
	return s
}

// Transform implements Transformer.
func (s *StandardScaler) Transform(in Matrix) (Matrix, error) { return transformAlloc(s, in) }

// TransformInto implements TransformerInto. dst may alias in.Data (the op
// is elementwise).
func (s *StandardScaler) TransformInto(in Matrix, dst []float64) (Matrix, error) {
	if in.Cols != len(s.Mean) {
		return Matrix{}, fmt.Errorf("ml: scaler fitted on %d cols, input has %d", len(s.Mean), in.Cols)
	}
	for i := 0; i < in.Rows; i++ {
		row := in.Row(i)
		orow := dst[i*in.Cols : (i+1)*in.Cols]
		for j, x := range row {
			orow[j] = (x - s.Mean[j]) / s.Scale[j]
		}
	}
	return Matrix{Data: dst[:in.Rows*in.Cols], Rows: in.Rows, Cols: in.Cols}, nil
}

// OutputDim implements Transformer.
func (s *StandardScaler) OutputDim(d int) (int, error) {
	if d != len(s.Mean) {
		return 0, fmt.Errorf("ml: scaler fitted on %d cols, input has %d", len(s.Mean), d)
	}
	return d, nil
}

// Kind implements Transformer.
func (s *StandardScaler) Kind() string { return "scaler" }

// OneHotEncoder expands categorical columns (given by ordinal) into
// indicator blocks; non-categorical columns pass through in their original
// relative order, before the indicator blocks (matching a ColumnTransformer
// with passthrough remainder placed first).
type OneHotEncoder struct {
	// Cols are the input column ordinals that are categorical.
	Cols []int
	// Categories[i] lists the category values (as float codes) of Cols[i];
	// an input value equal to Categories[i][k] lights indicator k.
	Categories [][]float64
	// InputDim is the fitted input width (0 when hand-built, in which case
	// consumers infer the width from usage).
	InputDim int
}

// FitOneHot scans the matrix and collects the distinct values of each
// categorical column, sorted ascending.
func FitOneHot(in Matrix, cols []int) *OneHotEncoder {
	enc := &OneHotEncoder{Cols: append([]int(nil), cols...), InputDim: in.Cols}
	for _, c := range cols {
		seen := make(map[float64]bool)
		for i := 0; i < in.Rows; i++ {
			seen[in.At(i, c)] = true
		}
		var cats []float64
		for v := range seen {
			cats = append(cats, v)
		}
		// insertion sort (small category sets)
		for i := 1; i < len(cats); i++ {
			for j := i; j > 0 && cats[j] < cats[j-1]; j-- {
				cats[j], cats[j-1] = cats[j-1], cats[j]
			}
		}
		enc.Categories = append(enc.Categories, cats)
	}
	return enc
}

func (e *OneHotEncoder) isCategorical(col int) int {
	for i, c := range e.Cols {
		if c == col {
			return i
		}
	}
	return -1
}

// OutputDim implements Transformer.
func (e *OneHotEncoder) OutputDim(d int) (int, error) {
	out := d - len(e.Cols)
	if out < 0 {
		return 0, fmt.Errorf("ml: onehot has %d categorical cols, input only %d", len(e.Cols), d)
	}
	for _, cats := range e.Categories {
		out += len(cats)
	}
	return out, nil
}

// Transform implements Transformer.
func (e *OneHotEncoder) Transform(in Matrix) (Matrix, error) { return transformAlloc(e, in) }

// TransformInto implements TransformerInto. dst must not alias in.Data
// (the encoding widens rows).
func (e *OneHotEncoder) TransformInto(in Matrix, dst []float64) (Matrix, error) {
	outD, err := e.OutputDim(in.Cols)
	if err != nil {
		return Matrix{}, err
	}
	for _, c := range e.Cols {
		if c >= in.Cols {
			return Matrix{}, fmt.Errorf("ml: onehot col %d out of range (input width %d)", c, in.Cols)
		}
	}
	out := dst[:in.Rows*outD]
	for i := range out {
		out[i] = 0
	}
	// layout: passthrough columns first (original order), then one
	// indicator block per categorical column in e.Cols order.
	for i := 0; i < in.Rows; i++ {
		row := in.Row(i)
		orow := out[i*outD : (i+1)*outD]
		pos := 0
		for j, x := range row {
			if e.isCategorical(j) < 0 {
				orow[pos] = x
				pos++
			}
		}
		for ci, c := range e.Cols {
			cats := e.Categories[ci]
			x := row[c]
			for k, v := range cats {
				if x == v {
					orow[pos+k] = 1
					break
				}
			}
			pos += len(cats)
		}
	}
	return Matrix{Data: out, Rows: in.Rows, Cols: outD}, nil
}

// Kind implements Transformer.
func (e *OneHotEncoder) Kind() string { return "onehot" }

// OutputIndexOfCategory returns the output ordinal of the indicator for
// (inputCol, category). Used by predicate-based pruning: a selection
// "dest = X" pins that indicator to 1 and all siblings to 0 (paper §4.1).
// inputDim is the width of the encoder's input.
func (e *OneHotEncoder) OutputIndexOfCategory(inputDim, inputCol int, category float64) (int, error) {
	lo, _, err := e.IndicatorRange(inputDim, inputCol)
	if err != nil {
		return -1, err
	}
	for k, v := range e.Categories[e.isCategorical(inputCol)] {
		if v == category {
			return lo + k, nil
		}
	}
	return -1, fmt.Errorf("ml: category %v unknown for column %d", category, inputCol)
}

// IndicatorRange returns the [lo, hi) output ordinals of inputCol's
// indicator block.
func (e *OneHotEncoder) IndicatorRange(inputDim, inputCol int) (lo, hi int, err error) {
	ci := e.isCategorical(inputCol)
	if ci < 0 {
		return 0, 0, fmt.Errorf("ml: column %d is not categorical", inputCol)
	}
	pos := inputDim - len(e.Cols)
	for k := 0; k < ci; k++ {
		pos += len(e.Categories[k])
	}
	return pos, pos + len(e.Categories[ci]), nil
}

// PassthroughOutputIndex maps a non-categorical input column to its output
// ordinal.
func (e *OneHotEncoder) PassthroughOutputIndex(inputCol int) (int, error) {
	if e.isCategorical(inputCol) >= 0 {
		return -1, fmt.Errorf("ml: column %d is categorical, not passthrough", inputCol)
	}
	pos := 0
	for j := 0; j < inputCol; j++ {
		if e.isCategorical(j) < 0 {
			pos++
		}
	}
	return pos, nil
}

// ColumnSelect projects a subset of input columns, in the given order. The
// cross optimizer inserts these when model-projection pushdown drops
// features.
type ColumnSelect struct {
	Indices []int
}

// Transform implements Transformer.
func (c *ColumnSelect) Transform(in Matrix) (Matrix, error) { return transformAlloc(c, in) }

// TransformInto implements TransformerInto. dst must not alias in.Data.
func (c *ColumnSelect) TransformInto(in Matrix, dst []float64) (Matrix, error) {
	for _, j := range c.Indices {
		if j < 0 || j >= in.Cols {
			return Matrix{}, fmt.Errorf("ml: select index %d out of range (width %d)", j, in.Cols)
		}
	}
	out := dst[:in.Rows*len(c.Indices)]
	for i := 0; i < in.Rows; i++ {
		row := in.Row(i)
		orow := out[i*len(c.Indices) : (i+1)*len(c.Indices)]
		for k, j := range c.Indices {
			orow[k] = row[j]
		}
	}
	return Matrix{Data: out, Rows: in.Rows, Cols: len(c.Indices)}, nil
}

// OutputDim implements Transformer.
func (c *ColumnSelect) OutputDim(d int) (int, error) { return len(c.Indices), nil }

// Kind implements Transformer.
func (c *ColumnSelect) Kind() string { return "select" }

// FeatureUnion applies each part to the same input and concatenates the
// outputs column-wise — scikit-learn's FeatureUnion, used by the paper's
// running example (Fig 1).
type FeatureUnion struct {
	Parts []Transformer
}

// Transform implements Transformer.
func (u *FeatureUnion) Transform(in Matrix) (Matrix, error) {
	outs := make([]Matrix, len(u.Parts))
	total := 0
	for i, p := range u.Parts {
		o, err := p.Transform(in)
		if err != nil {
			return Matrix{}, fmt.Errorf("ml: union part %d (%s): %w", i, p.Kind(), err)
		}
		outs[i] = o
		total += o.Cols
	}
	data := make([]float64, in.Rows*total)
	for i := 0; i < in.Rows; i++ {
		pos := i * total
		for _, o := range outs {
			copy(data[pos:pos+o.Cols], o.Row(i))
			pos += o.Cols
		}
	}
	return Matrix{Data: data, Rows: in.Rows, Cols: total}, nil
}

// OutputDim implements Transformer.
func (u *FeatureUnion) OutputDim(d int) (int, error) {
	total := 0
	for _, p := range u.Parts {
		o, err := p.OutputDim(d)
		if err != nil {
			return 0, err
		}
		total += o
	}
	return total, nil
}

// Kind implements Transformer.
func (u *FeatureUnion) Kind() string { return "union" }
