package ml

import (
	"fmt"
	"math"
	"sort"
)

// LinearRegression predicts W·x + B.
type LinearRegression struct {
	W []float64
	B float64
}

// NumFeatures implements Model.
func (m *LinearRegression) NumFeatures() int { return len(m.W) }

// Kind implements Model.
func (m *LinearRegression) Kind() string { return "linreg" }

// Predict implements Model.
func (m *LinearRegression) Predict(in Matrix) ([]float64, error) { return predictAlloc(m, in) }

// PredictInto implements ModelInto.
func (m *LinearRegression) PredictInto(in Matrix, out []float64, _ *PredictScratch) error {
	return affineInto("linreg", m.W, m.B, in, out)
}

// affineInto writes b + w·x for every row x of in: the arithmetic linear
// and logistic regression share, in one order of operations.
func affineInto(kind string, w []float64, b float64, in Matrix, out []float64) error {
	if in.Cols != len(w) {
		return fmt.Errorf("ml: %s expects %d features, got %d", kind, len(w), in.Cols)
	}
	for i := 0; i < in.Rows; i++ {
		row := in.Row(i)
		s := b
		for j, wj := range w {
			s += wj * row[j]
		}
		out[i] = s
	}
	return nil
}

// UsedFeatures implements Model: features with non-zero weight.
func (m *LinearRegression) UsedFeatures() []int { return nonZero(m.W) }

// LogisticRegression predicts sigmoid(W·x + B), the class-1 probability.
type LogisticRegression struct {
	W []float64
	B float64
}

// NumFeatures implements Model.
func (m *LogisticRegression) NumFeatures() int { return len(m.W) }

// Kind implements Model.
func (m *LogisticRegression) Kind() string { return "logreg" }

// Predict implements Model.
func (m *LogisticRegression) Predict(in Matrix) ([]float64, error) { return predictAlloc(m, in) }

// PredictInto implements ModelInto.
func (m *LogisticRegression) PredictInto(in Matrix, out []float64, _ *PredictScratch) error {
	if err := affineInto("logreg", m.W, m.B, in, out); err != nil {
		return err
	}
	for i, s := range out[:in.Rows] {
		out[i] = 1 / (1 + math.Exp(-s))
	}
	return nil
}

// UsedFeatures implements Model: features with non-zero weight.
func (m *LogisticRegression) UsedFeatures() []int { return nonZero(m.W) }

// Sparsity returns the fraction of zero weights — the quantity the paper
// reports for its L1-regularized flight-delay models (41.75% and 80.96%,
// §4.1 model-projection pushdown).
func (m *LogisticRegression) Sparsity() float64 {
	if len(m.W) == 0 {
		return 0
	}
	zeros := 0
	for _, w := range m.W {
		if w == 0 {
			zeros++
		}
	}
	return float64(zeros) / float64(len(m.W))
}

// Compact drops zero-weight features and returns the narrowed model plus
// the kept input ordinals (the projection list pushed into the data side).
func (m *LogisticRegression) Compact() (*LogisticRegression, []int) {
	kept := nonZero(m.W)
	w := make([]float64, len(kept))
	for i, j := range kept {
		w[i] = m.W[j]
	}
	return &LogisticRegression{W: w, B: m.B}, kept
}

// PinFeatures folds known-constant features into the bias and drops them:
// the logistic-regression analogue of predicate-based pruning for one-hot
// encoded categorical features (§4.1). values maps feature ordinal to its
// constant. Returns the narrowed model and the kept input ordinals.
func (m *LogisticRegression) PinFeatures(values map[int]float64) (*LogisticRegression, []int) {
	b := m.B
	var kept []int
	var w []float64
	for j, wj := range m.W {
		if v, ok := values[j]; ok {
			b += wj * v
			continue
		}
		kept = append(kept, j)
		w = append(w, wj)
	}
	return &LogisticRegression{W: w, B: b}, kept
}

func nonZero(w []float64) []int {
	var out []int
	for j, x := range w {
		if x != 0 {
			out = append(out, j)
		}
	}
	sort.Ints(out)
	return out
}

// MLP is a fitted multi-layer perceptron with ReLU hidden layers. Weights
// are row-major (in × out); the final layer output passes through sigmoid
// when Classifier is true.
type MLP struct {
	// Weights[l] has Dims[l] × Dims[l+1] entries.
	Weights [][]float64
	Biases  [][]float64
	Dims    []int
	// Classifier applies a sigmoid on the (single) output.
	Classifier bool
}

// NumFeatures implements Model.
func (m *MLP) NumFeatures() int {
	if len(m.Dims) == 0 {
		return 0
	}
	return m.Dims[0]
}

// Kind implements Model.
func (m *MLP) Kind() string { return "mlp" }

// Predict implements Model. The final layer must have width 1.
func (m *MLP) Predict(in Matrix) ([]float64, error) {
	if len(m.Dims) < 2 {
		return nil, fmt.Errorf("ml: mlp needs at least one layer")
	}
	if in.Cols != m.Dims[0] {
		return nil, fmt.Errorf("ml: mlp expects %d features, got %d", m.Dims[0], in.Cols)
	}
	if m.Dims[len(m.Dims)-1] != 1 {
		return nil, fmt.Errorf("ml: mlp Predict needs single output, has %d", m.Dims[len(m.Dims)-1])
	}
	cur := in.Data
	rows := in.Rows
	for l := 0; l < len(m.Weights); l++ {
		din, dout := m.Dims[l], m.Dims[l+1]
		next := make([]float64, rows*dout)
		w, b := m.Weights[l], m.Biases[l]
		for i := 0; i < rows; i++ {
			xrow := cur[i*din : (i+1)*din]
			orow := next[i*dout : (i+1)*dout]
			copy(orow, b)
			for p := 0; p < din; p++ {
				x := xrow[p]
				if x == 0 {
					continue
				}
				wrow := w[p*dout : (p+1)*dout]
				for j := range wrow {
					orow[j] += x * wrow[j]
				}
			}
			if l < len(m.Weights)-1 {
				for j := range orow {
					if orow[j] < 0 {
						orow[j] = 0
					}
				}
			}
		}
		cur = next
	}
	out := make([]float64, rows)
	copy(out, cur)
	if m.Classifier {
		for i, x := range out {
			out[i] = 1 / (1 + math.Exp(-x))
		}
	}
	return out, nil
}

// UsedFeatures implements Model: inputs whose first-layer weights are not
// all zero.
func (m *MLP) UsedFeatures() []int {
	if len(m.Weights) == 0 {
		return nil
	}
	din, dout := m.Dims[0], m.Dims[1]
	var out []int
	for p := 0; p < din; p++ {
		row := m.Weights[0][p*dout : (p+1)*dout]
		for _, w := range row {
			if w != 0 {
				out = append(out, p)
				break
			}
		}
	}
	return out
}
