// Package ml implements the classical ("MLD") machine-learning operators
// and featurizers of the paper's unified IR: decision trees, tree
// ensembles, linear and logistic regression, multi-layer perceptrons, and
// the scikit-learn-style featurizers (scaling, one-hot encoding, feature
// union) composed into Pipelines. This package is the reproduction's
// stand-in for scikit-learn: featurizers run as per-step passes over a
// row-major matrix, the way an interpreted classical framework runs them
// (the baseline the paper's operator transformations beat, §4.2), while
// trees and forests score through one compiled kernel (kernel.go): packed
// nodes, a block of rows partitioned node by node so that no row steps
// past its leaf, no data-dependent branch — the "engine owns the model"
// half of the paper's §5 claim.
package ml

import (
	"fmt"
)

// Matrix is a flat row-major feature matrix: n rows of d features.
type Matrix struct {
	Data []float64
	Rows int
	Cols int
}

// NewMatrix wraps data as an n×d matrix.
func NewMatrix(data []float64, rows, cols int) (Matrix, error) {
	if len(data) != rows*cols {
		return Matrix{}, fmt.Errorf("ml: matrix %dx%d needs %d elems, got %d", rows, cols, rows*cols, len(data))
	}
	return Matrix{Data: data, Rows: rows, Cols: cols}, nil
}

// Row returns a view of row i.
func (m Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// At returns element (i, j).
func (m Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Transformer is a fitted featurization step: it maps an input matrix to an
// output matrix with possibly different width.
type Transformer interface {
	// Transform applies the step.
	Transform(in Matrix) (Matrix, error)
	// OutputDim reports the output width for a given input width.
	OutputDim(inputDim int) (int, error)
	// Kind names the step type ("scaler", "onehot", ...).
	Kind() string
}

// Model is a fitted predictor over a feature matrix.
type Model interface {
	// Predict returns one score per row: the predicted regression value,
	// or for classifiers the positive-class probability (binary) /
	// predicted label (multi-class trees).
	Predict(in Matrix) ([]float64, error)
	// NumFeatures is the expected input width.
	NumFeatures() int
	// UsedFeatures returns the sorted set of input feature indices the
	// model actually reads. Model-projection pushdown (paper §4.1) keys
	// off this: anything absent can be projected out upstream.
	UsedFeatures() []int
	// Kind names the model type ("tree", "forest", "logreg", ...).
	Kind() string
}

// Pipeline is a fitted chain of featurizers ending in a model — the "model
// pipeline" unit the paper stores in the database (§1).
type Pipeline struct {
	Steps []Transformer
	Final Model
	// InputColumns names the relational columns the pipeline consumes, in
	// order. The static analyzer fills this so the optimizer can relate
	// model features back to table columns.
	InputColumns []string
}

// Predict featurizes and scores the matrix: PredictInto with a fresh
// score slice and scratch.
func (p *Pipeline) Predict(in Matrix) ([]float64, error) {
	out := make([]float64, in.Rows)
	if err := p.PredictInto(in, out, &PredictScratch{}); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictScratch carries the reusable buffers behind PredictInto. A
// scratch serves one goroutine at a time; concurrent predictors keep one
// per worker (typically via a sync.Pool).
type PredictScratch struct {
	bufs   [2][]float64 // ping-pong buffers for featurizer outputs
	next   int
	cols   [][]float64 // a matrix's features as columns, for the tree kernel
	block  []float64   // what cols views
	live   []uint16    // the tree kernel's rows of a block still in play
	part   [2][]uint16 // its ping-pong partition buffers
	stack  []segment   // its walk's pending segments
	acc    []float64   // PredictColumnsTopK's sums of a block
	matrix []float64   // PredictColumns' row-major chunk
	heap   keyHeap     // PredictColumnsTopK's best keys of the call
}

// buffer returns a scratch slice of length n, alternating between two
// backing arrays so a step's input never aliases its output.
func (sc *PredictScratch) buffer(n int) []float64 {
	b := &sc.bufs[sc.next]
	sc.next = 1 - sc.next
	if cap(*b) < n {
		*b = make([]float64, n)
	}
	return (*b)[:n]
}

// TransformerInto is an optional Transformer extension: write the
// transformed matrix into dst (length rows × output width) instead of
// allocating a fresh one. dst must not alias in.Data unless the step is
// elementwise.
type TransformerInto interface {
	TransformInto(in Matrix, dst []float64) (Matrix, error)
}

// transformAlloc is Transform for a step that has an Into form: the same
// code writing into a fresh matrix.
func transformAlloc(s interface {
	Transformer
	TransformerInto
}, in Matrix) (Matrix, error) {
	d, err := s.OutputDim(in.Cols)
	if err != nil {
		return Matrix{}, err
	}
	return s.TransformInto(in, make([]float64, in.Rows*d))
}

// ModelInto is an optional Model extension: score into out (length
// in.Rows), using sc for internal temporaries.
type ModelInto interface {
	PredictInto(in Matrix, out []float64, sc *PredictScratch) error
}

// predictAlloc is Predict for a model that has an Into form: the same code
// writing into a fresh score slice.
func predictAlloc(m ModelInto, in Matrix) ([]float64, error) {
	out := make([]float64, in.Rows)
	if err := m.PredictInto(in, out, &PredictScratch{}); err != nil {
		return nil, err
	}
	return out, nil
}

// chunkBytes bounds the row-major matrix PredictColumns gathers for a
// pipeline that needs one (~L2-sized), and with it every featurizer
// intermediate, however large the batch.
const chunkBytes = 256 << 10

// PredictColumns scores rows whose features arrive one slice per input
// column, each at least len(out) long — the layout relational batches
// already have. A tree or forest with no featurizer steps in front reads
// the columns as they are; any other pipeline is fed row-major chunks
// gathered from them. Scores equal Predict's on the same values bit for bit.
func (p *Pipeline) PredictColumns(cols [][]float64, out []float64, sc *PredictScratch) error {
	if m, ok := p.Final.(kernelled); ok && len(p.Steps) == 0 {
		k, err := m.kernel()
		if err != nil {
			return err
		}
		return k.score(cols, out, sc)
	}
	return chunks(cols, len(out), sc, func(lo int, m Matrix) error { return p.PredictInto(m, out[lo:lo+m.Rows], sc) })
}

// chunks gathers rows 0..n-1 of cols into row-major chunks of at most
// chunkBytes and hands each to fn with its first row.
func chunks(cols [][]float64, n int, sc *PredictScratch, fn func(lo int, m Matrix) error) error {
	d := len(cols)
	chunk := max(chunkBytes/(8*max(d, 1)), 512)
	if cap(sc.matrix) < chunk*d {
		sc.matrix = make([]float64, chunk*d)
	}
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		m := Matrix{Data: sc.matrix[:(hi-lo)*d], Rows: hi - lo, Cols: d}
		for j, c := range cols {
			for i, x := range c[lo:hi] {
				m.Data[i*d+j] = x
			}
		}
		if err := fn(lo, m); err != nil {
			return err
		}
	}
	return nil
}

// PredictInto is Predict writing scores into out (length in.Rows), reusing
// sc's buffers for featurizer outputs and model temporaries; steps and
// models without an Into form fall back to their allocating one.
func (p *Pipeline) PredictInto(in Matrix, out []float64, sc *PredictScratch) error {
	if p.Final == nil {
		return fmt.Errorf("ml: pipeline has no final model")
	}
	if len(out) < in.Rows {
		return fmt.Errorf("ml: PredictInto buffer holds %d rows, input has %d", len(out), in.Rows)
	}
	cur, err := p.featurize(in, sc)
	if err != nil {
		return err
	}
	if mi, ok := p.Final.(ModelInto); ok {
		if err := mi.PredictInto(cur, out[:in.Rows], sc); err != nil {
			return fmt.Errorf("ml: pipeline model (%s): %w", p.Final.Kind(), err)
		}
		return nil
	}
	scores, err := p.Final.Predict(cur)
	if err != nil {
		return fmt.Errorf("ml: pipeline model (%s): %w", p.Final.Kind(), err)
	}
	copy(out, scores)
	return nil
}

// featurize runs the steps over in, into sc's buffers where a step has an
// Into form.
func (p *Pipeline) featurize(in Matrix, sc *PredictScratch) (Matrix, error) {
	cur := in
	for i, s := range p.Steps {
		ti, ok := s.(TransformerInto)
		if !ok {
			var err error
			cur, err = s.Transform(cur)
			if err != nil {
				return Matrix{}, fmt.Errorf("ml: pipeline step %d (%s): %w", i, s.Kind(), err)
			}
			continue
		}
		d, err := s.OutputDim(cur.Cols)
		if err != nil {
			return Matrix{}, fmt.Errorf("ml: pipeline step %d (%s): %w", i, s.Kind(), err)
		}
		cur, err = ti.TransformInto(cur, sc.buffer(cur.Rows*d))
		if err != nil {
			return Matrix{}, fmt.Errorf("ml: pipeline step %d (%s): %w", i, s.Kind(), err)
		}
	}
	return cur, nil
}

// FeatureDim traces the width through the steps, returning the width the
// final model sees for a given input width.
func (p *Pipeline) FeatureDim(inputDim int) (int, error) {
	d := inputDim
	var err error
	for _, s := range p.Steps {
		d, err = s.OutputDim(d)
		if err != nil {
			return 0, err
		}
	}
	return d, nil
}

// Validate checks internal width consistency against the declared input.
func (p *Pipeline) Validate() error {
	if p.Final == nil {
		return fmt.Errorf("ml: pipeline has no final model")
	}
	if len(p.InputColumns) == 0 {
		return nil // width unknown until bound to a query
	}
	d, err := p.FeatureDim(len(p.InputColumns))
	if err != nil {
		return err
	}
	if d != p.Final.NumFeatures() {
		return fmt.Errorf("ml: pipeline produces %d features, model expects %d", d, p.Final.NumFeatures())
	}
	return nil
}
