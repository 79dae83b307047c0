// Package rt builds the predictors a lowered model operator scores with
// (paper §5): a pipeline kernel over the batch's own columns, the same
// kernel under a top-k score bound, or a compiled tensor session shared
// through the model/session cache. Which one runs is the cross
// optimizer's choice, made in the plan; nothing here overrides it.
package rt

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"raven/internal/exec"
	"raven/internal/ml"
	"raven/internal/ort"
	"raven/internal/tensor"
	"raven/internal/types"
)

// Mode has no effect: the plan decides how a model runs.
//
// Deprecated: the cross optimizer chooses kernel, inlined CASE or tensor
// session; there is nothing left to select.
type Mode uint8

// ModeInProcess is the zero Mode.
//
// Deprecated: see Mode.
const ModeInProcess Mode = 0

// floatVector converts raw scores to a typed output vector.
func floatVector(scores []float64, t types.DataType) *types.Vector {
	switch t {
	case types.Int:
		v := types.NewVector(types.Int, len(scores))
		for i, s := range scores {
			v.Ints[i] = int64(s)
		}
		return v
	case types.Bool:
		v := types.NewVector(types.Bool, len(scores))
		for i, s := range scores {
			v.Bools[i] = s > 0.5
		}
		return v
	default:
		return &types.Vector{Type: types.Float, Floats: scores}
	}
}

// PipelinePredictor scores batches through an ml.Pipeline, handing it the
// batch's own columns (ml.Pipeline.PredictColumns): no feature matrix is
// built here.
type PipelinePredictor struct {
	Pipe      *ml.Pipeline
	InputCols []string
	OutType   types.DataType

	scratch sync.Pool // *pipeScratch
}

// pipeScratch is the per-worker reusable state of one PredictBatch call.
// Output scores are NOT here — they escape into the result vector.
type pipeScratch struct {
	cols  [][]float64 // one slice per input column
	wide  []float64   // INT, BOOL and broadcast columns widened to float64
	inner ml.PredictScratch
}

// NewPipelinePredictor builds the predictor; InputCols defaults to the
// pipeline's declared input columns.
func NewPipelinePredictor(p *ml.Pipeline, outType types.DataType) *PipelinePredictor {
	return &PipelinePredictor{Pipe: p, InputCols: p.InputColumns, OutType: outType}
}

// PredictBatch implements exec.Predictor. Safe for concurrent use: each
// call checks out a private scratch.
func (p *PipelinePredictor) PredictBatch(b *types.Batch) ([]*types.Vector, error) {
	s, err := p.columns(b)
	if err != nil {
		return nil, err
	}
	defer p.release(s)
	scores := make([]float64, b.Len()) // escapes via floatVector; never pooled
	if err := p.Pipe.PredictColumns(s.cols, scores, &s.inner); err != nil {
		return nil, err
	}
	return []*types.Vector{floatVector(scores, p.OutType)}, nil
}

// columns checks out a scratch holding the batch's input columns as
// float64 slices; release returns it.
func (p *PipelinePredictor) columns(b *types.Batch) (*pipeScratch, error) {
	vecs, err := b.NumericCols(p.InputCols)
	if err != nil {
		return nil, err
	}
	s, _ := p.scratch.Get().(*pipeScratch)
	if s == nil {
		s = &pipeScratch{}
	}
	// FLOAT columns are handed over as they are; the rest are widened into
	// scratch, one column after another (when wide has to grow, the columns
	// widened so far stay behind, intact, in the array it outgrew).
	n := b.Len()
	s.cols, s.wide = s.cols[:0], s.wide[:0]
	for _, v := range vecs {
		col := v.Floats
		if v.Type != types.Float || v.Const {
			s.wide = slices.Grow(s.wide, n)[:len(s.wide)+n]
			col = s.wide[len(s.wide)-n:]
			v.WidenInto(col, 1)
		}
		s.cols = append(s.cols, col)
	}
	return s, nil
}

func (p *PipelinePredictor) release(s *pipeScratch) {
	clear(s.cols) // a pooled scratch must not pin the batch's columns
	p.scratch.Put(s)
}

// TopKPredictor scores a pipeline under one execution's top-k bound
// (ml.TopK): PredictSelect keeps only the rows the bound cannot exclude,
// with their exact scores.
type TopKPredictor struct {
	*PipelinePredictor
	Bound *ml.TopK
}

// PredictSelect implements exec.SelectPredictor.
func (p *TopKPredictor) PredictSelect(b *types.Batch) ([]int, []*types.Vector, error) {
	s, err := p.columns(b)
	if err != nil {
		return nil, nil, err
	}
	defer p.release(s)
	// keep starts empty, not nil: nil would keep every row.
	keep, scores, err := p.Pipe.PredictColumnsTopK(s.cols, b.Len(), p.Bound, []int{}, nil, &s.inner)
	if err != nil {
		return nil, nil, err
	}
	return keep, []*types.Vector{floatVector(scores, p.OutType)}, nil
}

// SessionPredictor scores through a compiled ort session (NN-translated
// pipeline). The session may be shared: Run is safe for concurrent use.
type SessionPredictor struct {
	Session   *ort.Session
	InputCols []string
	OutType   types.DataType
}

// PredictBatch implements exec.Predictor.
func (p *SessionPredictor) PredictBatch(b *types.Batch) ([]*types.Vector, error) {
	data, n, err := b.FloatMatrix(p.InputCols)
	if err != nil {
		return nil, err
	}
	x, err := tensor.FromSlice(data, n, len(p.InputCols))
	if err != nil {
		return nil, err
	}
	out, _, err := p.Session.Run(map[string]*tensor.Tensor{"X": x})
	if err != nil {
		return nil, err
	}
	y := out["Y"]
	if y == nil {
		return nil, fmt.Errorf("rt: session produced no Y output")
	}
	return []*types.Vector{floatVector(y.Data, p.OutType)}, nil
}

// Runtime builds predictors for models, caching compiled sessions by model
// content hash — the model/session cache of §5 observation (ii).
type Runtime struct {
	Cache *ort.SessionCache
}

// NewRuntime returns a runtime with a fresh session cache.
func NewRuntime() *Runtime {
	return &Runtime{Cache: ort.NewSessionCache()}
}

// BuildSession compiles (or fetches from cache) a session for the given
// graph, keyed by cacheKey. An empty cacheKey bypasses the cache: a model
// specialized by table statistics gets a session of its own each query.
// Sessions run the optimized graph on the CPU with full parallelism.
func (r *Runtime) BuildSession(cacheKey string, g *ort.Graph) (*ort.Session, error) {
	build := func() (*ort.Session, error) { return ort.NewSession(g) }
	if cacheKey == "" {
		return build()
	}
	return r.Cache.Get(cacheKey, build)
}

// ContextPredictor makes any predictor observe query cancellation: each
// PredictBatch first polls the context, so a cancelled query stops scoring
// at batch granularity even when the wrapped runtime knows nothing about
// contexts. The runtime code generator wraps every predictor with one when
// the query carries a context.
type ContextPredictor struct {
	Ctx   context.Context
	Inner exec.Predictor
}

// PredictBatch implements exec.Predictor.
func (p *ContextPredictor) PredictBatch(b *types.Batch) ([]*types.Vector, error) {
	if err := p.Ctx.Err(); err != nil {
		return nil, err
	}
	return p.Inner.PredictBatch(b)
}

// PredictSelect implements exec.SelectPredictor: an inner predictor that
// scores every row keeps them all.
func (p *ContextPredictor) PredictSelect(b *types.Batch) ([]int, []*types.Vector, error) {
	if err := p.Ctx.Err(); err != nil {
		return nil, nil, err
	}
	if sp, ok := p.Inner.(exec.SelectPredictor); ok {
		return sp.PredictSelect(b)
	}
	outs, err := p.Inner.PredictBatch(b)
	return nil, outs, err
}
