// Package rt implements the inference execution modes of paper §5: tight
// in-process execution (interpreted MLD pipelines or compiled tensor-graph
// sessions with model/session caching — "Raven"), out-of-process execution
// behind a serialization boundary with runtime-startup cost ("Raven Ext",
// the sp_execute_external_script path), and containerized execution over a
// real localhost REST endpoint.
package rt

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"slices"
	"sync"
	"time"

	"raven/internal/exec"
	"raven/internal/ml"
	"raven/internal/nnconv"
	"raven/internal/ort"
	"raven/internal/tensor"
	"raven/internal/types"
)

// Mode selects the execution strategy for a model invocation.
type Mode uint8

// Execution modes.
const (
	// ModeInProcess interprets the classical pipeline in-process (the
	// scikit-learn stand-in running inside the DB).
	ModeInProcess Mode = iota
	// ModeInProcessNN runs the NN-translated pipeline on the in-process
	// tensor runtime with session caching (Raven's PREDICT path).
	ModeInProcessNN
	// ModeOutOfProcess adds the external-runtime boundary: first-use
	// startup latency plus per-batch serialization (Raven Ext).
	ModeOutOfProcess
	// ModeContainer scores over a localhost REST endpoint (the paper's
	// containerized fallback).
	ModeContainer
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeInProcess:
		return "in-process"
	case ModeInProcessNN:
		return "in-process-nn"
	case ModeOutOfProcess:
		return "out-of-process"
	case ModeContainer:
		return "container"
	default:
		return "unknown"
	}
}

// DefaultExternalStartup models the external language runtime boot the
// paper measures as "a constant overhead of about half a second" (§5).
const DefaultExternalStartup = 500 * time.Millisecond

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
	vecs, err := b.NumericCols(p.InputCols)
	if err != nil {
		return nil, err
	}
	s, _ := p.scratch.Get().(*pipeScratch)
	if s == nil {
		s = &pipeScratch{}
	}
	defer func() {
		clear(s.cols) // a pooled scratch must not pin the batch's columns
		p.scratch.Put(s)
	}()
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
	scores := make([]float64, n) // escapes via floatVector; never pooled
	if err := p.Pipe.PredictColumns(s.cols, scores, &s.inner); err != nil {
		return nil, err
	}
	return []*types.Vector{floatVector(scores, p.OutType)}, nil
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
	// ExternalStartup is the simulated boot time of the external runtime
	// for ModeOutOfProcess.
	ExternalStartup time.Duration
}

// NewRuntime returns a runtime with a fresh session cache and defaults.
func NewRuntime() *Runtime {
	return &Runtime{
		Cache:           ort.NewSessionCache(),
		ExternalStartup: DefaultExternalStartup,
	}
}

// BuildSession compiles (or fetches from cache) a session for the given
// graph, keyed by cacheKey. An empty cacheKey bypasses the cache — that is
// the "standalone ORT" behaviour of Fig 3, which reloads the model each
// query. Sessions run the optimized graph on the CPU with full
// parallelism.
func (r *Runtime) BuildSession(cacheKey string, g *ort.Graph) (*ort.Session, error) {
	build := func() (*ort.Session, error) { return ort.NewSession(g) }
	if cacheKey == "" {
		return build()
	}
	return r.Cache.Get(cacheKey, build)
}

// NNPredictor translates a pipeline and returns a session predictor.
// cacheKey enables session reuse across queries.
func (r *Runtime) NNPredictor(cacheKey string, p *ml.Pipeline, outType types.DataType) (*SessionPredictor, error) {
	g, err := nnconv.TranslatePipeline(p)
	if err != nil {
		return nil, err
	}
	s, err := r.BuildSession(cacheKey, g)
	if err != nil {
		return nil, err
	}
	return &SessionPredictor{Session: s, InputCols: p.InputColumns, OutType: outType}, nil
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

// OutOfProcessPredictor wraps an inner predictor behind the external-
// runtime boundary: one-time startup latency, then a gob round trip for
// every batch (rows out, scores back), modelling
// sp_execute_external_script's process hop and data transfer.
type OutOfProcessPredictor struct {
	Inner   exec.Predictor
	Startup time.Duration
	// Ctx interrupts the simulated runtime startup so a cancelled query is
	// not stuck behind the half-second boot.
	Ctx context.Context

	once sync.Once
}

// PredictBatch implements exec.Predictor.
func (p *OutOfProcessPredictor) PredictBatch(b *types.Batch) ([]*types.Vector, error) {
	p.once.Do(func() {
		if p.Ctx == nil {
			time.Sleep(p.Startup)
			return
		}
		t := time.NewTimer(p.Startup)
		defer t.Stop()
		select {
		case <-t.C:
		case <-p.Ctx.Done():
		}
	})
	if p.Ctx != nil {
		if err := p.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	// Serialize the batch across the "process boundary".
	wire, err := encodeBatch(b)
	if err != nil {
		return nil, err
	}
	remote, err := decodeBatch(wire)
	if err != nil {
		return nil, err
	}
	outs, err := p.Inner.PredictBatch(remote)
	if err != nil {
		return nil, err
	}
	// Serialize results back.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(outs); err != nil {
		return nil, err
	}
	var back []*types.Vector
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		return nil, err
	}
	return back, nil
}

type wireBatch struct {
	Cols []types.Column
	Vecs []types.Vector
}

func encodeBatch(b *types.Batch) ([]byte, error) {
	w := wireBatch{Cols: b.Schema.Columns}
	for _, v := range b.Vecs {
		w.Vecs = append(w.Vecs, *v)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeBatch(data []byte) (*types.Batch, error) {
	var w wireBatch
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, err
	}
	b := &types.Batch{Schema: types.NewSchema(w.Cols...)}
	for i := range w.Vecs {
		b.Vecs = append(b.Vecs, &w.Vecs[i])
	}
	return b, nil
}
