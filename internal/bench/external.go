package bench

import (
	"bytes"
	"context"
	"encoding/gob"
	"sync"
	"time"

	"raven"
	"raven/internal/exec"
	"raven/internal/rt"
	"raven/internal/types"
)

// Raven Ext (paper §5) scores a model in a language runtime outside the
// database, SQL Server's sp_execute_external_script. It is a baseline the
// paper measures the engine against, not a way the engine runs a model,
// so it is modelled here, in the harness that reports it: every row it
// stands for is a modelled number.

// DefaultExternalStartup models the external language runtime boot the
// paper measures as "a constant overhead of about half a second" (§5).
const DefaultExternalStartup = 500 * time.Millisecond

// ScoreExternal runs the Raven Ext baseline for one query: it reads the
// rows of data, a PREDICT's DATA query, through db.QueryContext with no
// filter applied and every column kept, as the external script receives
// them; boots the simulated runtime once (startup); and scores each batch
// through an OutOfProcessPredictor over the stored model's pipeline. The
// scores come back in the rows' order.
func ScoreExternal(ctx context.Context, db *raven.DB, data, model string, startup time.Duration) ([]float64, error) {
	pipe, err := db.LoadModel(model)
	if err != nil {
		return nil, err
	}
	rows, err := db.QueryContext(raven.ContextWithoutResultCache(ctx), data)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	p := &OutOfProcessPredictor{Inner: rt.NewPipelinePredictor(pipe, types.Float), Startup: startup, Ctx: ctx}
	var scores []float64
	for b := rows.NextBatch(); b != nil; b = rows.NextBatch() {
		outs, err := p.PredictBatch(b)
		if err != nil {
			return nil, err
		}
		scores = append(scores, outs[0].Floats...)
	}
	return scores, rows.Err()
}

// OutOfProcessPredictor wraps an inner predictor behind the external-
// runtime boundary: one-time startup latency, then a gob round trip for
// every batch (rows out, scores back), modelling
// sp_execute_external_script's process hop and data transfer.
type OutOfProcessPredictor struct {
	Inner   exec.Predictor
	Startup time.Duration
	// Ctx interrupts the simulated runtime startup so a cancelled query is
	// not stuck behind the half-second boot. It must not be nil.
	Ctx context.Context

	once sync.Once
}

// PredictBatch implements exec.Predictor.
func (p *OutOfProcessPredictor) PredictBatch(b *types.Batch) ([]*types.Vector, error) {
	p.once.Do(func() {
		t := time.NewTimer(p.Startup)
		defer t.Stop()
		select {
		case <-t.C:
		case <-p.Ctx.Done():
		}
	})
	if err := p.Ctx.Err(); err != nil {
		return nil, err
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
