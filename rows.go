package raven

import (
	"context"
	"fmt"
	"time"

	"raven/internal/exec"
	"raven/internal/types"
)

// Rows is a streamed query result, the primary result type of the
// serving API. Iterate with Next/Scan and always Close (Close is
// idempotent; exhausting the stream closes implicitly):
//
//	rows, err := db.QueryContext(ctx, q)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//	    var id int64
//	    var score float64
//	    if err := rows.Scan(&id, &score); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Rows pulls batches from the executor on demand, so consumers that stop
// early (or whose context is cancelled) never pay for the rest of the
// result. A Rows must not be shared across goroutines.
type Rows struct {
	// AppliedRules lists the cross-optimizer rules that fired when the
	// plan was compiled (prepared re-executions and result-cache hits
	// report the rules from compile time).
	AppliedRules []string
	// CompileTime is the time spent producing the executable plan for this
	// call: near zero on prepared re-executions and result-cache hits.
	CompileTime time.Duration

	op        exec.Operator
	ctx       context.Context
	schema    *types.Schema
	execStart time.Time
	execTime  time.Duration
	cur       *types.Batch
	idx       int
	err       error
	closed    bool
	// release returns the admission-control slot (nil without a
	// scheduler). Close owns it: the slot is held exactly as long as the
	// query can still consume engine workers.
	release func()
}

// noRows is the empty batch a Rows starts on, so cur is never nil.
var noRows = &types.Batch{}

// newRows wraps an already-compiled operator tree and opens it. applied
// is copied: the exported AppliedRules field must not alias a cached
// plan's shared slice, or a caller mutating it would corrupt the template
// for every later execution. release (may be nil) is the admission slot
// ticket; newRows owns it from here on, returning it on Open failure and
// otherwise at Close.
func newRows(ctx context.Context, op exec.Operator, applied []string, compileTime time.Duration, release func()) (*Rows, error) {
	r := &Rows{
		AppliedRules: append([]string(nil), applied...),
		CompileTime:  compileTime,
		op:           op,
		ctx:          ctx,
		schema:       op.Schema(),
		execStart:    time.Now(),
		cur:          noRows,
		idx:          -1,
		release:      release,
	}
	if err := op.Open(); err != nil {
		op.Close()
		if release != nil {
			release()
		}
		return nil, err
	}
	return r, nil
}

// Columns returns the result column names in order.
func (r *Rows) Columns() []string { return r.schema.Names() }

// Schema returns the result schema.
func (r *Rows) Schema() *types.Schema { return r.schema }

// Next advances to the next row, fetching batches from the executor as
// needed. It returns false at end of stream or on error — check Err to
// tell the two apart.
func (r *Rows) Next() bool {
	if r.idx+1 < r.cur.Len() && r.live() {
		r.idx++
		return true
	}
	if r.NextBatch() == nil {
		return false
	}
	r.idx = 0
	return true
}

// NextBatch returns the rest of the current batch, or else the next
// non-empty one, and nil at end of stream or on error (check Err). The
// batch is valid until the next Next, NextBatch or Close; Scan fails
// until Next moves to a row again. Front ends encode straight from its
// typed vectors, with no per-row boxing.
func (r *Rows) NextBatch() *types.Batch {
	if !r.live() {
		return nil
	}
	if r.idx+1 < r.cur.Len() {
		b := r.cur.Slice(r.idx+1, r.cur.Len())
		r.idx = r.cur.Len()
		return b
	}
	for {
		b, err := r.op.Next()
		if err != nil || b == nil {
			r.err = err
			r.Close()
			return nil
		}
		if b.Len() > 0 {
			r.cur, r.idx = b, b.Len()
			return b
		}
	}
}

// live reports whether the stream can still yield rows. The compiled
// operators observe the context themselves; this check additionally
// covers consumers idling between batches, so a cancelled Rows stops
// (and releases its executor) on the next Next or NextBatch call.
func (r *Rows) live() bool {
	if r.closed || r.err != nil {
		return false
	}
	if r.ctx != nil && r.ctx.Err() != nil {
		r.err = r.ctx.Err()
		r.Close()
		return false
	}
	return true
}

// Scan copies the current row into dest, one pointer per column:
// *int64/*int for INT, *float64 for FLOAT (INT widens), *bool for BIT,
// *string for VARCHAR, or *any for anything.
func (r *Rows) Scan(dest ...any) error {
	if r.idx < 0 || r.idx >= r.cur.Len() {
		return fmt.Errorf("raven: Scan called without a successful Next")
	}
	if len(dest) != len(r.cur.Vecs) {
		return fmt.Errorf("raven: Scan got %d targets for %d columns", len(dest), len(r.cur.Vecs))
	}
	for j, d := range dest {
		v := r.cur.Vecs[j]
		col := r.schema.Columns[j].Name
		switch p := d.(type) {
		case *any:
			*p = v.Value(r.idx)
		case *int64:
			if v.Type != types.Int {
				return fmt.Errorf("raven: column %s is %v, not INT", col, v.Type)
			}
			*p = v.Ints[r.idx]
		case *int:
			if v.Type != types.Int {
				return fmt.Errorf("raven: column %s is %v, not INT", col, v.Type)
			}
			*p = int(v.Ints[r.idx])
		case *float64:
			switch v.Type {
			case types.Float:
				*p = v.Floats[r.idx]
			case types.Int:
				*p = float64(v.Ints[r.idx])
			default:
				return fmt.Errorf("raven: column %s is %v, not FLOAT", col, v.Type)
			}
		case *bool:
			if v.Type != types.Bool {
				return fmt.Errorf("raven: column %s is %v, not BIT", col, v.Type)
			}
			*p = v.Bools[r.idx]
		case *string:
			if v.Type != types.String {
				return fmt.Errorf("raven: column %s is %v, not VARCHAR", col, v.Type)
			}
			*p = v.Strings[r.idx]
		default:
			return fmt.Errorf("raven: unsupported Scan target %T for column %s", d, col)
		}
	}
	return nil
}

// Err returns the error that terminated iteration, if any. A context
// cancellation surfaces here as ctx.Err().
func (r *Rows) Err() error { return r.err }

// Close releases the executor (stopping any exchange workers) and
// returns the query's admission slot to the scheduler. It is idempotent
// and safe at any point in the stream's life: before the first Next,
// mid-stream (in-flight exchange workers are shut down and reaped),
// after exhaustion, after Err, and on repeated calls — only the first
// call does work or returns the operator's error.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.execTime = time.Since(r.execStart)
	err := r.op.Close()
	if r.release != nil {
		r.release()
	}
	return err
}

// ExecTime is the time spent executing so far (final once closed).
func (r *Rows) ExecTime() time.Duration {
	if r.closed {
		return r.execTime
	}
	return time.Since(r.execStart)
}

// Collect drains the remaining stream into a materialized Result — the
// compatibility bridge from the streaming API to the batch one. Call it
// instead of Next, not after it (rows already consumed by Scan are not
// replayed, and a closed or exhausted Rows yields an empty Result).
func (r *Rows) Collect() (*Result, error) {
	defer r.Close()
	out := types.NewBatch(r.schema)
	for b := r.NextBatch(); b != nil; b = r.NextBatch() {
		if err := out.Append(b); err != nil {
			return nil, err
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return &Result{
		Batch:        out,
		AppliedRules: r.AppliedRules,
		CompileTime:  r.CompileTime,
		ExecTime:     r.execTime,
		Elapsed:      r.CompileTime + r.execTime,
	}, nil
}
