package exec

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"raven/internal/expr"
	"raven/internal/storage"
	"raven/internal/types"
)

// DefaultMorselSize is the row count of one morsel — the unit of work a
// worker claims from a shared source — at DOP > 1. Larger than a batch so
// the claim (one atomic add) amortizes, small enough that GOMAXPROCS
// workers load-balance across a table even when per-row cost is skewed. A
// DOP-1 pipeline has no claim to amortize and defaults to
// types.DefaultBatchSize (Env.morselSize).
const DefaultMorselSize = 4 * types.DefaultBatchSize

// MorselSource hands out table fragments to pipeline workers. NextMorsel
// must be safe for concurrent use and return dense sequence numbers
// 0,1,2,... in claim order so the exchange can merge results back into
// source order; a nil batch signals exhaustion.
type MorselSource interface {
	Open() error
	NextMorsel() (seq int, b *types.Batch, err error)
	Close() error
	Schema() *types.Schema
}

// TableMorselSource splits a storage.Table row range into fixed-size
// morsels claimed from a shared atomic cursor. Claims are contention-free
// (one Add per morsel); in-memory rows come as zero-copy slices.
type TableMorselSource struct {
	Table *storage.Table
	// Cols projects a subset; nil scans all columns.
	Cols []string
	// Lo, Hi bound the row range; Hi==0 means the table end (snapshot at
	// Open).
	Lo, Hi int
	// MorselSize is rows per claim; 0 means DefaultMorselSize.
	MorselSize int
	// Ranges are the intervals (expr.DeriveRanges) of a filter that runs
	// on every row this source yields: Open skips the sealed segments
	// whose footer bounds show no row can pass it. Nil reads them all.
	Ranges map[string]expr.Range

	schema *types.Schema
	colIdx []int
	cursor atomic.Int64
	end    int64
	// pruned marks a scan that left segments out: the cursor then indexes
	// morsels, the row ranges of what is left.
	pruned  bool
	morsels []storage.Span
}

// NewTableMorselSource builds a morsel source over t, resolving the
// projection eagerly so Schema is available before Open.
func NewTableMorselSource(t *storage.Table, cols []string, morselSize int) (*TableMorselSource, error) {
	s := &TableMorselSource{Table: t, Cols: cols, MorselSize: morselSize}
	if cols == nil {
		s.schema = t.Schema()
	} else {
		s.colIdx = make([]int, len(cols))
		for i, c := range cols {
			j := t.Schema().IndexOf(c)
			if j < 0 {
				return nil, fmt.Errorf("exec: table %s has no column %q", t.Name, c)
			}
			s.colIdx[i] = j
		}
		s.schema = t.Schema().Project(s.colIdx)
	}
	return s, nil
}

// Schema implements MorselSource.
func (s *TableMorselSource) Schema() *types.Schema { return s.schema }

// Open implements MorselSource. It snapshots the table length and the
// segments worth reading, so concurrent appends never tear the scan.
func (s *TableMorselSource) Open() error {
	if s.MorselSize <= 0 {
		s.MorselSize = DefaultMorselSize
	}
	spans, end := s.Table.Spans(s.Lo, cmp.Or(s.Hi, math.MaxInt), s.Ranges)
	s.end, s.pruned, s.morsels = int64(end), spans != nil, s.morsels[:0]
	for _, sp := range spans {
		for lo := sp.Lo; lo < sp.Hi; lo += s.MorselSize {
			s.morsels = append(s.morsels, storage.Span{Lo: lo, Hi: min(lo+s.MorselSize, sp.Hi)})
		}
	}
	s.cursor.Store(int64(s.Lo))
	if s.pruned {
		s.cursor.Store(0)
	}
	return nil
}

// NextMorsel implements MorselSource.
func (s *TableMorselSource) NextMorsel() (int, *types.Batch, error) {
	size := int64(s.MorselSize)
	var seq, lo, hi int64
	if !s.pruned {
		lo = s.cursor.Add(size) - size
		if lo >= s.end {
			return 0, nil, nil
		}
		hi, seq = min(lo+size, s.end), (lo-int64(s.Lo))/size
	} else {
		if seq = s.cursor.Add(1) - 1; seq >= int64(len(s.morsels)) {
			return 0, nil, nil
		}
		lo, hi = int64(s.morsels[seq].Lo), int64(s.morsels[seq].Hi)
	}
	b, err := s.Table.ScanRange(int(lo), int(hi), s.colIdx)
	if err != nil {
		return 0, nil, err
	}
	return int(seq), b, nil
}

// Close implements MorselSource.
func (s *TableMorselSource) Close() error { return nil }

// applyStages runs a morsel through a stage chain — the one place every
// pipeline, inline or parallel or taken over by a breaker, applies its
// per-row work. A nil result means the chain filtered every row out.
func applyStages(stages []Stage, b *types.Batch) (*types.Batch, error) {
	for _, st := range stages {
		var err error
		if b, err = st.Apply(b); err != nil {
			return nil, err
		}
		if b == nil || b.Len() == 0 {
			return nil, nil
		}
	}
	return b, nil
}

// stagedSource applies a stage chain to every morsel of an inner source.
// Pipeline breakers use it to take over an unopened Exchange's pipeline
// (source plus pushed stages) with their own workers: the stages run on
// whichever worker claimed the morsel, exactly as they would inside the
// exchange. A fully filtered morsel comes back as an empty (not nil)
// batch so the sequence stays dense and nil keeps meaning exhaustion.
type stagedSource struct {
	src    MorselSource
	stages []Stage
	schema *types.Schema
}

// Open implements MorselSource.
func (s *stagedSource) Open() error { return s.src.Open() }

// Close implements MorselSource.
func (s *stagedSource) Close() error { return s.src.Close() }

// Schema implements MorselSource.
func (s *stagedSource) Schema() *types.Schema { return s.schema }

// NextMorsel implements MorselSource.
func (s *stagedSource) NextMorsel() (int, *types.Batch, error) {
	seq, b, err := s.src.NextMorsel()
	if err != nil || b == nil {
		return seq, b, err
	}
	if b, err = applyStages(s.stages, b); err == nil && b == nil {
		b = types.NewBatch(s.schema)
	}
	return seq, b, err
}

// StreamMorselSource adapts an operator's batch stream into a morsel
// source: each batch becomes one morsel, sequenced in stream order.
// Claims serialize on a mutex (the operator underneath is single-
// threaded), so this is how a fresh morsel pipeline opens above a
// pipeline breaker or an ordered operator (LIMIT, DISTINCT, a UDF) — its
// output streams through here into a new Exchange that runs the stages
// pushed above it.
type StreamMorselSource struct {
	Op Operator

	mu  sync.Mutex
	seq int
}

// Open implements MorselSource.
func (s *StreamMorselSource) Open() error {
	s.seq = 0
	return s.Op.Open()
}

// Close implements MorselSource.
func (s *StreamMorselSource) Close() error { return s.Op.Close() }

// Schema implements MorselSource.
func (s *StreamMorselSource) Schema() *types.Schema { return s.Op.Schema() }

// NextMorsel implements MorselSource.
func (s *StreamMorselSource) NextMorsel() (int, *types.Batch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.Op.Next()
	if err != nil || b == nil {
		return 0, nil, err
	}
	seq := s.seq
	s.seq++
	return seq, b, nil
}

// Stage is one per-morsel transformation inside an Exchange (filter,
// project, PREDICT, join probe). OutSchema is called once (single-
// threaded, before Open) and may cache derived state; Apply runs on every
// worker concurrently and must not mutate the stage. A nil batch from
// Apply drops the morsel (all rows filtered out).
type Stage interface {
	OutSchema(in *types.Schema) (*types.Schema, error)
	Apply(b *types.Batch) (*types.Batch, error)
}

// selPool recycles row-selection buffers used by filters and join probes.
// Gather copies the selected rows, so a buffer can return to the pool as
// soon as the output batch is built.
var selPool = sync.Pool{New: func() any { return new([]int) }}

func getSel() *[]int { return selPool.Get().(*[]int) }

func putSel(p *[]int) { selPool.Put(p) }

// FilterStage drops rows whose predicate is false.
type FilterStage struct {
	Pred expr.Expr
}

// OutSchema implements Stage. It also binds the predicate's column
// ordinals against the input schema, so per-morsel evaluation skips name
// lookups (OutSchema runs single-threaded, before workers start).
func (s *FilterStage) OutSchema(in *types.Schema) (*types.Schema, error) {
	s.Pred = expr.Bind(s.Pred, in)
	return in, nil
}

// Apply implements Stage.
func (s *FilterStage) Apply(b *types.Batch) (*types.Batch, error) {
	mask, err := s.Pred.Eval(b)
	if err != nil {
		return nil, err
	}
	if mask.Type != types.Bool {
		return nil, fmt.Errorf("exec: filter predicate has type %v", mask.Type)
	}
	if mask.Const {
		// Constant predicate: the whole morsel passes or drops.
		keep := mask.BoolAt(0)
		expr.PutEvalResult(s.Pred, mask)
		if keep {
			return b, nil
		}
		return nil, nil
	}
	selp := getSel()
	sel := (*selp)[:0]
	for i, keep := range mask.Bools {
		if keep {
			sel = append(sel, i)
		}
	}
	expr.PutEvalResult(s.Pred, mask)
	var out *types.Batch
	switch {
	case len(sel) == 0:
		out = nil
	case len(sel) == b.Len():
		out = b
	default:
		out = b.Gather(sel)
	}
	*selp = sel
	putSel(selp)
	return out, nil
}

// ProjectStage computes expressions.
type ProjectStage struct {
	Exprs []expr.Expr
	Names []string

	out *types.Schema
}

// OutSchema implements Stage. Expressions are bound to the input schema
// here (single-threaded, before workers start).
func (s *ProjectStage) OutSchema(in *types.Schema) (*types.Schema, error) {
	cols := make([]types.Column, len(s.Exprs))
	// The expression slice is shared with the (possibly concurrently
	// compiling) plan, so binding builds a private slice.
	bound := make([]expr.Expr, len(s.Exprs))
	for i, e := range s.Exprs {
		t, err := e.Type(in)
		if err != nil {
			return nil, err
		}
		cols[i] = types.Column{Name: s.Names[i], Type: t}
		bound[i] = expr.Bind(e, in)
	}
	s.Exprs = bound
	s.out = types.NewSchema(cols...)
	return s.out, nil
}

// Apply implements Stage.
func (s *ProjectStage) Apply(b *types.Batch) (*types.Batch, error) {
	vecs := make([]*types.Vector, len(s.Exprs))
	for i, e := range s.Exprs {
		v, err := e.Eval(b)
		if err != nil {
			return nil, err
		}
		// The output batch escapes the expression layer: broadcast results
		// materialize (consumers index data slices directly) and pooled
		// intermediates are disowned so nothing downstream can recycle a
		// live column.
		if v.Const {
			d := v.Densify()
			expr.PutEvalResult(e, v)
			v = d
		}
		v.Disown()
		vecs[i] = v
	}
	return &types.Batch{Schema: s.out, Vecs: vecs}, nil
}

// PredictStage appends model output columns to each morsel. The Predictor
// is shared by all workers and must be safe for concurrent PredictBatch
// calls (all predictors in this repo are).
type PredictStage struct {
	Predictor  Predictor
	OutputCols []types.Column

	out *types.Schema
}

// OutSchema implements Stage.
func (s *PredictStage) OutSchema(in *types.Schema) (*types.Schema, error) {
	s.out = in.Concat(types.NewSchema(s.OutputCols...))
	return s.out, nil
}

// Apply implements Stage.
func (s *PredictStage) Apply(b *types.Batch) (*types.Batch, error) {
	outs, err := s.Predictor.PredictBatch(b)
	if err != nil {
		return nil, err
	}
	if len(outs) != len(s.OutputCols) {
		return nil, fmt.Errorf("exec: predictor returned %d columns, declared %d", len(outs), len(s.OutputCols))
	}
	vecs := make([]*types.Vector, 0, len(b.Vecs)+len(outs))
	vecs = append(vecs, b.Vecs...)
	vecs = append(vecs, outs...)
	return &types.Batch{Schema: s.out, Vecs: vecs}, nil
}

// Exchange is the morsel pipeline, the one way per-row work executes:
// claim a morsel from the source, check Ctx, run the stage chain, emit in
// source order. With one worker (DOP <= 1) that loop runs inline: Open
// starts no goroutine and allocates no channel, and each Next claims and
// processes one morsel on the caller's goroutine, so a LIMIT above stops
// the scan early. With DOP > 1 the same loop runs on DOP workers and a
// consumer-side reorder buffer merges results back into source order — so
// a plan returns exactly the rows, in exactly the order, at any DOP.
// Workers never coordinate beyond the claim and the result channel;
// per-row work (filter, project, predict) scales with GOMAXPROCS.
type Exchange struct {
	Source MorselSource
	Stages []Stage
	// DOP is the worker count; below 2 the pipeline runs inline.
	DOP int
	// Ctx cancels the pipeline, polled once per morsel: workers stop
	// claiming and the consumer returns Ctx.Err() as soon as it observes
	// cancellation. Nil means not cancellable.
	Ctx context.Context
	// Tuner, when set, receives per-morsel service-time observations so
	// later queries size their morsels adaptively.
	Tuner *Tuner

	schema  *types.Schema
	opened  bool
	results chan morselResult
	cancel  chan struct{}
	window  chan struct{}
	pending map[int]*types.Batch
	next    int
	failed  error
}

// windowPerWorker bounds how many morsels may be claimed but not yet
// consumed, per worker. The consumer must drain the results channel while
// waiting for the next in-order morsel (refusing would deadlock the worker
// holding it), so without a claim-time bound one stalled worker would let
// the others materialize the whole table into the reorder buffer.
const windowPerWorker = 4

type morselResult struct {
	seq int
	b   *types.Batch
	err error
}

// NewExchange builds an exchange over src with no stages yet.
func NewExchange(src MorselSource, dop int) *Exchange {
	return &Exchange{Source: src, DOP: dop, schema: src.Schema()}
}

// Push appends a stage to the chain. Stages can only be added before the
// first Open; compilation uses this to grow one morsel pipeline instead of
// nesting operators.
func (e *Exchange) Push(s Stage) error {
	if e.opened {
		return fmt.Errorf("exec: cannot push a stage onto an opened exchange")
	}
	out, err := s.OutSchema(e.schema)
	if err != nil {
		return err
	}
	e.Stages = append(e.Stages, s)
	e.schema = out
	return nil
}

// Schema implements Operator.
func (e *Exchange) Schema() *types.Schema { return e.schema }

// apply runs the stage chain on one morsel, timing it only when a Tuner
// is attached.
func (e *Exchange) apply(b *types.Batch) (*types.Batch, error) {
	if e.Tuner == nil {
		return applyStages(e.Stages, b)
	}
	rows, start := b.Len(), time.Now()
	b, err := applyStages(e.Stages, b)
	e.Tuner.ObserveMorsel(rows, time.Since(start))
	return b, err
}

// Open implements Operator.
func (e *Exchange) Open() error {
	e.opened = true
	e.failed = nil
	if err := e.Source.Open(); err != nil {
		return err
	}
	dop := e.DOP
	if dop <= 1 {
		return nil // one worker means no goroutine: Next runs the loop inline
	}
	e.results = make(chan morselResult, dop*2)
	e.cancel = make(chan struct{})
	e.window = make(chan struct{}, dop*windowPerWorker)
	for i := 0; i < cap(e.window); i++ {
		e.window <- struct{}{}
	}
	e.pending = make(map[int]*types.Batch)
	e.next = 0
	// Workers receive the channels as locals so Close can safely reset the
	// fields without racing reads inside still-draining goroutines.
	results, cancel, window := e.results, e.cancel, e.window
	var wg sync.WaitGroup
	for w := 0; w < dop; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.work(results, cancel, window)
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	return nil
}

// work is one worker's loop: take a window token, claim a morsel, run the
// stages, report. Tokens come back as the consumer advances, keeping the
// claimed-but-unconsumed span (and so the reorder buffer) bounded. A
// cancelled context stops the loop between morsels; the first worker to
// notice reports ctx.Err() so the consumer fails even if it is blocked on
// the results channel.
func (e *Exchange) work(results chan morselResult, cancel chan struct{}, window chan struct{}) {
	var done <-chan struct{}
	if e.Ctx != nil {
		done = e.Ctx.Done()
	}
	send := func(m morselResult) bool {
		select {
		case results <- m:
			return true
		case <-cancel:
			return false
		}
	}
	for {
		select {
		case <-window:
		case <-cancel:
			return
		case <-done:
			send(morselResult{err: e.Ctx.Err()})
			return
		}
		if err := ctxErr(e.Ctx); err != nil {
			send(morselResult{err: err})
			return
		}
		seq, b, err := e.Source.NextMorsel()
		if err != nil {
			send(morselResult{seq: seq, err: err})
			return
		}
		if b == nil {
			return
		}
		if b, err = e.apply(b); err != nil {
			send(morselResult{seq: seq, err: err})
			return
		}
		if !send(morselResult{seq: seq, b: b}) {
			return
		}
	}
}

// Next implements Operator. It emits batches in morsel sequence order,
// stashing out-of-order arrivals; dropped morsels (fully filtered) are
// recorded as nil so the sequence stays dense. The first worker error is
// latched: re-polling after a failure keeps failing instead of skipping
// the dead morsel and passing off a truncated result as end-of-stream.
func (e *Exchange) Next() (*types.Batch, error) {
	if e.failed != nil {
		return nil, e.failed
	}
	if e.DOP <= 1 {
		b, err := e.nextInline()
		e.failed = err
		return b, err
	}
	if err := ctxErr(e.Ctx); err != nil {
		e.failed = err
		return nil, err
	}
	for {
		if b, ok := e.pending[e.next]; ok {
			delete(e.pending, e.next)
			e.next++
			// Consuming a seq frees one claim slot for the workers. The
			// non-blocking send guards the post-error path where a claimed
			// morsel's token was already lost with its worker.
			select {
			case e.window <- struct{}{}:
			default:
			}
			if b != nil {
				return b, nil
			}
			continue
		}
		var m morselResult
		var ok bool
		if e.Ctx != nil {
			select {
			case m, ok = <-e.results:
			case <-e.Ctx.Done():
				e.failed = e.Ctx.Err()
				return nil, e.failed
			}
		} else {
			m, ok = <-e.results
		}
		if !ok {
			// Workers are done: everything claimed has been delivered, so
			// any remaining pending entries are ahead of gaps that will
			// never fill only if a worker died on error — which was
			// returned already. Drain what is left in order.
			if len(e.pending) == 0 {
				return nil, nil
			}
			e.drainPending()
			continue
		}
		if m.err != nil {
			e.failed = m.err
			return nil, m.err
		}
		e.pending[m.seq] = m.b
	}
}

// nextInline is Next with one worker: claim a morsel, check Ctx, apply the
// stages, return — looping only past fully filtered morsels.
func (e *Exchange) nextInline() (*types.Batch, error) {
	for {
		if err := ctxErr(e.Ctx); err != nil {
			return nil, err
		}
		_, b, err := e.Source.NextMorsel()
		if err != nil || b == nil {
			return nil, err
		}
		if b, err = e.apply(b); err != nil || b != nil {
			return b, err
		}
	}
}

// drainPending advances next past any gap once the stream is complete.
func (e *Exchange) drainPending() {
	for {
		if _, ok := e.pending[e.next]; ok {
			return
		}
		e.next++
	}
}

// Close implements Operator.
func (e *Exchange) Close() error {
	if e.cancel != nil {
		close(e.cancel)
		e.cancel = nil
	}
	if e.results != nil {
		// drain so workers unblock and exit
		for range e.results {
		}
		e.results = nil
	}
	e.pending = nil
	return e.Source.Close()
}
