// Package storage implements the columnar storage engine and catalog
// that play the role of SQL Server in the reproduction: tables, table
// statistics, and the transactional, versioned model store that gives
// models the same governance guarantees as data (paper §1, §2). Tables
// are in-memory by default; with a durable backend attached they are
// WAL-logged and their tails seal into on-disk columnar segments, so a
// table can exceed RAM (see durable.go).
package storage

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"raven/internal/expr"
	"raven/internal/segment"
	"raven/internal/types"
)

// sealedPart is one immutable on-disk segment of a table, in row order
// before the in-memory tail.
type sealedPart struct {
	r    *segment.Reader
	rows int
}

// Table is an append-only columnar table: zero or more sealed segments
// followed by an in-memory tail. Reads take a snapshot length so
// concurrent appends never tear a scan. In-memory tables (no backend)
// have no sealed parts, and every scan over them stays zero-copy.
type Table struct {
	Name   string
	schema *types.Schema
	ords   []int // 0..n-1: the columns a nil ScanRange list means

	mu         sync.RWMutex
	cols       []*types.Vector // the live tail
	sealed     []sealedPart
	sealedRows int
	rows       int // total rows: sealedRows + tail length
	// sorted[c] holds while INT column c of the tail has no NULL and never
	// decreases: it licenses Spans' binary search. Observed, not declared.
	sorted []bool

	// appendMu serializes durable appends end-to-end (WAL record, then
	// memory apply, then a possible seal) so log order always equals
	// apply order. Readers are only excluded during the memory apply,
	// which takes mu as before. In-memory appends skip it.
	appendMu sync.Mutex
	backend  Backend

	// dataVersion counts content changes (appends). The catalog version
	// only moves on DDL and model stores, so caches keyed by it alone
	// would serve stale rows after an INSERT; result caches validate
	// against this counter instead. Bumped under mu — so a version read
	// taken before an append started is guaranteed stale by the time the
	// new rows are visible to a scan — but stored atomically so
	// validation reads never block behind a bulk load.
	dataVersion atomic.Uint64
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema *types.Schema) *Table {
	cols, ords := make([]*types.Vector, schema.Len()), make([]int, schema.Len())
	for i, c := range schema.Columns {
		cols[i], ords[i] = types.NewVector(c.Type, 0), i
	}
	t := &Table{Name: name, schema: schema, cols: cols, ords: ords, sorted: make([]bool, len(cols))}
	t.resetSorted()
	return t
}

// resetSorted marks every INT column of an empty tail sorted.
func (t *Table) resetSorted() {
	for i, c := range t.schema.Columns {
		t.sorted[i] = c.Type == types.Int
	}
}

// track extends the sortedness flags over the tail rows appended from
// tail row from on, in O(rows appended). A failed append clears them all:
// a wrongly cleared flag costs a scan, a stale one a wrong answer.
func (t *Table) track(from int, err error) error {
	for c, ok := range t.sorted {
		v := t.cols[c]
		for i := from; ok && i < t.rows-t.sealedRows; i++ {
			ok = !v.IsNull(i) && (i == 0 || v.Ints[i-1] <= v.Ints[i])
		}
		t.sorted[c] = ok && err == nil
	}
	return err
}

// Schema returns the table schema.
func (t *Table) Schema() *types.Schema { return t.schema }

// NumRows returns the current row count (sealed plus tail).
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// DataVersion returns the table's content version: 0 for a fresh table,
// bumped once per AppendRow/AppendBatch. A cache entry that recorded the
// version before executing is invalid the moment any append lands, even
// one racing the execution (the bump happens under the same lock that
// makes the new rows visible).
func (t *Table) DataVersion() uint64 { return t.dataVersion.Load() }

// AppendRow appends a single row of raw Go values in schema order.
func (t *Table) AppendRow(vals ...any) error {
	if t.backend != nil {
		b := types.NewBatch(t.schema)
		if err := b.AppendRow(vals...); err != nil {
			return fmt.Errorf("storage: table %s: %w", t.Name, err)
		}
		return t.backend.Append(t, b)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(vals) != len(t.cols) {
		return fmt.Errorf("storage: table %s: row arity %d != %d", t.Name, len(vals), len(t.cols))
	}
	// Bump before mutating: a failed append may still have touched
	// columns, and a spurious invalidation is harmless where a missed one
	// is not.
	t.dataVersion.Add(1)
	for i, v := range vals {
		if err := t.cols[i].Append(v); err != nil {
			return t.track(0, fmt.Errorf("storage: table %s: %w", t.Name, err))
		}
	}
	t.rows++
	return t.track(t.rows-t.sealedRows-1, nil)
}

// AppendBatch appends all rows of a batch whose columns match the schema.
func (t *Table) AppendBatch(b *types.Batch) error {
	if t.backend != nil {
		return t.backend.Append(t, b)
	}
	return t.applyBatch(b)
}

// applyBatch is the memory half of an append: rows land in the tail
// under mu and the data version bumps. The durable backend calls it
// after logging; in-memory AppendBatch is nothing but this.
func (t *Table) applyBatch(b *types.Batch) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(b.Vecs) != len(t.cols) {
		return fmt.Errorf("storage: table %s: batch arity %d != %d", t.Name, len(b.Vecs), len(t.cols))
	}
	t.dataVersion.Add(1)
	for i := range t.cols {
		if err := t.cols[i].AppendVector(b.Vecs[i]); err != nil {
			return t.track(0, fmt.Errorf("storage: table %s: %w", t.Name, err))
		}
	}
	t.rows += b.Len()
	return t.track(t.rows-t.sealedRows-b.Len(), nil)
}

// tailLen returns the number of rows currently in the in-memory tail.
func (t *Table) tailLen() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows - t.sealedRows
}

// tailBatch snapshots the whole tail zero-copy. The durable backend
// calls it with appenders excluded, so the view is stable.
func (t *Table) tailBatch() (*types.Batch, int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.rows - t.sealedRows
	vecs := make([]*types.Vector, len(t.cols))
	for i, c := range t.cols {
		vecs[i] = c.Slice(0, n)
	}
	return &types.Batch{Schema: t.schema, Vecs: vecs}, n
}

// sealTail swaps the first n tail rows — which must be the entire tail,
// seals always cover it — for the sealed segment r. The old tail vectors
// are abandoned, never reset: outstanding zero-copy scans may still
// reference them.
func (t *Table) sealTail(r *segment.Reader, n int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n != t.rows-t.sealedRows {
		return fmt.Errorf("storage: table %s: seal of %d rows but tail has %d", t.Name, n, t.rows-t.sealedRows)
	}
	t.sealed = append(t.sealed, sealedPart{r: r, rows: n})
	t.sealedRows += n
	cols := make([]*types.Vector, t.schema.Len())
	for i, c := range t.schema.Columns {
		cols[i] = types.NewVector(c.Type, 0)
	}
	t.cols = cols
	t.resetSorted()
	return nil
}

// attachSegment registers a sealed segment loaded from the manifest at
// recovery, before any tail rows exist.
func (t *Table) attachSegment(r *segment.Reader) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := r.Rows()
	t.sealed = append(t.sealed, sealedPart{r: r, rows: n})
	t.sealedRows += n
	t.rows += n
}

// sealedSnapshot copies the sealed-part list for checkpointing and
// stats.
func (t *Table) sealedSnapshot() []sealedPart {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]sealedPart(nil), t.sealed...)
}

// replaceSealed swaps the sealed-part list (compaction), closing the
// readers it replaces. Total sealed rows must be unchanged.
func (t *Table) replaceSealed(parts []sealedPart) error {
	rows := 0
	for _, p := range parts {
		rows += p.rows
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if rows != t.sealedRows {
		return fmt.Errorf("storage: table %s: compaction changed sealed rows %d -> %d", t.Name, t.sealedRows, rows)
	}
	kept := make(map[*segment.Reader]bool, len(parts))
	for _, p := range parts {
		kept[p.r] = true
	}
	old := t.sealed
	t.sealed = parts
	for _, p := range old {
		if !kept[p.r] {
			p.r.Close()
		}
	}
	return nil
}

// closeSealed closes every sealed segment reader (DB close). The part
// list is kept so later scans fail with a closed-file error instead of
// panicking on missing parts.
func (t *Table) closeSealed() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range t.sealed {
		p.r.Close()
	}
}

// Segments returns (sealed segment count, sealed row count).
func (t *Table) Segments() (int, int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.sealed), t.sealedRows
}

// ScanRange returns a batch of the columns at ordinals cols (nil: all)
// over rows [lo, hi). Ranges entirely inside the in-memory tail —
// always, for in-memory tables — are zero-copy column slices the caller
// must not mutate; ranges touching sealed segments are decoded from
// disk, and only the listed columns are.
func (t *Table) ScanRange(lo, hi int, cols []int) (*types.Batch, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	hi = min(hi, t.rows)
	lo = max(min(lo, hi), 0)
	schema := t.schema
	if cols == nil {
		cols = t.ords
	} else {
		schema = t.schema.Project(cols)
	}
	if lo >= t.sealedRows {
		vecs := make([]*types.Vector, len(cols))
		for i, c := range cols {
			vecs[i] = t.cols[c].Slice(lo-t.sealedRows, hi-t.sealedRows)
		}
		return &types.Batch{Schema: schema, Vecs: vecs}, nil
	}
	out := types.NewBatch(schema)
	out.Grow(hi - lo)
	pos := 0
	for _, p := range t.sealed {
		if lo < pos+p.rows && hi > pos {
			s, e := max(lo, pos), min(hi, pos+p.rows)
			for i, v := range out.Vecs {
				if err := p.r.ReadColumnRange(cols[i], s-pos, e-pos, v); err != nil {
					return nil, fmt.Errorf("storage: table %s: segment %s: %w", t.Name, p.r.Path(), err)
				}
			}
		}
		pos += p.rows
	}
	if hi > t.sealedRows {
		for i, v := range out.Vecs {
			if err := v.AppendVector(t.cols[cols[i]].Slice(0, hi-t.sealedRows)); err != nil {
				return nil, fmt.Errorf("storage: table %s: %w", t.Name, err)
			}
		}
	}
	return out, nil
}

// Span is the half-open row range [Lo, Hi).
type Span struct{ Lo, Hi int }

// Spans snapshots, under one lock, the rows a scan filtered by ranges
// (keyed as by expr.DeriveRanges) must read, in row order. It leaves out
// each sealed segment whose footer bounds on a ranged column miss that
// range, and cuts the tail down by binary search on each ranged INT
// column the tail holds sorted — so only rows the filter would drop are
// left out. Spans are row positions, which sealing and compaction keep.
// Each call adds the segments it reads and skips to the backend's stats.
func (t *Table) Spans(ranges map[string]expr.Range) []Span {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var spans []Span
	var scanned, pruned uint64
	pos := 0
	for _, p := range t.sealed {
		if pos += p.rows; t.cannotMatch(p.r, ranges) {
			pruned++
			continue
		}
		scanned++
		spans = append(spans, Span{pos - p.rows, pos})
	}
	s, e := 0, t.rows-t.sealedRows
	for name, rg := range ranges {
		if c := t.schema.IndexOf(name); c >= 0 && t.sorted[c] && s < e {
			v := t.cols[c].Ints[s:e]
			if exactInts(float64(v[0]), float64(v[len(v)-1]), rg) {
				e = s + sort.Search(len(v), func(i int) bool { return float64(v[i]) > rg.Hi })
				s += sort.Search(len(v), func(i int) bool { return float64(v[i]) >= rg.Lo })
			}
		}
	}
	if s < e {
		spans = append(spans, Span{t.sealedRows + s, t.sealedRows + e})
	}
	if d, ok := t.backend.(*Durable); ok {
		d.segsScanned.Add(scanned)
		d.segsPruned.Add(pruned)
	}
	return spans
}

// exactInts reports whether rg, compared against INT values in [lo, hi],
// says exactly what a filter's comparisons say. Every finite bound must lie
// strictly within ±2^53, where float64 holds each integer and DeriveRanges'
// one-ULP nudge is exact: `ts < 2^53+1` becomes ts <= 2^53-1, while a row
// 2^53 passes it, and row 2^53+1's footer value rounds onto 2^53. NaN
// fails too.
func exactInts(lo, hi float64, rg expr.Range) bool {
	for _, x := range []float64{lo, hi, rg.Lo, rg.Hi} {
		if !math.IsInf(x, 0) && !(math.Abs(x) < 1<<53) {
			return false
		}
	}
	return true
}

// cannotMatch reports whether r's footer proves no row of it lies in one
// of ranges. Bounds count only if they cover every value a filter
// compares: recorded (not VARCHAR, NULL-only, NaN or ±Inf), no NULL value
// slots, and for INT exact (exactInts).
func (t *Table) cannotMatch(r *segment.Reader, ranges map[string]expr.Range) bool {
	for name, rg := range ranges {
		c := t.schema.IndexOf(name)
		if c < 0 {
			continue
		}
		lo, hi, ok := r.Stats(c)
		if !ok || r.HasNulls(c) || t.schema.Columns[c].Type == types.Int && !exactInts(lo, hi, rg) {
			continue
		}
		if hi < rg.Lo || lo > rg.Hi || rg.Empty() {
			return true
		}
	}
	return false
}

// ColumnStats summarizes one column for optimizer use: min/max for numeric
// columns, and the set of distinct values when small. The cross optimizer
// uses these to derive predicates from data properties (paper §4.1,
// "predicate-based pruning ... based on data properties").
type ColumnStats struct {
	Name          string
	Min, Max      float64
	DistinctCount int
	// Distinct holds the distinct values when DistinctCount <= maxDistinct
	// (as float64 for numeric columns; strings use DistinctStrings).
	Distinct        []float64
	DistinctStrings []string
	NumRows         int
}

const maxDistinct = 64

// statsChunk is the row granularity Stats streams a column at, so a
// larger-than-RAM table never materializes whole for statistics.
const statsChunk = 8192

// Stats computes fresh statistics for the named column, streaming over
// sealed segments and the tail in chunks. Statistics are computed on
// demand rather than cached: tables in this engine are bulk-loaded once
// per experiment.
func (t *Table) Stats(col string) (*ColumnStats, error) {
	idx := t.schema.IndexOf(col)
	if idx < 0 {
		return nil, fmt.Errorf("storage: table %s has no column %q", t.Name, col)
	}
	rows := t.NumRows()
	typ := t.schema.Columns[idx].Type
	st := &ColumnStats{Name: col, Min: math.Inf(1), Max: math.Inf(-1), NumRows: rows}
	seenF := make(map[float64]struct{})
	seenS := make(map[string]struct{})
	cols := []int{idx}
	for lo := 0; lo < rows; lo += statsChunk {
		b, err := t.ScanRange(lo, min(lo+statsChunk, rows), cols)
		if err != nil {
			return nil, err
		}
		v, n := b.Vecs[0], b.Len()
		switch typ {
		case types.Float, types.Int, types.Bool:
			for i := 0; i < n; i++ {
				x := v.AsFloat(i)
				if x < st.Min {
					st.Min = x
				}
				if x > st.Max {
					st.Max = x
				}
				if len(seenF) <= maxDistinct {
					seenF[x] = struct{}{}
				}
			}
		case types.String:
			for i := 0; i < n; i++ {
				if len(seenS) <= maxDistinct {
					seenS[v.Strings[i]] = struct{}{}
				}
			}
		}
	}
	switch typ {
	case types.Float, types.Int, types.Bool:
		st.DistinctCount = len(seenF)
		if len(seenF) <= maxDistinct {
			for x := range seenF {
				st.Distinct = append(st.Distinct, x)
			}
		}
	case types.String:
		st.DistinctCount = len(seenS)
		if len(seenS) <= maxDistinct {
			for s := range seenS {
				st.DistinctStrings = append(st.DistinctStrings, s)
			}
		}
	}
	return st, nil
}
