// Pipeline breakers: the materializing operators (aggregate, join, sort).
// Each one consumes its input through a MorselSource with its own pool of
// workers — the same claim-a-morsel loop Exchange uses, and like it run
// on the caller's goroutine when there is one worker — so the pipeline
// below a breaker keeps every core busy, and each guarantees output
// bit-identical at any DOP and morsel size:
//
//   - ParallelHashAggregate folds morsels into per-worker partial tables
//     and merges them; exact float summation (fsum.go) plus first-seen
//     (seq, row) group ordering make the result DOP-invariant.
//   - ParallelHashJoin materializes the build side in morsel order, then
//     builds key-hash-partitioned tables in parallel (no partition is
//     shared between build workers); the probe side runs as a pushable
//     HashProbeStage inside the left scan's exchange.
//   - RunSort stable-sorts each morsel into a run and streams a k-way
//     heap merge of the runs, breaking key ties by global row position —
//     exactly a stable sort of the whole input. Under a LIMIT k a run is
//     only its morsel's first k rows.
package exec

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"raven/internal/plan"
	"raven/internal/types"
)

// forEachWorker runs fn(0) .. fn(n-1) concurrently and waits for all of
// them. One worker means no goroutine: fn(0) runs on the caller's.
func forEachWorker(n int, fn func(w int)) {
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// consumeMorsels runs dop workers that claim morsels from src, handing
// each non-empty batch to fold. fold runs concurrently on different
// workers but w identifies the calling worker, so per-worker state needs
// no locking. The first error (including ctx cancellation, checked
// between morsels) stops all workers; every worker has exited when
// consumeMorsels returns.
func consumeMorsels(src MorselSource, dop int, ctx context.Context, fold func(w, seq int, b *types.Batch) error) error {
	if dop < 1 {
		dop = 1
	}
	if err := src.Open(); err != nil {
		return err
	}
	defer src.Close()
	var (
		mu       sync.Mutex
		firstErr error
		failed   atomic.Bool
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			failed.Store(true)
		}
		mu.Unlock()
	}
	forEachWorker(dop, func(w int) {
		for !failed.Load() {
			if err := ctxErr(ctx); err != nil {
				fail(err)
				return
			}
			seq, b, err := src.NextMorsel()
			if err != nil {
				fail(err)
				return
			}
			if b == nil {
				return
			}
			if b.Len() == 0 {
				continue // fully filtered morsel; seq stays dense
			}
			if err := fold(w, seq, b); err != nil {
				fail(err)
				return
			}
		}
	})
	return firstErr
}

// ---------------------------------------------------------------------------
// Two-phase aggregation

// partialGroup is one group's per-worker partial state plus the earliest
// (seq, row) position the group was seen at — the key to emitting groups
// in exactly the order a one-worker scan would first encounter them.
type partialGroup struct {
	g        *aggGroup
	firstSeq int
	firstRow int
}

func (p *partialGroup) before(o *partialGroup) bool {
	if p.firstSeq != o.firstSeq {
		return p.firstSeq < o.firstSeq
	}
	return p.firstRow < o.firstRow
}

// ParallelHashAggregate is the two-phase grouped aggregation: each worker
// folds its morsels into a private partial-aggregate table, then a merge
// stage combines the partials and emits groups in first-seen order,
// streamed as DefaultBatchSize chunks. Output is bit-identical for any DOP
// and morsel size (see aggGroup), and to the single-table reference
// aggregate the tests keep.
type ParallelHashAggregate struct {
	Source  MorselSource
	DOP     int
	GroupBy []string
	Aggs    []plan.AggSpec
	// Ctx cancels the fold and merge phases.
	Ctx context.Context

	schema *types.Schema
	keyIdx []int
	fam    aggFamilies
	out    []*types.Batch
	pos    int
}

// NewParallelHashAggregate builds the operator over an unopened morsel
// pipeline.
func NewParallelHashAggregate(src MorselSource, dop int, groupBy []string, aggs []plan.AggSpec, ctx context.Context) (*ParallelHashAggregate, error) {
	schema, err := aggOutputSchema(src.Schema(), groupBy, aggs)
	if err != nil {
		return nil, err
	}
	keyIdx := make([]int, len(groupBy))
	for i, g := range groupBy {
		keyIdx[i] = src.Schema().IndexOf(g)
	}
	return &ParallelHashAggregate{
		Source: src, DOP: dop, GroupBy: groupBy, Aggs: aggs, Ctx: ctx,
		schema: schema, keyIdx: keyIdx, fam: aggFamiliesOf(aggs, src.Schema()),
	}, nil
}

// Schema implements Operator.
func (h *ParallelHashAggregate) Schema() *types.Schema { return h.schema }

// Open implements Operator: run the parallel fold, then merge and emit.
func (h *ParallelHashAggregate) Open() error {
	h.out, h.pos = nil, 0
	dop := h.DOP
	if dop < 1 {
		dop = 1
	}
	partials := make([]map[string]*partialGroup, dop)
	for w := range partials {
		partials[w] = make(map[string]*partialGroup)
	}
	err := consumeMorsels(h.Source, dop, h.Ctx, func(w, seq int, b *types.Batch) error {
		argVals := make([]*types.Vector, len(h.Aggs))
		if err := evalAggArgs(argVals, h.Aggs, b); err != nil {
			return err
		}
		m := partials[w]
		var scratch []byte
		for i := 0; i < b.Len(); i++ {
			scratch = appendGroupKey(scratch, b, h.keyIdx, i)
			// Zero-alloc lookup; the key string materializes only on insert.
			pg, ok := m[string(scratch)]
			if !ok {
				key := string(scratch)
				pg = &partialGroup{g: newAggGroup(len(h.keyIdx), h.Aggs, h.fam), firstSeq: seq, firstRow: i}
				for k, ki := range h.keyIdx {
					pg.g.keys[k] = b.Vecs[ki].Value(i)
				}
				m[key] = pg
			} else if seq < pg.firstSeq || (seq == pg.firstSeq && i < pg.firstRow) {
				// Unreachable with today's monotonic morsel sources, but a
				// source handing out seqs out of claim order must also
				// re-capture the key values: rows whose keys render the
				// same (e.g. NaNs with different payloads) can differ in
				// bits, and the emitted group key must be the globally
				// first row's.
				pg.firstSeq, pg.firstRow = seq, i
				for k, ki := range h.keyIdx {
					pg.g.keys[k] = b.Vecs[ki].Value(i)
				}
			}
			pg.g.observe(h.Aggs, argVals, i)
		}
		putAggArgs(argVals, h.Aggs)
		return nil
	})
	if err != nil {
		return err
	}
	return h.mergeAndEmit(partials)
}

// mergeAndEmit combines per-worker partials and renders the output
// batches in deterministic first-seen order.
func (h *ParallelHashAggregate) mergeAndEmit(partials []map[string]*partialGroup) error {
	merged := make(map[string]*partialGroup)
	for _, m := range partials {
		if err := ctxErr(h.Ctx); err != nil {
			return err
		}
		for key, pg := range m {
			dst, ok := merged[key]
			if !ok {
				merged[key] = pg
				continue
			}
			if pg.before(dst) {
				// Keep the key values of the globally first-seen row so the
				// emitted group columns do not depend on the DOP.
				dst.firstSeq, dst.firstRow = pg.firstSeq, pg.firstRow
				dst.g.keys = pg.g.keys
			}
			dst.g.merge(pg.g, h.Aggs)
		}
	}
	groups := make([]*partialGroup, 0, len(merged))
	for _, pg := range merged {
		groups = append(groups, pg)
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a].before(groups[b]) })
	cur := types.NewBatch(h.schema)
	for gi, pg := range groups {
		if gi%4096 == 0 {
			if err := ctxErr(h.Ctx); err != nil {
				return err
			}
		}
		if err := cur.AppendRow(pg.g.emitRow(h.Aggs, h.schema, len(h.keyIdx))...); err != nil {
			return err
		}
		if cur.Len() >= types.DefaultBatchSize {
			h.out = append(h.out, cur)
			cur = types.NewBatch(h.schema)
		}
	}
	if cur.Len() > 0 {
		h.out = append(h.out, cur)
	}
	return nil
}

// Next implements Operator.
func (h *ParallelHashAggregate) Next() (*types.Batch, error) {
	if err := ctxErr(h.Ctx); err != nil {
		return nil, err
	}
	if h.pos >= len(h.out) {
		return nil, nil
	}
	b := h.out[h.pos]
	h.pos++
	return b, nil
}

// Close implements Operator.
func (h *ParallelHashAggregate) Close() error {
	h.out = nil
	return nil
}

// ---------------------------------------------------------------------------
// Parallel hash join

// joinBuild is the partitioned hash table over the materialized build
// side. Partitions are disjoint by key hash, so build workers own
// partitions exclusively and never synchronize; each partition's match
// lists hold global build-row ordinals in increasing order, which is what
// makes probe output identical to a single-table build.
type joinBuild struct {
	rightAll *types.Batch
	shift    uint // 64 - log2(len(parts))
	mask     int
	// intParts is the typed fast path used when the build key is INT;
	// anyParts handles every other key type (keyed by the boxed value).
	intParts []map[int64][]int32
	anyParts []map[any][]int32
}

const fibMix = 0x9E3779B97F4A7C15

func (jb *joinBuild) intPart(k int64) int {
	return int((uint64(k)*fibMix)>>jb.shift) & jb.mask
}

// anyPartAt hashes row i of a non-INT key vector to its partition. NULL
// rows hash to partition 0 so build and probe agree regardless of the
// undefined raw value behind the null mask.
func (jb *joinBuild) anyPartAt(v *types.Vector, i int) int {
	if v.IsNull(i) {
		return 0
	}
	var h uint64
	switch v.Type {
	case types.Float:
		f := v.Floats[i]
		if f == 0 {
			f = 0 // +0.0 and -0.0 compare equal but differ in bits: same partition
		}
		h = math.Float64bits(f)
	case types.Bool:
		if v.Bools[i] {
			h = 1
		}
	case types.String:
		h = 14695981039346656037
		for _, c := range []byte(v.Strings[i]) {
			h ^= uint64(c)
			h *= 1099511628211
		}
	}
	return int((h*fibMix)>>jb.shift) & jb.mask
}

// buildJoinTables materializes the build input (in morsel order) and
// constructs the partitioned hash tables with dop workers.
func buildJoinTables(src MorselSource, dop int, ctx context.Context, keyIdx int) (*joinBuild, error) {
	if dop < 1 {
		dop = 1
	}
	// Phase 1: consume the build pipeline in parallel, keeping per-seq
	// batches so the materialized order is the source order.
	var mu sync.Mutex
	type seqBatch struct {
		seq int
		b   *types.Batch
	}
	var got []seqBatch
	err := consumeMorsels(src, dop, ctx, func(w, seq int, b *types.Batch) error {
		mu.Lock()
		got = append(got, seqBatch{seq, b})
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(got, func(a, b int) bool { return got[a].seq < got[b].seq })
	all := types.NewBatch(src.Schema())
	total := 0
	for _, sb := range got {
		total += sb.b.Len()
	}
	all.Grow(total)
	for _, sb := range got {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		if err := all.Append(sb.b); err != nil {
			return nil, err
		}
	}

	n := all.Len()
	nParts := 1
	for nParts < 4*dop && nParts < 256 {
		nParts <<= 1
	}
	jb := &joinBuild{
		rightAll: all,
		shift:    uint(64 - bits.TrailingZeros(uint(nParts))),
		mask:     nParts - 1,
	}
	kv := all.Vecs[keyIdx]
	intKeys := kv.Type == types.Int
	part := func(i int) int { return jb.anyPartAt(kv, i) }
	if intKeys {
		part = func(i int) int { return jb.intPart(kv.Ints[i]) }
	}

	// Phase 2: partition rows in parallel over row ranges, collecting
	// per-chunk per-partition row lists. Chunks are ordered row ranges,
	// so concatenating a partition's lists in chunk order preserves
	// global row order — and phase 3 never has to rescan the table.
	chunk := (n + dop - 1) / dop
	if chunk < 1 {
		chunk = 1
	}
	nChunks := (n + chunk - 1) / chunk
	byChunk := make([][][]int32, nChunks)
	forEachWorker(nChunks, func(ci int) {
		lo := ci * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		lists := make([][]int32, nParts)
		for i := lo; i < hi; i++ {
			if i&0xFFFF == 0 && ctxErr(ctx) != nil {
				return
			}
			p := part(i)
			lists[p] = append(lists[p], int32(i))
		}
		byChunk[ci] = lists
	})
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	// Phase 3: build. Worker w owns partitions p with p%dop == w, so no
	// map is ever shared; it walks its partitions' row lists in chunk
	// order, keeping every match list in global row order.
	if intKeys {
		jb.intParts = make([]map[int64][]int32, nParts)
	} else {
		jb.anyParts = make([]map[any][]int32, nParts)
	}
	forEachWorker(dop, func(w int) {
		for p := w; p < nParts; p += dop {
			if intKeys {
				jb.intParts[p] = buildPartition(ctx, byChunk, p, func(i int32) int64 { return kv.Ints[i] })
			} else {
				jb.anyParts[p] = buildPartition(ctx, byChunk, p, func(i int32) any { return kv.Value(int(i)) })
			}
		}
	})
	return jb, ctxErr(ctx)
}

// buildPartition builds partition p's table from its row lists, in chunk
// order. Phase 2 already counted the partition's rows, so the map is sized
// to them up front — exact for a unique key — and never rehashes on the way
// up. A cancelled build returns early; the caller reports ctx's error.
func buildPartition[K comparable](ctx context.Context, byChunk [][][]int32, p int, key func(i int32) K) map[K][]int32 {
	rows := 0
	for _, lists := range byChunk {
		if lists == nil {
			return nil // a phase-2 worker bailed on cancellation
		}
		rows += len(lists[p])
	}
	m := make(map[K][]int32, rows)
	for _, lists := range byChunk {
		for j, i := range lists[p] {
			if j&0xFFFF == 0 && ctxErr(ctx) != nil {
				return nil
			}
			k := key(i)
			m[k] = append(m[k], i)
		}
	}
	return m
}

// HashProbeStage probes the partitioned build tables. It is pushed onto
// the left input's pipeline so probing runs inside the scan pipeline, on
// whichever worker claimed the morsel; ParallelHashJoin binds the build
// tables before that pipeline opens.
type HashProbeStage struct {
	LeftCol string
	right   *types.Schema
	rightCl string

	leftIdx  int
	rightSel []int
	out      *types.Schema
	bld      *joinBuild
}

// NewHashProbeStage builds the stage; the build-side schema is needed up
// front so OutSchema can drop the duplicate key column like plan.Join.
func NewHashProbeStage(leftCol string, rightSchema *types.Schema, rightCol string) *HashProbeStage {
	return &HashProbeStage{LeftCol: leftCol, right: rightSchema, rightCl: rightCol}
}

// OutSchema implements Stage.
func (p *HashProbeStage) OutSchema(in *types.Schema) (*types.Schema, error) {
	p.leftIdx = in.IndexOf(p.LeftCol)
	if p.leftIdx < 0 {
		return nil, fmt.Errorf("exec: join key %q not in left schema", p.LeftCol)
	}
	out, rightSel, _, err := joinOutputSchema(in, p.right, p.rightCl)
	if err != nil {
		return nil, err
	}
	p.out, p.rightSel = out, rightSel
	return p.out, nil
}

// Apply implements Stage. The build tables are immutable once bound, so
// concurrent probes from every exchange worker are safe.
func (p *HashProbeStage) Apply(b *types.Batch) (*types.Batch, error) {
	jb := p.bld
	if jb == nil {
		return nil, fmt.Errorf("exec: probe stage applied before the join build phase")
	}
	kv := b.Vecs[p.leftIdx]
	lp, rp := getSel(), getSel()
	leftSel, rightSel := (*lp)[:0], (*rp)[:0]
	release := func() {
		*lp, *rp = leftSel, rightSel
		putSel(lp)
		putSel(rp)
	}
	if jb.intParts != nil {
		if kv.Type != types.Int {
			release()
			return nil, nil // typed key mismatch: no matches
		}
		for i, k := range kv.Ints {
			for _, r := range jb.intParts[jb.intPart(k)][k] {
				leftSel = append(leftSel, i)
				rightSel = append(rightSel, int(r))
			}
		}
	} else {
		for i := 0; i < b.Len(); i++ {
			k := kv.Value(i)
			for _, r := range jb.anyParts[jb.anyPartAt(kv, i)][k] {
				leftSel = append(leftSel, i)
				rightSel = append(rightSel, int(r))
			}
		}
	}
	if len(leftSel) == 0 {
		release()
		return nil, nil
	}
	lpart := b.Gather(leftSel)
	rpart := jb.rightAll.Gather(rightSel).Project(p.rightSel)
	release()
	vecs := make([]*types.Vector, 0, len(lpart.Vecs)+len(rpart.Vecs))
	vecs = append(vecs, lpart.Vecs...)
	vecs = append(vecs, rpart.Vecs...)
	return &types.Batch{Schema: p.out, Vecs: vecs}, nil
}

// ParallelHashJoin runs the partitioned parallel build at Open and then
// delegates to the probe pipeline (the left input's exchange carrying the
// probe stage).
type ParallelHashJoin struct {
	Build    MorselSource
	BuildDOP int
	Probe    Operator
	// Ctx cancels the build phase and probe polling.
	Ctx context.Context

	stage  *HashProbeStage
	keyIdx int
}

// NewParallelHashJoin wires the operator together. stage must already be
// pushed onto probe.
func NewParallelHashJoin(build MorselSource, buildDOP int, probe Operator, stage *HashProbeStage, rightCol string, ctx context.Context) (*ParallelHashJoin, error) {
	ri := build.Schema().IndexOf(rightCol)
	if ri < 0 {
		return nil, fmt.Errorf("exec: join key %q not in right schema", rightCol)
	}
	return &ParallelHashJoin{Build: build, BuildDOP: buildDOP, Probe: probe, Ctx: ctx, stage: stage, keyIdx: ri}, nil
}

// Schema implements Operator.
func (j *ParallelHashJoin) Schema() *types.Schema { return j.Probe.Schema() }

// Open implements Operator: build, bind, then open the probe pipeline.
func (j *ParallelHashJoin) Open() error {
	bld, err := buildJoinTables(j.Build, j.BuildDOP, j.Ctx, j.keyIdx)
	if err != nil {
		return err
	}
	j.stage.bld = bld
	return j.Probe.Open()
}

// Next implements Operator.
func (j *ParallelHashJoin) Next() (*types.Batch, error) {
	if err := ctxErr(j.Ctx); err != nil {
		return nil, err
	}
	return j.Probe.Next()
}

// Close implements Operator. The probe pipeline closes first — joining
// any workers still probing — before the build tables are released;
// nil-ing bld while an Apply is mid-morsel would be a data race.
func (j *ParallelHashJoin) Close() error {
	err := j.Probe.Close()
	j.stage.bld = nil
	return err
}

// ---------------------------------------------------------------------------
// Run merge-sort

// sortRun is one stable-sorted morsel: the run buffer (a private, pooled
// copy of the morsel), the sorting permutation (perm[k] is the original
// row index of the k-th smallest row), and a cursor for the merge.
type sortRun struct {
	seq  int
	b    *types.Batch
	perm []int
	// permHandle returns perm's backing array to the selection pool once
	// the merge drains this run.
	permHandle *[]int
	pos        int
}

// RunSort is the sort breaker: each worker stable-sorts its morsels into
// runs, and Next streams a k-way heap merge of the runs in
// DefaultBatchSize batches instead of one giant batch. Key ties break by
// (seq, original row), so the output is exactly a stable sort of the
// input — bit-identical for any DOP and morsel size.
type RunSort struct {
	Source MorselSource
	DOP    int
	Keys   []plan.SortKey
	// Limit, when positive, promises that only the first Limit rows will be
	// read (the LIMIT directly above the sort): a run then holds just its
	// morsel's first Limit rows, since no other row of the morsel can be
	// among the first Limit overall. The rows that are read are the same.
	Limit int
	// Ctx cancels the run-sort and merge phases.
	Ctx context.Context

	schema *types.Schema
	keyIdx []int
	runs   []*sortRun
	heap   []*sortRun
	// pool recycles run buffers: each run is a private copy of its morsel
	// (the morsel itself may be a zero-copy view of table storage), so it
	// returns to the pool as soon as the merge drains it — across Next
	// calls of one query and across queries sharing the operator.
	pool *types.BatchPool
}

// NewRunSort builds the operator, resolving sort keys eagerly.
func NewRunSort(src MorselSource, dop int, keys []plan.SortKey, ctx context.Context) (*RunSort, error) {
	schema := src.Schema()
	keyIdx := make([]int, len(keys))
	for i, k := range keys {
		j := schema.IndexOf(k.Col)
		if j < 0 {
			return nil, fmt.Errorf("exec: sort key %q not found", k.Col)
		}
		keyIdx[i] = j
	}
	return &RunSort{Source: src, DOP: dop, Keys: keys, Ctx: ctx, schema: schema, keyIdx: keyIdx}, nil
}

// Schema implements Operator.
func (s *RunSort) Schema() *types.Schema { return s.schema }

// rowOrder compares rows i and j of one batch.
type rowOrder func(i, j int) int

// ordered resolves a key column's comparison once for the whole column
// (compareVecs decides the type again on every call). cmp.Compare is the
// total order compareVecs documents: NaN before everything else.
func ordered[T cmp.Ordered](xs []T, desc bool) rowOrder {
	if desc {
		return func(i, j int) int { return cmp.Compare(xs[j], xs[i]) }
	}
	return func(i, j int) int { return cmp.Compare(xs[i], xs[j]) }
}

// orderOf returns b's row order under the sort keys alone; callers add the
// row-position tie-break (a stable sort, or firstRows' own).
func (s *RunSort) orderOf(b *types.Batch) rowOrder {
	byKey := make([]rowOrder, len(s.Keys))
	for k, key := range s.Keys {
		switch v := b.Vecs[s.keyIdx[k]]; {
		case v.Const:
			byKey[k] = func(int, int) int { return 0 }
		case v.Type == types.String:
			byKey[k] = ordered(v.Strings, key.Desc)
		case v.Type == types.Int:
			byKey[k] = ordered(v.Ints, key.Desc)
		case v.Type == types.Float:
			byKey[k] = ordered(v.Floats, key.Desc)
		default:
			sign := 1
			if key.Desc {
				sign = -1
			}
			byKey[k] = func(i, j int) int { return sign * compareVecs(v, i, v, j) }
		}
	}
	if len(byKey) == 1 {
		return byKey[0]
	}
	return func(i, j int) int {
		for _, c := range byKey {
			if r := c(i, j); r != 0 {
				return r
			}
		}
		return 0
	}
}

// siftDown restores the heap property below h[i]; less(h[a], h[b]) puts
// h[a] nearer the root.
func siftDown[T any](h []T, i int, less func(a, b T) bool) {
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(h) && less(h[l], h[m]) {
			m = l
		}
		if r < len(h) && less(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// firstRows returns, ascending, which k of rows 0..n-1 come first in
// (order, row) order, reusing keep's storage. keep is a heap of the k best
// rows so far with the last of them at the root, so almost every row is
// turned away by one comparison.
func firstRows(n, k int, order rowOrder, keep []int) []int {
	after := func(a, b int) bool {
		c := order(a, b)
		return c > 0 || (c == 0 && a > b)
	}
	for i := 0; i < k; i++ {
		keep = append(keep, i)
	}
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(keep, i, after)
	}
	for i := k; i < n; i++ {
		if order(i, keep[0]) < 0 { // a tie loses: i is the later row
			keep[0] = i
			siftDown(keep, 0, after)
		}
	}
	slices.Sort(keep)
	return keep
}

// Open implements Operator: produce sorted runs in parallel and heapify.
func (s *RunSort) Open() error {
	s.runs, s.heap = nil, nil
	if s.pool == nil {
		s.pool = types.NewBatchPool(s.schema)
	}
	var mu sync.Mutex
	err := consumeMorsels(s.Source, s.DOP, s.Ctx, func(w, seq int, b *types.Batch) error {
		// Copy the morsel — under a limit, its first Limit rows, in morsel
		// order — into a pooled run buffer. The morsel batch may alias table
		// storage or other live batches; the copy is private to the sort,
		// which is what lets it recycle once drained.
		rb := s.pool.Get()
		if s.Limit > 0 && s.Limit < b.Len() {
			sel := getSel()
			*sel = firstRows(b.Len(), s.Limit, s.orderOf(b), (*sel)[:0])
			for c, v := range b.Vecs {
				v.GatherInto(rb.Vecs[c], *sel)
			}
			putSel(sel)
		} else {
			rb.Grow(b.Len())
			if err := rb.Append(b); err != nil {
				s.pool.Put(rb)
				return err
			}
		}
		r := &sortRun{seq: seq, b: rb, permHandle: getSel()}
		perm := (*r.permHandle)[:0]
		for i := 0; i < rb.Len(); i++ {
			perm = append(perm, i)
		}
		r.perm = perm
		slices.SortStableFunc(r.perm, s.orderOf(rb))
		mu.Lock()
		s.runs = append(s.runs, r)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return err
	}
	sort.Slice(s.runs, func(a, b int) bool { return s.runs[a].seq < s.runs[b].seq })
	s.heap = append(s.heap, s.runs...)
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		siftDown(s.heap, i, s.runLess)
	}
	return nil
}

// runLess orders the merge heap: by sort keys, then by global position
// (seq, original row) so equal keys come out in input order.
func (s *RunSort) runLess(a, b *sortRun) bool {
	ia, ib := a.perm[a.pos], b.perm[b.pos]
	for ki, k := range s.Keys {
		c := compareVecs(a.b.Vecs[s.keyIdx[ki]], ia, b.b.Vecs[s.keyIdx[ki]], ib)
		if c == 0 {
			continue
		}
		if k.Desc {
			return c > 0
		}
		return c < 0
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return ia < ib
}

// releaseRun returns a drained run's buffers to their pools. The output
// batches copy rows out of the run (AppendFrom), so nothing references
// the buffer once its cursor passes the end.
func (s *RunSort) releaseRun(r *sortRun) {
	if r.b != nil {
		s.pool.Put(r.b)
		r.b = nil
	}
	if r.permHandle != nil {
		*r.permHandle = r.perm[:0]
		putSel(r.permHandle)
		r.permHandle = nil
		r.perm = nil
	}
}

// Next implements Operator: pop up to one batch worth of rows from the
// merge heap.
func (s *RunSort) Next() (*types.Batch, error) {
	if len(s.heap) == 0 {
		return nil, nil
	}
	if err := ctxErr(s.Ctx); err != nil {
		return nil, err
	}
	rem := 0
	for _, r := range s.heap {
		rem += len(r.perm) - r.pos
	}
	if rem > types.DefaultBatchSize {
		rem = types.DefaultBatchSize
	}
	out := types.NewBatch(s.schema)
	out.Grow(rem)
	for out.Len() < types.DefaultBatchSize && len(s.heap) > 0 {
		r := s.heap[0]
		row := r.perm[r.pos]
		for c := range out.Vecs {
			out.Vecs[c].AppendFrom(r.b.Vecs[c], row)
		}
		r.pos++
		if r.pos >= len(r.perm) {
			last := len(s.heap) - 1
			s.heap[0] = s.heap[last]
			s.heap = s.heap[:last]
			s.releaseRun(r)
		}
		siftDown(s.heap, 0, s.runLess)
	}
	return out, nil
}

// Close implements Operator: any runs the merge did not drain (LIMIT,
// cancellation) go back to the pool here.
func (s *RunSort) Close() error {
	for _, r := range s.runs {
		s.releaseRun(r)
	}
	s.runs, s.heap = nil, nil
	return nil
}
