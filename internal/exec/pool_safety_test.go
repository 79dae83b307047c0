package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"raven/internal/plan"
	"raven/internal/storage"
	"raven/internal/types"
)

// poolSortTable builds a table of n rows with a descending int key and a
// float payload derived from it, so sorted output is trivially checkable:
// k must come out 0..n-1 and v must stay 2*k+0.5 row for row.
func poolSortTable(t *testing.T, n int) *storage.Table {
	t.Helper()
	tb := storage.NewTable("ps", types.NewSchema(
		types.Column{Name: "k", Type: types.Int},
		types.Column{Name: "v", Type: types.Float},
	))
	for i := 0; i < n; i++ {
		k := int64(n - 1 - i)
		if err := tb.AppendRow(k, float64(2*k)+0.5); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func newPoolRunSort(t *testing.T, tb *storage.Table, ctx context.Context) *RunSort {
	t.Helper()
	src, err := NewTableMorselSource(tb, []string{"k", "v"}, 512)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewRunSort(src, 4, []plan.SortKey{{Col: "k"}}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// verifyPoolSort checks retained output batches against the known sorted
// order of poolSortTable.
func verifyPoolSort(t *testing.T, label string, n int, got []*types.Batch) {
	t.Helper()
	i := 0
	for _, b := range got {
		ks, vs := b.Col("k"), b.Col("v")
		for r := 0; r < b.Len(); r++ {
			if ks.Ints[r] != int64(i) || vs.Floats[r] != float64(2*i)+0.5 {
				t.Fatalf("%s: row %d: got (%d, %v), want (%d, %v) — a recycled run buffer leaked into live results",
					label, i, ks.Ints[r], vs.Floats[r], i, float64(2*i)+0.5)
			}
			i++
		}
	}
	if i != n {
		t.Fatalf("%s: drained %d rows, want %d", label, i, n)
	}
}

// TestRunSortRecycledRunsNeverAliasResults is the aliasing safety net for
// the run-buffer pool: output batches retained across the whole query —
// and across a SECOND query that reuses the recycled run buffers — must
// keep their original values. If Next ever returned rows that share
// storage with a pooled run, the second query would scribble over them.
func TestRunSortRecycledRunsNeverAliasResults(t *testing.T) {
	const n = 10_000
	tb := poolSortTable(t, n)
	s := newPoolRunSort(t, tb, context.Background())

	drain := func() []*types.Batch {
		t.Helper()
		if err := s.Open(); err != nil {
			t.Fatal(err)
		}
		var out []*types.Batch
		for {
			b, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil || b.Len() == 0 {
				break
			}
			out = append(out, b)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return out
	}

	first := drain()
	gets1, puts1, news1 := s.pool.Stats()
	if gets1 != puts1 {
		t.Fatalf("after drain: pool gets=%d puts=%d — a run buffer was not returned", gets1, puts1)
	}
	if news1 == 0 || news1 > gets1 {
		t.Fatalf("after drain: pool news=%d gets=%d", news1, gets1)
	}

	// Second query over the same operator: its runs come out of the pool
	// (recycled buffers). If first's batches alias any run buffer, this
	// overwrites them.
	_ = drain()
	gets2, puts2, news2 := s.pool.Stats()
	if gets2 != puts2 {
		t.Fatalf("after second drain: pool gets=%d puts=%d", gets2, puts2)
	}
	if fresh := news2 - news1; fresh > news1 {
		t.Fatalf("second query allocated %d fresh run buffers (first used %d) — recycling is not happening", fresh, news1)
	}

	verifyPoolSort(t, "retained results after recycling", n, first)
}

// poolLimits runs a pool-contract test over the unbounded sort and over
// one whose runs are truncated to their first 50 rows (RunSort.Limit): the
// truncated copy takes a different path into the run buffer, and must
// give it back on every path out all the same.
func poolLimits(t *testing.T, test func(t *testing.T, limit int)) {
	for _, limit := range []int{0, 50} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) { test(t, limit) })
	}
}

// TestRunSortEarlyCloseReturnsRuns: a partially drained sort (LIMIT
// shape) must hand every undrained run back to the pool on Close, and
// the rows already emitted must survive the next query's reuse of those
// buffers.
func TestRunSortEarlyCloseReturnsRuns(t *testing.T) { poolLimits(t, testRunSortEarlyCloseReturnsRuns) }

func testRunSortEarlyCloseReturnsRuns(t *testing.T, limit int) {
	const n = 10_000
	tb := poolSortTable(t, n)
	s := newPoolRunSort(t, tb, context.Background())
	s.Limit = limit

	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	head, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if head == nil || head.Len() == 0 {
		t.Fatal("no first batch")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	gets, puts, _ := s.pool.Stats()
	if gets != puts {
		t.Fatalf("after early close: pool gets=%d puts=%d — undrained runs leaked", gets, puts)
	}

	// Reuse the recycled buffers, then check the retained head batch.
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if limit > 0 {
		head = head.Slice(0, limit) // all a reader under LIMIT may look at
	}
	verifyPoolSort(t, "head batch after early close", head.Len(), []*types.Batch{head})
}

// cancelAfterSource cancels a context after handing out a fixed number of
// morsels, so the sort fails mid-Open with workers in flight.
type cancelAfterSource struct {
	src    MorselSource
	cancel context.CancelFunc
	after  int64
	seen   atomic.Int64
}

func (c *cancelAfterSource) Open() error           { return c.src.Open() }
func (c *cancelAfterSource) Close() error          { return c.src.Close() }
func (c *cancelAfterSource) Schema() *types.Schema { return c.src.Schema() }
func (c *cancelAfterSource) NextMorsel() (int, *types.Batch, error) {
	seq, b, err := c.src.NextMorsel()
	if c.seen.Add(1) == c.after {
		c.cancel()
	}
	return seq, b, err
}

// TestRunSortCancelledMidMorselReleasesRuns: cancellation while run
// production is under way must error out of Open, and Close must return
// every run that was already built to the pool (the goroutine-leak tests
// cover the workers; this covers the buffers).
func TestRunSortCancelledMidMorselReleasesRuns(t *testing.T) {
	poolLimits(t, testRunSortCancelledMidMorselReleasesRuns)
}

func testRunSortCancelledMidMorselReleasesRuns(t *testing.T, limit int) {
	const n = 20_000
	tb := poolSortTable(t, n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inner, err := NewTableMorselSource(tb, []string{"k", "v"}, 256)
	if err != nil {
		t.Fatal(err)
	}
	src := &cancelAfterSource{src: inner, cancel: cancel, after: 3}
	s, err := NewRunSort(src, 4, []plan.SortKey{{Col: "k"}}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	s.Limit = limit
	if err := s.Open(); err == nil {
		// Workers may have drained everything before the cancel landed on
		// a 1-core box; that is not a failure of the pool contract.
		for {
			b, nerr := s.Next()
			if nerr != nil || b == nil || b.Len() == 0 {
				break
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	gets, puts, _ := s.pool.Stats()
	if gets != puts {
		t.Fatalf("after cancelled sort: pool gets=%d puts=%d — error path leaked run buffers", gets, puts)
	}
}

// TestRunSortErrorPathReleasesRuns: a source that fails partway through
// (storage error shape) must leave the pool balanced once the operator
// closes, and the operator must stay usable for the retry.
func TestRunSortErrorPathReleasesRuns(t *testing.T) { poolLimits(t, testRunSortErrorPathReleasesRuns) }

func testRunSortErrorPathReleasesRuns(t *testing.T, limit int) {
	const n = 20_000
	tb := poolSortTable(t, n)
	inner, err := NewTableMorselSource(tb, []string{"k", "v"}, 256)
	if err != nil {
		t.Fatal(err)
	}
	src := &failAfterSource{src: inner, after: 5}
	s, err := NewRunSort(src, 4, []plan.SortKey{{Col: "k"}}, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s.Limit = limit
	if err := s.Open(); err == nil {
		t.Fatal("Open succeeded past an erroring source")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	gets, puts, _ := s.pool.Stats()
	if gets != puts {
		t.Fatalf("after failed sort: pool gets=%d puts=%d — error path leaked run buffers", gets, puts)
	}
}

// failAfterSource returns a hard error after a fixed number of morsels.
type failAfterSource struct {
	src   MorselSource
	after int64
	seen  atomic.Int64
}

func (f *failAfterSource) Open() error           { return f.src.Open() }
func (f *failAfterSource) Close() error          { return f.src.Close() }
func (f *failAfterSource) Schema() *types.Schema { return f.src.Schema() }
func (f *failAfterSource) NextMorsel() (int, *types.Batch, error) {
	if f.seen.Add(1) > f.after {
		return 0, nil, errSourceBroken
	}
	return f.src.NextMorsel()
}

var errSourceBroken = errors.New("pool test: source broke mid-scan")

// TestSortPlanStreamedBatchesSurviveRecycling drives the same guarantee
// through Compile: batches collected from a compiled parallel ORDER BY
// stay intact after a second execution recycles the operator's buffers.
func TestSortPlanStreamedBatchesSurviveRecycling(t *testing.T) {
	const n = 8_000
	tb := poolSortTable(t, n)
	root := &plan.Sort{Child: plan.NewScan(tb), Keys: []plan.SortKey{{Col: "k"}}}
	env := parEnv(4)

	op, err := Compile(root, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	var retained []*types.Batch
	for {
		b, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil || b.Len() == 0 {
			break
		}
		retained = append(retained, b)
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh compile+run of the same plan churns the shared vector pools.
	_ = compileCollect(t, root, env)

	verifyPoolSort(t, "streamed batches after second run", n, retained)
}
