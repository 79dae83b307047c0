package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raven/internal/expr"
	"raven/internal/plan"
	"raven/internal/storage"
	"raven/internal/types"
)

func TestTableMorselSourceCoversEveryRowOnce(t *testing.T) {
	tb := numbersTable(t, 100001) // deliberately not a multiple of the morsel size
	src, err := NewTableMorselSource(tb, nil, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Open(); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := make(map[int]int) // seq -> rows
	total := 0
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seq, b, err := src.NextMorsel()
				if err != nil {
					t.Error(err)
					return
				}
				if b == nil {
					return
				}
				mu.Lock()
				seen[seq] += b.Len()
				total += b.Len()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if total != 100001 {
		t.Fatalf("claimed %d rows, want 100001", total)
	}
	want := (100001 + 4095) / 4096
	if len(seen) != want {
		t.Fatalf("claimed %d morsels, want %d", len(seen), want)
	}
	for seq := 0; seq < want; seq++ {
		if _, ok := seen[seq]; !ok {
			t.Fatalf("sequence %d never claimed (seqs must be dense)", seq)
		}
	}
}

// TestExchangeMatchesInlineByteForByte: the same source and stages at DOP
// 2, 4 and 7 return exactly what the one-worker inline pipeline returns.
// Both sides run the same kernels; what this proves is the claim order and
// the reorder merge.
func TestExchangeMatchesInlineByteForByte(t *testing.T) {
	tb := numbersTable(t, 120000)
	pipe := func(dop int) *Exchange {
		src, err := NewTableMorselSource(tb, nil, 4096)
		if err != nil {
			t.Fatal(err)
		}
		return pushAll(t, NewExchange(src, dop),
			&FilterStage{Pred: expr.NewBinary(expr.OpGt, &expr.Column{Name: "x"}, expr.FloatLit(10))},
			&ProjectStage{
				Exprs: []expr.Expr{
					&expr.Column{Name: "id"},
					&expr.Column{Name: "x"},
					expr.NewBinary(expr.OpMul, &expr.Column{Name: "x"}, expr.FloatLit(2)),
				},
				Names: []string{"id", "x", "x2"},
			},
			&PredictStage{Predictor: constPredictor{bias: 5}, OutputCols: []types.Column{{Name: "score", Type: types.Float}}})
	}
	want, err := Collect(pipe(1))
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != 120000-21 { // x>10 excludes ids 0..20
		t.Fatalf("inline rows = %d", want.Len())
	}
	for _, dop := range []int{2, 4, 7} {
		got, err := Collect(pipe(dop))
		if err != nil {
			t.Fatal(err)
		}
		batchesEqual(t, fmt.Sprintf("dop %d", dop), want, got)
	}
}

func TestExchangeRejectsPushAfterOpen(t *testing.T) {
	tb := numbersTable(t, 1000)
	src, _ := NewTableMorselSource(tb, nil, 256)
	ex := NewExchange(src, 2)
	if err := ex.Open(); err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	if err := ex.Push(&FilterStage{Pred: expr.BoolLit(true)}); err == nil {
		t.Fatal("push after open should fail")
	}
}

// slowFirstStage stalls the very first morsel it sees, forcing every other
// worker to run far ahead — the worst case for the reorder window. The
// exchange must neither deadlock (claims are gated by window tokens) nor
// emit out of order.
type slowFirstStage struct {
	once sync.Once
}

func (s *slowFirstStage) OutSchema(in *types.Schema) (*types.Schema, error) { return in, nil }

func (s *slowFirstStage) Apply(b *types.Batch) (*types.Batch, error) {
	s.once.Do(func() { time.Sleep(50 * time.Millisecond) })
	return b, nil
}

func TestExchangeBoundedReorderWithStalledWorker(t *testing.T) {
	tb := numbersTable(t, 200000)
	src, _ := NewTableMorselSource(tb, nil, 512) // ~390 morsels
	ex := NewExchange(src, 4)
	if err := ex.Push(&slowFirstStage{}); err != nil {
		t.Fatal(err)
	}
	out, err := Collect(ex)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 200000 {
		t.Fatalf("rows = %d", out.Len())
	}
	for i := 0; i < out.Len(); i += 4999 {
		if out.Col("id").Ints[i] != int64(i) {
			t.Fatalf("id[%d] = %d: merge order broken by stalled worker", i, out.Col("id").Ints[i])
		}
	}
}

type errPredictor struct{}

func (errPredictor) PredictBatch(*types.Batch) ([]*types.Vector, error) {
	return nil, errors.New("predict boom")
}

func TestExchangePropagatesStageErrors(t *testing.T) {
	tb := numbersTable(t, 100000)
	src, _ := NewTableMorselSource(tb, nil, 4096)
	ex := NewExchange(src, 4)
	if err := ex.Push(&PredictStage{Predictor: errPredictor{}, OutputCols: []types.Column{{Name: "s", Type: types.Float}}}); err != nil {
		t.Fatal(err)
	}
	if err := ex.Open(); err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	var firstErr error
	for {
		b, err := ex.Next()
		if err != nil {
			firstErr = err
			break
		}
		if b == nil {
			t.Fatal("worker error should surface, got clean EOF")
		}
	}
	// The error is latched: re-polling must keep failing rather than skip
	// the dead morsel and emit a truncated stream.
	if _, err := ex.Next(); err == nil || err.Error() != firstErr.Error() {
		t.Fatalf("re-poll after failure = %v, want latched %v", err, firstErr)
	}
}

// countingSource counts morsel claims.
type countingSource struct {
	MorselSource
	claims atomic.Int64
}

func (c *countingSource) NextMorsel() (int, *types.Batch, error) {
	c.claims.Add(1)
	return c.MorselSource.NextMorsel()
}

func TestExchangeEarlyCloseUnderLimit(t *testing.T) {
	keepAll := &FilterStage{Pred: expr.NewBinary(expr.OpGt, &expr.Column{Name: "x"}, expr.FloatLit(-1))}
	tb := numbersTable(t, 200000)
	src, _ := NewTableMorselSource(tb, nil, 1024)
	ex := pushAll(t, NewExchange(src, 4), keepAll)
	lim := &LimitOp{Child: ex, N: 10}
	out, err := Collect(lim)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 10 {
		t.Fatalf("rows = %d", out.Len())
	}
	// first ten ids in scan order — the deterministic merge guarantee
	for i := 0; i < 10; i++ {
		if out.Col("id").Ints[i] != int64(i) {
			t.Fatalf("id[%d] = %d (limit over exchange must keep scan order)", i, out.Col("id").Ints[i])
		}
	}

	// One worker is lazy: LIMIT 1 over 100K rows claims exactly one morsel.
	inner, _ := NewTableMorselSource(numbersTable(t, 100000), nil, types.DefaultBatchSize)
	counted := &countingSource{MorselSource: inner}
	out, err = Collect(&LimitOp{Child: pushAll(t, NewExchange(counted, 1), keepAll), N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Col("id").Ints[0] != 0 {
		t.Fatalf("inline limit = %d rows", out.Len())
	}
	if n := counted.claims.Load(); n != 1 {
		t.Fatalf("LIMIT 1 at DOP 1 claimed %d morsels, want 1", n)
	}
}

func TestCompiledExchangeConcurrentQueriesShareTable(t *testing.T) {
	tb := numbersTable(t, 120000)
	scan := plan.NewScan(tb)
	f := &plan.Filter{Child: scan, Pred: expr.NewBinary(expr.OpGt, &expr.Column{Name: "x"}, expr.FloatLit(100))}
	pr := plan.NewPredict(f, "m", []types.Column{{Name: "score", Type: types.Float}})
	env := &Env{
		Parallelism: 4,
		Lower:       scoreWith(constPredictor{bias: 7}),
	}
	serialEnv := &Env{Parallelism: 1, Lower: env.Lower}
	sop, err := Compile(pr, serialEnv)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Collect(sop)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for q := 0; q < 6; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op, err := Compile(pr, env)
			if err != nil {
				t.Error(err)
				return
			}
			got, err := Collect(op)
			if err != nil {
				t.Error(err)
				return
			}
			if got.Len() != want.Len() {
				t.Errorf("rows = %d, want %d", got.Len(), want.Len())
				return
			}
			for i := 0; i < got.Len(); i++ {
				if got.Col("score").Floats[i] != want.Col("score").Floats[i] {
					t.Errorf("score[%d] differs", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkTableMorselSource builds, opens and drains a two-column scan
// of an in-memory 100,000-row table: the scan every in-memory query
// runs, whose work segment pruning and column pushdown leave alone.
func BenchmarkTableMorselSource(b *testing.B) {
	tb := numbersTable(b, 100000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src, err := NewTableMorselSource(tb, []string{"id", "x"}, DefaultMorselSize)
		if err != nil {
			b.Fatal(err)
		}
		if err := src.Open(); err != nil {
			b.Fatal(err)
		}
		for {
			_, m, err := src.NextMorsel()
			if err != nil {
				b.Fatal(err)
			}
			if m == nil {
				break
			}
		}
	}
}

// rangeScanTable is a 20,000-row table(id INT, x FLOAT) whose id is
// 0..19999 in row order, or the same ids shuffled.
func rangeScanTable(tb testing.TB, shuffled bool) *storage.Table {
	tb.Helper()
	const n = 20000
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	if shuffled {
		rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	}
	b := types.NewBatch(types.NewSchema(types.Column{Name: "id", Type: types.Int}, types.Column{Name: "x", Type: types.Float}))
	for _, id := range ids {
		if err := b.AppendRow(id, float64(id)/2); err != nil {
			tb.Fatal(err)
		}
	}
	t := storage.NewTable("r", b.Schema)
	if err := t.AppendBatch(b); err != nil {
		tb.Fatal(err)
	}
	return t
}

// rangeScanCases are a 2,000-row range and a point lookup on id.
var rangeScanCases = []struct {
	name string
	pred expr.Expr
	rows int
}{
	{"range_2k", expr.NewBinary(expr.OpAnd,
		expr.NewBinary(expr.OpGe, &expr.Column{Name: "id"}, expr.IntLit(5000)),
		expr.NewBinary(expr.OpLt, &expr.Column{Name: "id"}, expr.IntLit(7000))), 2000},
	{"point", expr.NewBinary(expr.OpEq, &expr.Column{Name: "id"}, expr.IntLit(12345)), 1},
}

// TestFilterOnScanNarrowsTheScan: a compiled filter directly on a scan
// hands its ranges to the scan source, which on a sorted key reads only
// the rows in range — and on a shuffled one reads them all.
func TestFilterOnScanNarrowsTheScan(t *testing.T) {
	for _, shuffled := range []bool{false, true} {
		tb := rangeScanTable(t, shuffled)
		for _, c := range rangeScanCases {
			op, err := Compile(&plan.Filter{Child: plan.NewScan(tb), Pred: c.pred}, &Env{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			out, err := Collect(op)
			if err != nil {
				t.Fatal(err)
			}
			read := 0
			for _, m := range op.(*Exchange).Source.(*TableMorselSource).morsels {
				read += m.Hi - m.Lo
			}
			if want := map[bool]int{false: c.rows, true: tb.NumRows()}[shuffled]; out.Len() != c.rows || read != want {
				t.Errorf("%s, shuffled %v: %d rows out of %d read, want %d of %d", c.name, shuffled, out.Len(), read, c.rows, want)
			}
		}
	}
}

// BenchmarkRangeScan compiles and drains a filter on a scan of a
// 20,000-row table at DOP 1: a 2,000-row range and a point on a key
// stored sorted (the scan binary-searches it) and shuffled (it reads and
// filters every row).
func BenchmarkRangeScan(b *testing.B) {
	for _, order := range []string{"sorted", "shuffled"} {
		tb := rangeScanTable(b, order == "shuffled")
		for _, c := range rangeScanCases {
			b.Run(order+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					op, err := Compile(&plan.Filter{Child: plan.NewScan(tb), Pred: c.pred}, &Env{Parallelism: 1})
					if err != nil {
						b.Fatal(err)
					}
					if err := op.Open(); err != nil {
						b.Fatal(err)
					}
					rows := 0
					for {
						m, err := op.Next()
						if err != nil {
							b.Fatal(err)
						}
						if m == nil {
							break
						}
						rows += m.Len()
					}
					if err := op.Close(); err != nil || rows != c.rows {
						b.Fatalf("%d rows (%v), want %d", rows, err, c.rows)
					}
				}
			})
		}
	}
}
