package exec

import (
	"fmt"
	"testing"

	"raven/internal/expr"
	"raven/internal/plan"
	"raven/internal/storage"
	"raven/internal/types"
)

func numbersTable(t testing.TB, n int) *storage.Table {
	t.Helper()
	tb := storage.NewTable("nums", types.NewSchema(
		types.Column{Name: "id", Type: types.Int},
		types.Column{Name: "x", Type: types.Float},
		types.Column{Name: "grp", Type: types.String},
	))
	for i := 0; i < n; i++ {
		if err := tb.AppendRow(int64(i), float64(i)*0.5, fmt.Sprintf("g%d", i%3)); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// scanPipe is a one-worker (inline) pipeline over a full scan of tb: the
// tests' plain table scan.
func scanPipe(t *testing.T, tb *storage.Table, cols []string) *Exchange {
	t.Helper()
	src, err := NewTableMorselSource(tb, cols, types.DefaultBatchSize)
	if err != nil {
		t.Fatal(err)
	}
	return NewExchange(src, 1)
}

func pushAll(t *testing.T, ex *Exchange, stages ...Stage) *Exchange {
	t.Helper()
	for _, st := range stages {
		if err := ex.Push(st); err != nil {
			t.Fatal(err)
		}
	}
	return ex
}

func TestTableMorselSourceProjectionAndRange(t *testing.T) {
	tb := numbersTable(t, 10000)
	out, err := Collect(scanPipe(t, tb, nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 10000 {
		t.Fatalf("rows = %d", out.Len())
	}
	o2, err := Collect(scanPipe(t, tb, []string{"x"}))
	if err != nil {
		t.Fatal(err)
	}
	if o2.Schema.Len() != 1 || o2.Vecs[0].Floats[3] != 1.5 {
		t.Errorf("projected scan = %v", o2.Schema)
	}
	if _, err := NewTableMorselSource(tb, []string{"nope"}, 0); err == nil {
		t.Error("bad projection should fail")
	}
	// id is sorted, so ranges on it cut the scan to exactly the rows in
	// range; on x (FLOAT) they leave it whole.
	for _, tc := range []struct {
		col        string
		lo, hi     float64
		rows, from int
	}{{"id", 10, 19, 10, 10}, {"id", 9.5, 9.75, 0, 0}, {"x", 5, 9.5, 10000, 0}} {
		ranged := scanPipe(t, tb, nil)
		ranged.Source.(*TableMorselSource).Ranges = map[string]expr.Range{tc.col: {Lo: tc.lo, Hi: tc.hi}}
		o3, err := Collect(ranged)
		if err != nil {
			t.Fatal(err)
		}
		if o3.Len() != tc.rows || tc.rows > 0 && o3.Vecs[0].Ints[0] != int64(tc.from) {
			t.Errorf("%s in [%v, %v]: range scan = %d rows, want %d from id %d", tc.col, tc.lo, tc.hi, o3.Len(), tc.rows, tc.from)
		}
	}
}

func TestFilterProjectLimit(t *testing.T) {
	tb := numbersTable(t, 1000)
	p := pushAll(t, scanPipe(t, tb, nil),
		&FilterStage{Pred: expr.NewBinary(expr.OpGe, &expr.Column{Name: "x"}, expr.FloatLit(100))},
		&ProjectStage{
			Exprs: []expr.Expr{
				&expr.Column{Name: "id"},
				expr.NewBinary(expr.OpMul, &expr.Column{Name: "x"}, expr.FloatLit(2)),
			},
			Names: []string{"id", "x2"},
		})
	l := &LimitOp{Child: p, N: 5}
	out, err := Collect(l)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 5 {
		t.Fatalf("rows = %d", out.Len())
	}
	// first row with x >= 100 is id 200 (x = id*0.5)
	if out.Vecs[0].Ints[0] != 200 || out.Vecs[1].Floats[0] != 200 {
		t.Errorf("row0 = %v, %v", out.Vecs[0].Ints[0], out.Vecs[1].Floats[0])
	}
}

func TestHashJoin(t *testing.T) {
	left := storage.NewTable("l", types.NewSchema(
		types.Column{Name: "id", Type: types.Int},
		types.Column{Name: "a", Type: types.Float},
	))
	right := storage.NewTable("r", types.NewSchema(
		types.Column{Name: "rid", Type: types.Int},
		types.Column{Name: "b", Type: types.Float},
	))
	for i := 0; i < 100; i++ {
		_ = left.AppendRow(int64(i), float64(i))
	}
	for i := 50; i < 150; i++ {
		_ = right.AppendRow(int64(i), float64(i)*10)
	}
	ls, rs := scanPipe(t, left, nil), scanPipe(t, right, nil)
	j, err := NewHashJoin(ls, rs, "id", "rid")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 50 {
		t.Fatalf("join rows = %d, want 50", out.Len())
	}
	if out.Schema.Len() != 3 {
		t.Fatalf("join schema = %v (right key should drop)", out.Schema)
	}
	// verify a matched pair
	idv := out.Col("id")
	bv := out.Col("b")
	for i := 0; i < out.Len(); i++ {
		if bv.Floats[i] != float64(idv.Ints[i])*10 {
			t.Fatalf("mismatched join row %d", i)
		}
	}
	if _, err := NewHashJoin(ls, rs, "nope", "rid"); err == nil {
		t.Error("bad key should fail")
	}
}

func TestHashJoinDuplicateKeys(t *testing.T) {
	left := storage.NewTable("l", types.NewSchema(types.Column{Name: "k", Type: types.Int}))
	right := storage.NewTable("r", types.NewSchema(
		types.Column{Name: "k", Type: types.Int},
		types.Column{Name: "v", Type: types.Int},
	))
	_ = left.AppendRow(int64(1))
	_ = left.AppendRow(int64(2))
	_ = right.AppendRow(int64(1), int64(10))
	_ = right.AppendRow(int64(1), int64(11))
	j, _ := NewHashJoin(scanPipe(t, left, nil), scanPipe(t, right, nil), "k", "k")
	out, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("dup-key join rows = %d, want 2", out.Len())
	}
}

func TestHashAggregate(t *testing.T) {
	tb := numbersTable(t, 9) // grp g0: ids 0,3,6; g1: 1,4,7; g2: 2,5,8
	a, err := NewHashAggregate(scanPipe(t, tb, nil), []string{"grp"}, []plan.AggSpec{
		{Func: plan.AggCount, Name: "n"},
		{Func: plan.AggSum, Arg: &expr.Column{Name: "x"}, Name: "sx"},
		{Func: plan.AggAvg, Arg: &expr.Column{Name: "x"}, Name: "ax"},
		{Func: plan.AggMin, Arg: &expr.Column{Name: "id"}, Name: "mn"},
		{Func: plan.AggMax, Arg: &expr.Column{Name: "id"}, Name: "mx"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(a)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("groups = %d", out.Len())
	}
	// first-seen order: g0 first
	if out.Col("grp").Strings[0] != "g0" {
		t.Errorf("group order = %v", out.Col("grp").Strings)
	}
	if out.Col("n").Ints[0] != 3 {
		t.Errorf("count = %v", out.Col("n").Ints)
	}
	// g0 x values: 0, 1.5, 3 -> sum 4.5, avg 1.5
	if out.Col("sx").Floats[0] != 4.5 || out.Col("ax").Floats[0] != 1.5 {
		t.Errorf("sum/avg = %v / %v", out.Col("sx").Floats[0], out.Col("ax").Floats[0])
	}
	if out.Col("mn").Ints[0] != 0 || out.Col("mx").Ints[0] != 6 {
		t.Errorf("min/max = %v / %v", out.Col("mn").Ints[0], out.Col("mx").Ints[0])
	}
}

func TestRunSortOrders(t *testing.T) {
	tb := numbersTable(t, 10)
	so, err := NewRunSort(scanPipe(t, tb, nil).Source, 1, []plan.SortKey{{Col: "grp"}, {Col: "id", Desc: true}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(so)
	if err != nil {
		t.Fatal(err)
	}
	// g0 group first, descending ids within: 9, 6, 3, 0
	g := out.Col("grp").Strings
	ids := out.Col("id").Ints
	if g[0] != "g0" || ids[0] != 9 || ids[3] != 0 {
		t.Errorf("sorted = %v %v", g[:4], ids[:4])
	}
}

// batchesOp streams prebuilt batches — for inputs a table cannot hold
// (NULLs).
type batchesOp struct {
	schema  *types.Schema
	batches []*types.Batch
	pos     int
}

func (o *batchesOp) Schema() *types.Schema { return o.schema }
func (o *batchesOp) Open() error           { o.pos = 0; return nil }
func (o *batchesOp) Close() error          { return nil }
func (o *batchesOp) Next() (*types.Batch, error) {
	if o.pos >= len(o.batches) {
		return nil, nil
	}
	o.pos++
	return o.batches[o.pos-1], nil
}

func TestDistinctOp(t *testing.T) {
	ab := types.NewSchema(types.Column{Name: "a", Type: types.String}, types.Column{Name: "b", Type: types.String})
	rows := func(vals ...[2]string) *types.Batch {
		b := types.NewBatch(ab)
		for _, v := range vals {
			if err := b.AppendRow(v[0], v[1]); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	delim := rows([2]string{"x|y", "z"}, [2]string{"x", "y|z"}, [2]string{"x|y", "z"})
	nulls := rows([2]string{"<nil>", "k"}, [2]string{"", "k"}, [2]string{"", "k"})
	nulls.Vecs[0].SetNull(1)
	nulls.Vecs[0].SetNull(2)
	for _, tc := range []struct {
		label string
		child Operator
		want  int
	}{
		{"three groups", scanPipe(t, numbersTable(t, 30), []string{"grp"}), 3},
		// rowKey's "%v|" rendering merged these two distinct rows.
		{"delimiter inside a value", &batchesOp{schema: ab, batches: []*types.Batch{delim}}, 2},
		// ...and rendered NULL as the string "<nil>".
		{"NULL vs the string <nil>", &batchesOp{schema: ab, batches: []*types.Batch{nulls}}, 2},
	} {
		out, err := Collect(&DistinctOp{Child: tc.child})
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != tc.want {
			t.Errorf("%s: distinct rows = %d, want %d", tc.label, out.Len(), tc.want)
		}
	}
}

// constPredictor appends x+bias as the prediction, for pipeline tests.
type constPredictor struct{ bias float64 }

func (p constPredictor) PredictBatch(b *types.Batch) ([]*types.Vector, error) {
	x := b.Col("x")
	out := types.NewVector(types.Float, b.Len())
	for i := range out.Floats {
		out.Floats[i] = x.Floats[i] + p.bias
	}
	return []*types.Vector{out}, nil
}

// scoreWith is an Env.Lower hook for tests: it scores every plan.Predict
// with p, as one more stage of the pipeline below it.
func scoreWith(p Predictor) func(plan.Node, func(plan.Node) (*Exchange, error)) (*Exchange, error) {
	return func(n plan.Node, below func(plan.Node) (*Exchange, error)) (*Exchange, error) {
		pr := n.(*plan.Predict)
		ex, err := below(pr.Child)
		if err != nil {
			return nil, err
		}
		return ex, ex.Push(&PredictStage{Predictor: p, OutputCols: pr.OutputCols})
	}
}

func TestPredictStage(t *testing.T) {
	tb := numbersTable(t, 100)
	p := pushAll(t, scanPipe(t, tb, nil),
		&PredictStage{Predictor: constPredictor{bias: 1000}, OutputCols: []types.Column{{Name: "score", Type: types.Float}}})
	out, err := Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema.IndexOf("score") < 0 {
		t.Fatal("score column missing")
	}
	if out.Col("score").Floats[4] != 1002 {
		t.Errorf("score[4] = %v", out.Col("score").Floats[4])
	}
}

func TestCompilePlanWithParallelism(t *testing.T) {
	tb := numbersTable(t, 200000)
	scan := plan.NewScan(tb)
	f := &plan.Filter{Child: scan, Pred: expr.NewBinary(expr.OpGt, &expr.Column{Name: "x"}, expr.FloatLit(1))}
	pr := plan.NewPredict(f, "m", []types.Column{{Name: "score", Type: types.Float}})
	env := &Env{
		Parallelism: 4,
		Lower:       scoreWith(constPredictor{bias: 1}),
	}
	op, err := Compile(pr, env)
	if err != nil {
		t.Fatal(err)
	}
	if ex, ok := op.(*Exchange); !ok || ex.DOP != 4 || len(ex.Stages) != 2 {
		t.Fatalf("compiled = %T %+v, want a DOP-4 *Exchange with filter and predict stages", op, op)
	}
	out, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 200000-3 { // x>1 excludes ids 0,1,2
		t.Errorf("rows = %d", out.Len())
	}

	// The one-worker compile is the same pipeline — same source type, same
	// stages — with DOP 1.
	env.Parallelism = 1
	op2, err := Compile(pr, env)
	if err != nil {
		t.Fatal(err)
	}
	if ex, ok := op2.(*Exchange); !ok || ex.DOP != 1 || len(ex.Stages) != 2 {
		t.Fatalf("sequential compiled = %T %+v, want a DOP-1 *Exchange with the same stages", op2, op2)
	}
	out2, _ := Collect(op2)
	if out2.Len() != out.Len() {
		t.Fatal("parallel and sequential row counts differ")
	}
	// the exchange merges morsels in scan order: rows must match 1:1
	for _, col := range []string{"x", "score"} {
		a, b := out.Col(col).Floats, out2.Col(col).Floats
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d]: parallel %v vs sequential %v", col, i, a[i], b[i])
			}
		}
	}
}

func TestCompileJoinAggSortLimitDistinct(t *testing.T) {
	tb := numbersTable(t, 100)
	scan := plan.NewScan(tb)
	scan2 := plan.NewScan(tb)
	j, err := plan.NewJoin(scan, scan2, "id", "id")
	if err != nil {
		t.Fatal(err)
	}
	agg, err := plan.NewAggregate(j, []string{"grp"}, []plan.AggSpec{{Func: plan.AggCount, Name: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	var root plan.Node = &plan.Limit{Child: &plan.Sort{Child: &plan.Distinct{Child: agg}, Keys: []plan.SortKey{{Col: "n", Desc: true}}}, N: 2}
	op, err := Compile(root, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("rows = %d", out.Len())
	}
	if out.Col("n").Ints[0] != 34 { // g0 has 34 of 100 ids (0,3,...,99)
		t.Errorf("top group count = %v", out.Col("n").Ints[0])
	}
}

func TestCompilePredictWithoutFactory(t *testing.T) {
	tb := numbersTable(t, 10)
	pr := plan.NewPredict(plan.NewScan(tb), "m", []types.Column{{Name: "s", Type: types.Float}})
	if _, err := Compile(pr, &Env{}); err == nil {
		t.Error("PREDICT without factory should fail")
	}
}
