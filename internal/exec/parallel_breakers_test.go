package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"testing"
	"time"

	"raven/internal/expr"
	"raven/internal/plan"
	"raven/internal/storage"
	"raven/internal/types"
)

// batchesEqual asserts two batches match row for row, column for column.
func batchesEqual(t *testing.T, label string, want, got *types.Batch) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), want.Len())
	}
	if got.Schema.Len() != want.Schema.Len() {
		t.Fatalf("%s: schema %v vs %v", label, got.Schema, want.Schema)
	}
	for j := range want.Vecs {
		for i := 0; i < want.Len(); i++ {
			a, b := want.Vecs[j].Value(i), got.Vecs[j].Value(i)
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("%s: col %s row %d: got %v, want %v",
					label, want.Schema.Columns[j].Name, i, b, a)
			}
		}
	}
}

// parEnv compiles with dop workers, tiny morsels and no parallel
// threshold, so even small test tables exercise the parallel paths.
func parEnv(dop int) *Env {
	return &Env{Parallelism: dop, ParallelThresholdRows: 1, MorselSize: 512}
}

func compileCollect(t *testing.T, n plan.Node, env *Env) *types.Batch {
	t.Helper()
	op, err := Compile(n, env)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCompareVecsInt64Precision(t *testing.T) {
	// 2^53 and 2^53+1 coerce to the same float64; the typed path must
	// still order them.
	v := types.NewVector(types.Int, 0)
	for _, k := range []int64{1 << 53, 1<<53 + 1, -(1 << 60), 1<<60 + 7, 1 << 60} {
		if err := v.Append(k); err != nil {
			t.Fatal(err)
		}
	}
	if float64(v.Ints[0]) != float64(v.Ints[1]) {
		t.Fatal("test premise broken: keys distinguishable as float64")
	}
	if c := compareVecs(v, 0, v, 1); c != -1 {
		t.Errorf("compareVecs(2^53, 2^53+1) = %d, want -1", c)
	}
	if c := compareVecs(v, 3, v, 4); c != 1 {
		t.Errorf("compareVecs(2^60+7, 2^60) = %d, want 1", c)
	}
	if c := compareVecs(v, 2, v, 0); c != -1 {
		t.Errorf("compareVecs(-2^60, 2^53) = %d, want -1", c)
	}
	if c := compareVecs(v, 4, v, 4); c != 0 {
		t.Errorf("compareVecs(x, x) = %d, want 0", c)
	}
}

// TestRunSortLargeInt64Keys is the regression for the old AsFloat-based
// compareAt: adjacent int64 sort keys above 2^53 must come out in exact
// numeric order, serial and parallel alike.
func TestRunSortLargeInt64Keys(t *testing.T) {
	tb := storage.NewTable("big", types.NewSchema(
		types.Column{Name: "k", Type: types.Int},
		types.Column{Name: "tag", Type: types.Int},
	))
	base := int64(1) << 53
	// Descending interleave of adjacent keys float64 cannot distinguish.
	n := 4000
	for i := 0; i < n; i++ {
		if err := tb.AppendRow(base+int64((n-i)*2%(n+1)), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	root := &plan.Sort{Child: plan.NewScan(tb), Keys: []plan.SortKey{{Col: "k"}}}
	for _, dop := range []int{1, 4} {
		out := compileCollect(t, root, parEnv(dop))
		if out.Len() != n {
			t.Fatalf("dop=%d: %d rows", dop, out.Len())
		}
		ks := out.Col("k").Ints
		for i := 1; i < len(ks); i++ {
			if ks[i-1] > ks[i] {
				t.Fatalf("dop=%d: keys out of order at %d: %d > %d (AsFloat collapse?)", dop, i, ks[i-1], ks[i])
			}
		}
	}
}

func TestExactFloatSumOrderInvariantAndCorrect(t *testing.T) {
	vals := []float64{1e16, 3.14159, -1e16, 1e-8, 2.71828, -2.5e7, 1.0 / 3.0, 1e308 * 1e-300, -7.25, 0.1, 0.2, 0.3}
	// Reference: exact rational sum via big.Float at high precision.
	ref := new(big.Float).SetPrec(400)
	for _, v := range vals {
		ref.Add(ref, new(big.Float).SetPrec(400).SetFloat64(v))
	}
	want, _ := ref.Float64()

	sumOf := func(order []int) float64 {
		var s exactFloatSum
		for _, i := range order {
			s.Add(vals[i])
		}
		return s.Round()
	}
	fwd := make([]int, len(vals))
	rev := make([]int, len(vals))
	shuf := make([]int, len(vals))
	for i := range vals {
		fwd[i] = i
		rev[i] = len(vals) - 1 - i
		shuf[i] = (i*7 + 3) % len(vals)
	}
	for name, order := range map[string][]int{"forward": fwd, "reverse": rev, "shuffled": shuf} {
		if got := sumOf(order); got != want {
			t.Errorf("%s order: %v, want %v", name, got, want)
		}
	}
	// Split + merge must agree too (the parallel partial-aggregate path).
	var a, b exactFloatSum
	for i, v := range vals {
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(&b)
	if got := a.Round(); got != want {
		t.Errorf("split+merge: %v, want %v", got, want)
	}
	// Specials: NaN poisons, opposing infs go NaN.
	var sInf exactFloatSum
	sInf.Add(math.Inf(1))
	sInf.Add(1)
	if !math.IsInf(sInf.Round(), 1) {
		t.Errorf("inf sum = %v", sInf.Round())
	}
	sInf.Add(math.Inf(-1))
	if !math.IsNaN(sInf.Round()) {
		t.Errorf("inf + -inf = %v, want NaN", sInf.Round())
	}
	// Intermediate overflow saturates to ±Inf (IEEE semantics) instead of
	// corrupting the expansion with Inf-Inf garbage.
	var sOv exactFloatSum
	sOv.Add(math.MaxFloat64)
	sOv.Add(math.MaxFloat64)
	sOv.Add(-math.MaxFloat64)
	if !math.IsInf(sOv.Round(), 1) {
		t.Errorf("overflowing sum = %v, want +Inf", sOv.Round())
	}
}

// aggPlan is the shared GROUP BY shape: filter + group with every
// aggregate function over mixed column types.
func aggPlan(t *testing.T, tb *storage.Table) plan.Node {
	t.Helper()
	agg, err := plan.NewAggregate(
		&plan.Filter{Child: plan.NewScan(tb), Pred: expr.NewBinary(expr.OpGt, &expr.Column{Name: "x"}, expr.FloatLit(5))},
		[]string{"grp"},
		[]plan.AggSpec{
			{Func: plan.AggCount, Name: "n"},
			{Func: plan.AggSum, Arg: &expr.Column{Name: "x"}, Name: "sx"},
			{Func: plan.AggAvg, Arg: &expr.Column{Name: "x"}, Name: "ax"},
			{Func: plan.AggMin, Arg: &expr.Column{Name: "id"}, Name: "mn"},
			{Func: plan.AggMax, Arg: &expr.Column{Name: "id"}, Name: "mx"},
			{Func: plan.AggMin, Arg: &expr.Column{Name: "grp"}, Name: "mg"},
		})
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

func TestParallelAggregateMatchesSerialReference(t *testing.T) {
	tb := numbersTable(t, 30000)
	root := aggPlan(t, tb)

	// Reference: the serial HashAggregate operator over a plain scan.
	ref, err := NewHashAggregate(
		pushAll(t, scanPipe(t, tb, nil), &FilterStage{Pred: expr.NewBinary(expr.OpGt, &expr.Column{Name: "x"}, expr.FloatLit(5))}),
		[]string{"grp"},
		root.(*plan.Aggregate).Aggs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Collect(ref)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != 3 {
		t.Fatalf("reference groups = %d", want.Len())
	}
	for _, dop := range []int{1, 4, 8} {
		got := compileCollect(t, root, parEnv(dop))
		batchesEqual(t, fmt.Sprintf("agg dop=%d", dop), want, got)
	}
}

func TestParallelAggregateManyGroups(t *testing.T) {
	// Group count near row count stresses the partial tables and the
	// deterministic first-seen merge order.
	tb := storage.NewTable("g", types.NewSchema(
		types.Column{Name: "k", Type: types.Int},
		types.Column{Name: "v", Type: types.Float},
	))
	for i := 0; i < 20000; i++ {
		if err := tb.AppendRow(int64(i%7919), float64(i)*0.25); err != nil {
			t.Fatal(err)
		}
	}
	agg, err := plan.NewAggregate(plan.NewScan(tb), []string{"k"}, []plan.AggSpec{
		{Func: plan.AggCount, Name: "n"},
		{Func: plan.AggSum, Arg: &expr.Column{Name: "v"}, Name: "sv"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := compileCollect(t, agg, parEnv(1))
	if want.Len() != 7919 {
		t.Fatalf("groups = %d", want.Len())
	}
	// First-seen order means group keys 0,1,2,... here.
	if want.Col("k").Ints[0] != 0 || want.Col("k").Ints[100] != 100 {
		t.Fatalf("group order broken: %v...", want.Col("k").Ints[:5])
	}
	got := compileCollect(t, agg, parEnv(8))
	batchesEqual(t, "many-groups dop=8", want, got)
}

func joinTables(t *testing.T) (*storage.Table, *storage.Table) {
	t.Helper()
	left := storage.NewTable("pl", types.NewSchema(
		types.Column{Name: "id", Type: types.Int},
		types.Column{Name: "a", Type: types.Float},
	))
	right := storage.NewTable("pr", types.NewSchema(
		types.Column{Name: "rid", Type: types.Int},
		types.Column{Name: "b", Type: types.Float},
	))
	for i := 0; i < 20000; i++ {
		_ = left.AppendRow(int64(i), float64(i)*0.5)
	}
	// Duplicate keys on the build side, partial coverage.
	for i := 5000; i < 15000; i++ {
		_ = right.AppendRow(int64(i), float64(i))
		if i%3 == 0 {
			_ = right.AppendRow(int64(i), float64(i)+0.5)
		}
	}
	return left, right
}

func TestParallelJoinMatchesSerialReference(t *testing.T) {
	left, right := joinTables(t)
	j, err := plan.NewJoin(plan.NewScan(left), plan.NewScan(right), "id", "rid")
	if err != nil {
		t.Fatal(err)
	}

	ref, err := NewHashJoin(scanPipe(t, left, nil), scanPipe(t, right, nil), "id", "rid")
	if err != nil {
		t.Fatal(err)
	}
	want, err := Collect(ref)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("reference join empty")
	}
	for _, dop := range []int{1, 4, 8} {
		got := compileCollect(t, j, parEnv(dop))
		batchesEqual(t, fmt.Sprintf("join dop=%d", dop), want, got)
	}
}

// TestIdleExchangeUnwrapped asserts a root-level breaker is not left
// inside a stage-free re-parallelization exchange (pure overhead once
// nothing pushes above it).
func TestIdleExchangeUnwrapped(t *testing.T) {
	tb := numbersTable(t, 5000)
	agg, err := plan.NewAggregate(plan.NewScan(tb), []string{"grp"}, []plan.AggSpec{
		{Func: plan.AggCount, Name: "n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	op, err := Compile(agg, parEnv(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := op.(*ParallelHashAggregate); !ok {
		t.Errorf("root aggregate compiled to %T, want *ParallelHashAggregate (idle exchange unwrapped)", op)
	}
	// A scan exchange with real stages must NOT be unwrapped.
	f := &plan.Filter{Child: plan.NewScan(tb), Pred: expr.NewBinary(expr.OpGt, &expr.Column{Name: "x"}, expr.FloatLit(1))}
	op, err = Compile(f, parEnv(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := op.(*Exchange); !ok {
		t.Errorf("filtered scan compiled to %T, want *Exchange", op)
	}
}

// TestParallelJoinEarlyClose closes the join while probe workers may
// still be mid-morsel (the streaming-Rows early-stop path); under -race
// this is the regression for releasing the build tables before the
// probe pipeline has joined its workers.
func TestParallelJoinEarlyClose(t *testing.T) {
	left, right := joinTables(t)
	j, err := plan.NewJoin(plan.NewScan(left), plan.NewScan(right), "id", "rid")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		op, err := Compile(j, parEnv(8))
		if err != nil {
			t.Fatal(err)
		}
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		if _, err := op.Next(); err != nil {
			t.Fatal(err)
		}
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunSortNaNKeysParity: NaN must hold one defined position in the
// sort order (first, like sort.Float64s) or merge output would depend on
// which morsel the NaN landed in.
func TestRunSortNaNKeysParity(t *testing.T) {
	tb := storage.NewTable("nan", types.NewSchema(
		types.Column{Name: "v", Type: types.Float},
		types.Column{Name: "tag", Type: types.Int},
	))
	for i := 0; i < 3000; i++ {
		x := float64(i%97) * 1.5
		if i%131 == 0 {
			x = math.NaN()
		}
		_ = tb.AppendRow(x, int64(i))
	}
	root := &plan.Sort{Child: plan.NewScan(tb), Keys: []plan.SortKey{{Col: "v"}}}
	want := compileCollect(t, root, parEnv(1))
	// NaNs first, then ascending values; ties (and NaNs) in input order.
	vs := want.Col("v").Floats
	nans := 0
	for _, x := range vs {
		if math.IsNaN(x) {
			nans++
		}
	}
	for i, x := range vs {
		if i < nans != math.IsNaN(x) {
			t.Fatalf("NaNs not sorted first: v[%d] = %v (nans=%d)", i, x, nans)
		}
	}
	for _, dop := range []int{4, 8} {
		got := compileCollect(t, root, parEnv(dop))
		batchesEqual(t, fmt.Sprintf("nan sort dop=%d", dop), want, got)
	}
}

// TestGroupKeyNullDistinctFromLiteral: a NULL grouping value must not
// collide with the literal string "<nil>".
func TestGroupKeyNullDistinctFromLiteral(t *testing.T) {
	sch := types.NewSchema(types.Column{Name: "a", Type: types.String})
	b := types.NewBatch(sch)
	_ = b.AppendRow("<nil>")
	_ = b.AppendRow("x")
	b.Vecs[0].SetNull(1)
	kLit := string(appendGroupKey(nil, b, []int{0}, 0))
	kNull := string(appendGroupKey(nil, b, []int{0}, 1))
	if kLit == kNull {
		t.Fatalf("NULL and literal %q render the same group key %q", "<nil>", kLit)
	}
}

// TestGroupKeyDelimiterAmbiguity: string group values containing the key
// delimiter must not merge distinct groups (length-prefixed encoding).
func TestGroupKeyDelimiterAmbiguity(t *testing.T) {
	tb := storage.NewTable("amb", types.NewSchema(
		types.Column{Name: "a", Type: types.String},
		types.Column{Name: "b", Type: types.String},
	))
	_ = tb.AppendRow("x|", "y")
	_ = tb.AppendRow("x", "|y")
	_ = tb.AppendRow("x|", "y")
	agg, err := plan.NewAggregate(plan.NewScan(tb), []string{"a", "b"}, []plan.AggSpec{
		{Func: plan.AggCount, Name: "n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dop := range []int{1, 4} {
		out := compileCollect(t, agg, parEnv(dop))
		if out.Len() != 2 {
			t.Fatalf("dop=%d: %d groups, want 2 (delimiter ambiguity merged groups)", dop, out.Len())
		}
		if out.Col("n").Ints[0] != 2 || out.Col("n").Ints[1] != 1 {
			t.Fatalf("dop=%d: counts = %v", dop, out.Col("n").Ints)
		}
	}
}

func TestRunSortMatchesStableSerialOrder(t *testing.T) {
	tb := numbersTable(t, 25000)
	// grp has only three values: massive key ties exercise the
	// (seq, row) tie-break that makes the merge a stable sort.
	root := &plan.Sort{Child: plan.NewScan(tb), Keys: []plan.SortKey{{Col: "grp"}, {Col: "x", Desc: true}}}
	want := compileCollect(t, root, parEnv(1))
	for _, dop := range []int{4, 8} {
		got := compileCollect(t, root, parEnv(dop))
		batchesEqual(t, fmt.Sprintf("sort dop=%d", dop), want, got)
	}
	// Spot-check the ordering contract itself.
	g := want.Col("grp").Strings
	xs := want.Col("x").Floats
	for i := 1; i < want.Len(); i++ {
		if g[i-1] > g[i] || (g[i-1] == g[i] && xs[i-1] < xs[i]) {
			t.Fatalf("not sorted at %d: (%s,%v) before (%s,%v)", i, g[i-1], xs[i-1], g[i], xs[i])
		}
	}
}

func TestBreakersStackedParity(t *testing.T) {
	// join -> aggregate -> sort -> limit: every breaker stacked, the
	// pipeline re-splitting above each one included.
	left, right := joinTables(t)
	j, err := plan.NewJoin(plan.NewScan(left), plan.NewScan(right), "id", "rid")
	if err != nil {
		t.Fatal(err)
	}
	agg, err := plan.NewAggregate(j, nil, []plan.AggSpec{
		{Func: plan.AggCount, Name: "n"},
		{Func: plan.AggSum, Arg: &expr.Column{Name: "b"}, Name: "sb"},
	})
	if err != nil {
		t.Fatal(err)
	}
	agg2, err := plan.NewAggregate(j, []string{"id"}, []plan.AggSpec{
		{Func: plan.AggCount, Name: "n"},
		{Func: plan.AggSum, Arg: &expr.Column{Name: "b"}, Name: "sb"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var root plan.Node = &plan.Limit{
		Child: &plan.Sort{Child: agg2, Keys: []plan.SortKey{{Col: "sb", Desc: true}, {Col: "id"}}},
		N:     500,
	}
	want := compileCollect(t, root, parEnv(1))
	if want.Len() != 500 {
		t.Fatalf("rows = %d", want.Len())
	}
	got := compileCollect(t, root, parEnv(8))
	batchesEqual(t, "stacked breakers", want, got)

	// Global aggregate over the join too (no group keys).
	wantG := compileCollect(t, agg, parEnv(1))
	gotG := compileCollect(t, agg, parEnv(8))
	batchesEqual(t, "global agg over join", wantG, gotG)
}

func TestStreamMorselSourceSequencesBatches(t *testing.T) {
	tb := numbersTable(t, 10000)
	src := &StreamMorselSource{Op: scanPipe(t, tb, nil)}
	if err := src.Open(); err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var rows, next int
	for {
		seq, b, err := src.NextMorsel()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if seq != next {
			t.Fatalf("seq = %d, want %d", seq, next)
		}
		next++
		rows += b.Len()
	}
	if rows != 10000 {
		t.Fatalf("rows = %d", rows)
	}
}

// blockingPredictor parks every PredictBatch call until the context
// fires, then reports its error — the worst-case "blocked predictor"
// below a breaker. The build/fold phases must propagate the error and
// join their workers.
type blockingPredictor struct{ ctx context.Context }

func (p blockingPredictor) PredictBatch(b *types.Batch) ([]*types.Vector, error) {
	<-p.ctx.Done()
	return nil, p.ctx.Err()
}

// TestBlockedPredictorBelowBuildAndMerge cancels a plan whose PREDICT
// blocks below (a) a parallel join's build input and (b) a parallel
// aggregate's fold phase — the two new phases this refactor added. Both
// must return the context error promptly with all workers joined.
func TestBlockedPredictorBelowBuildAndMerge(t *testing.T) {
	tb := numbersTable(t, 100000)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	env := parEnv(4)
	env.Ctx = ctx
	env.Lower = scoreWith(blockingPredictor{ctx: ctx})

	// (a) blocked predictor feeding the join build (right input).
	pr := plan.NewPredict(plan.NewScan(tb), "m", []types.Column{{Name: "s", Type: types.Float}})
	j, err := plan.NewJoin(plan.NewScan(tb), pr, "id", "id")
	if err != nil {
		t.Fatal(err)
	}
	op, err := Compile(j, env)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = Collect(op)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("join build below blocked predictor: err = %v", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("join build cancellation not prompt: %v", e)
	}

	// (b) blocked predictor below the aggregate fold.
	pr2 := plan.NewPredict(plan.NewScan(tb), "m", []types.Column{{Name: "s", Type: types.Float}})
	agg, err := plan.NewAggregate(pr2, []string{"grp"}, []plan.AggSpec{
		{Func: plan.AggSum, Arg: &expr.Column{Name: "s"}, Name: "ss"},
	})
	if err != nil {
		t.Fatal(err)
	}
	op, err = Compile(agg, env)
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	_, err = Collect(op)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("aggregate over blocked predictor: err = %v", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("aggregate cancellation not prompt: %v", e)
	}
}

func TestBreakerCancellation(t *testing.T) {
	tb := numbersTable(t, 200000)
	agg, err := plan.NewAggregate(plan.NewScan(tb), []string{"grp"}, []plan.AggSpec{
		{Func: plan.AggSum, Arg: &expr.Column{Name: "x"}, Name: "sx"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	env := parEnv(4)
	env.Ctx = ctx
	op, err := Compile(agg, env)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Collect(op)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled aggregate: err = %v", err)
	}

	j, err := plan.NewJoin(plan.NewScan(tb), plan.NewScan(tb), "id", "id")
	if err != nil {
		t.Fatal(err)
	}
	op, err = Compile(j, env)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Collect(op)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled join: err = %v", err)
	}
}
