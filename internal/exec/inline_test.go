package exec

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"raven/internal/expr"
	"raven/internal/plan"
	"raven/internal/types"
)

// settledGoroutines waits for stragglers of earlier tests (workers of a
// just-closed exchange) to exit, then reports the goroutine count.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for stable := 0; stable < 10; {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, stable = m, 0
		} else {
			stable++
		}
	}
	return n
}

// inlinePlans are the four shapes the one-worker contract is asserted on.
func inlinePlans(t *testing.T) map[string]plan.Node {
	t.Helper()
	tb := numbersTable(t, 20000)
	gt := func(v float64) expr.Expr {
		return expr.NewBinary(expr.OpGt, &expr.Column{Name: "x"}, expr.FloatLit(v))
	}
	scan := func() plan.Node { return &plan.Filter{Child: plan.NewScan(tb), Pred: gt(1)} }
	proj, err := plan.NewProject(scan(), []expr.Expr{&expr.Column{Name: "id"}, &expr.Column{Name: "x"}}, []string{"id", "x"})
	if err != nil {
		t.Fatal(err)
	}
	join, err := plan.NewJoin(scan(), plan.NewScan(tb), "id", "id")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]plan.Node{
		"scan+filter+project+predict": plan.NewPredict(proj, "m", []types.Column{{Name: "score", Type: types.Float}}),
		"join":                        join,
		"group-by":                    aggPlan(t, tb),
		"order-by":                    &plan.Sort{Child: scan(), Keys: []plan.SortKey{{Col: "grp"}, {Col: "x", Desc: true}}},
	}
}

func inlineEnv(ctx context.Context) *Env {
	return &Env{
		Ctx: ctx, Parallelism: 1, MorselSize: 512,
		Lower: scoreWith(constPredictor{bias: 1}),
	}
}

// TestOneWorkerStartsNoGoroutine: at Parallelism 1 every plan shape —
// pipelines and breakers alike — runs on the caller's goroutine. The count
// is unchanged mid-stream and after Close.
func TestOneWorkerStartsNoGoroutine(t *testing.T) {
	for label, root := range inlinePlans(t) {
		op, err := Compile(root, inlineEnv(context.Background()))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		before := settledGoroutines()
		if err := op.Open(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if b, err := op.Next(); err != nil || b == nil {
			t.Fatalf("%s: Next = %v, %v (want a mid-stream batch)", label, b, err)
		}
		if mid := runtime.NumGoroutine(); mid != before {
			t.Errorf("%s: %d goroutines mid-stream, %d before Open", label, mid, before)
		}
		if err := op.Close(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Errorf("%s: %d goroutines after Close, %d before Open", label, after, before)
		}
	}
}

// TestOneWorkerObservesCancellation: the inline pipeline polls its context
// once per morsel — the job CancelOp did for serial scans. A pre-cancelled
// query fails before claiming anything; a query cancelled mid-stream fails
// on the next Next without claiming another morsel.
func TestOneWorkerObservesCancellation(t *testing.T) {
	tb := numbersTable(t, 20000)
	pipe := func(ctx context.Context) (*Exchange, *countingSource) {
		src, err := NewTableMorselSource(tb, nil, 512)
		if err != nil {
			t.Fatal(err)
		}
		counted := &countingSource{MorselSource: src}
		ex := pushAll(t, NewExchange(counted, 1), &FilterStage{Pred: expr.BoolLit(true)})
		ex.Ctx = ctx
		return ex, counted
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ex, counted := pipe(ctx)
	if _, err := Collect(ex); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v", err)
	}
	if n := counted.claims.Load(); n != 0 {
		t.Errorf("pre-cancelled pipeline claimed %d morsels", n)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	ex, counted = pipe(ctx)
	if err := ex.Open(); err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	if b, err := ex.Next(); err != nil || b == nil {
		t.Fatalf("first Next = %v, %v", b, err)
	}
	cancel()
	if _, err := ex.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel: err = %v", err)
	}
	if _, err := ex.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("re-poll after cancel: err = %v (must stay latched)", err)
	}
	if n := counted.claims.Load(); n != 1 {
		t.Errorf("claimed %d morsels, want 1 (none after the cancel)", n)
	}

	// The same through every compiled shape, breakers included.
	for label, root := range inlinePlans(t) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		op, err := Compile(root, inlineEnv(ctx))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if _, err := Collect(op); !errors.Is(err, context.Canceled) {
			t.Errorf("%s pre-cancelled: err = %v", label, err)
		}
	}
}

// TestNonMergeableAggregateRejected: there is no serial aggregate to fall
// back to, so a non-decomposable function is a compile error.
func TestNonMergeableAggregateRejected(t *testing.T) {
	agg := &plan.Aggregate{Child: plan.NewScan(numbersTable(t, 10)), Aggs: []plan.AggSpec{{Func: plan.AggFunc(200), Name: "m"}}}
	if _, err := Compile(agg, &Env{}); err == nil {
		t.Fatal("non-mergeable aggregate compiled")
	}
}
