package exec

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"raven/internal/plan"
	"raven/internal/storage"
	"raven/internal/types"
)

// topKTable has a key for every comparison the sort makes: a float with
// NaNs, signed zeros and heavy ties, a string, a constant (all ties) and
// the unique row id.
func topKTable(t testing.TB, n int) *storage.Table {
	t.Helper()
	tb := storage.NewTable("tk", types.NewSchema(
		types.Column{Name: "id", Type: types.Int},
		types.Column{Name: "v", Type: types.Float},
		types.Column{Name: "s", Type: types.String},
		types.Column{Name: "same", Type: types.Int},
	))
	for i := 0; i < n; i++ {
		v := float64((i*7919)%211) - 100
		switch {
		case i%97 == 0:
			v = math.NaN()
		case i%53 == 0:
			v = math.Copysign(0, -1)
		}
		if err := tb.AppendRow(int64(i), v, fmt.Sprintf("s%03d", (i*31)%400), int64(7)); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// TestTopKIsSortThenLimit: LIMIT k directly over ORDER BY bounds every
// run to k rows, and what comes out must be, value for value, what the
// same limit reads off the full sort — at every DOP and morsel size.
func TestTopKIsSortThenLimit(t *testing.T) {
	const rows = 2500
	tb := topKTable(t, rows)
	keySets := map[string][]plan.SortKey{
		"asc":      {{Col: "v"}},
		"desc":     {{Col: "v", Desc: true}},
		"two keys": {{Col: "s", Desc: true}, {Col: "v"}},
		"all ties": {{Col: "same"}},
		"nan keys": {{Col: "v", Desc: true}, {Col: "id", Desc: true}},
		"string":   {{Col: "s"}},
	}
	for name, keys := range keySets {
		for _, morsel := range []int{7, 1024, 0} {
			for _, dop := range []int{1, 2, 8} {
				env := &Env{Parallelism: dop, ParallelThresholdRows: 1, MorselSize: morsel}
				full, err := Compile(&plan.Sort{Child: plan.NewScan(tb), Keys: keys}, env)
				if err != nil {
					t.Fatal(err)
				}
				sorted, err := Collect(full)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 100, max(morsel, 1), rows + 5} {
					label := fmt.Sprintf("%s k=%d dop=%d morsel=%d", name, k, dop, morsel)
					op, err := Compile(&plan.Limit{N: k, Child: &plan.Sort{Child: plan.NewScan(tb), Keys: keys}}, env)
					if err != nil {
						t.Fatal(err)
					}
					rs := op.(*LimitOp).Child.(*RunSort)
					if rs.Limit != k {
						t.Fatalf("%s: RunSort.Limit = %d: the bounded mode is off", label, rs.Limit)
					}
					if err := op.Open(); err != nil {
						t.Fatal(err)
					}
					for _, r := range rs.runs {
						if r.b.Len() > k {
							t.Fatalf("%s: a run holds %d rows", label, r.b.Len())
						}
					}
					if err := op.Close(); err != nil {
						t.Fatal(err)
					}
					got, err := Collect(op)
					if err != nil {
						t.Fatal(err)
					}
					batchesEqual(t, label, sorted.Slice(0, min(k, rows)), got)
				}
			}
		}
	}
}

// TestTopKNeedsLimitDirectlyOverSort: anything between the two changes
// which rows the limit reads, so the sort must stay unbounded — and
// Explain must not claim otherwise.
func TestTopKNeedsLimitDirectlyOverSort(t *testing.T) {
	tb := topKTable(t, 300)
	srt := &plan.Sort{Child: plan.NewScan(tb), Keys: []plan.SortKey{{Col: "s"}}}
	root := &plan.Limit{N: 10, Child: &plan.Distinct{Child: srt}}
	op, err := Compile(root, parEnv(2))
	if err != nil {
		t.Fatal(err)
	}
	if rs := op.(*LimitOp).Child.(*DistinctOp).Child.(*RunSort); rs.Limit != 0 {
		t.Errorf("RunSort.Limit = %d under Limit(Distinct(Sort))", rs.Limit)
	}
	if out := plan.Explain(root); strings.Contains(out, "top") {
		t.Errorf("Explain marks a bounded sort:\n%s", out)
	}
	if out := plan.Explain(&plan.Limit{N: 10, Child: srt}); !strings.Contains(out, "Limit(10)\n  Sort(s; top 10)\n") {
		t.Errorf("Explain does not mark the bounded sort:\n%s", out)
	}
	if out := plan.Explain(&plan.Limit{N: 0, Child: srt}); strings.Contains(out, "top") {
		t.Errorf("LIMIT 0 runs the sort unbounded, but Explain says:\n%s", out)
	}
}

// BenchmarkRunSortTopK is ORDER BY v DESC, id LIMIT 100 over 120K rows —
// the benchmark's topk_sort without the PREDICT below it — against the
// same limit over the unbounded sort.
func BenchmarkRunSortTopK(b *testing.B) {
	tb := topKTable(b, 120_000)
	keys := []plan.SortKey{{Col: "v", Desc: true}, {Col: "id"}}
	env := &Env{Parallelism: 2, ParallelThresholdRows: 1}
	run := func(name string, compile func() (Operator, error)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op, err := compile()
				if err != nil {
					b.Fatal(err)
				}
				if out, err := Collect(op); err != nil || out.Len() != 100 {
					b.Fatalf("%v rows, err %v", out.Len(), err)
				}
			}
		})
	}
	run("bounded", func() (Operator, error) {
		return Compile(&plan.Limit{N: 100, Child: &plan.Sort{Child: plan.NewScan(tb), Keys: keys}}, env)
	})
	run("unbounded", func() (Operator, error) {
		op, err := Compile(&plan.Sort{Child: plan.NewScan(tb), Keys: keys}, env)
		return &LimitOp{Child: op, N: 100}, err
	})
}
