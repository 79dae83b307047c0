package exec

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"raven/internal/expr"
	"raven/internal/plan"
	"raven/internal/storage"
	"raven/internal/types"
)

// aggMatrixTable is the key-partition matrix's input, row r of n:
//   - k INT: r%37, NULL every 11th row, and every 7th row a key beyond
//     ±2^53 that float64 would merge with its neighbour;
//   - f FLOAT: +0, −0, a NaN, a NaN with another payload, −NaN, 1.5, or
//     NULL, cycling;
//   - s VARCHAR: "", "a", "<nil>", "b" or NULL; b BOOL: true, false or NULL;
//   - u INT: r itself, a key unique to the row;
//   - x FLOAT and i INT arguments, i beyond ±2^53 on every 5th row.
func aggMatrixTable(t testing.TB, n int) *storage.Table {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "k", Type: types.Int}, types.Column{Name: "f", Type: types.Float},
		types.Column{Name: "s", Type: types.String}, types.Column{Name: "b", Type: types.Bool},
		types.Column{Name: "u", Type: types.Int}, types.Column{Name: "x", Type: types.Float},
		types.Column{Name: "i", Type: types.Int})
	k, f, s, bl, u, x, i := types.NewVector(types.Int, n), types.NewVector(types.Float, n), types.NewVector(types.String, n),
		types.NewVector(types.Bool, n), types.NewVector(types.Int, n), types.NewVector(types.Float, n), types.NewVector(types.Int, n)
	nans := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7FF8000000000123), math.Float64frombits(0xFFF8000000000000), 1.5}
	for r := 0; r < n; r++ {
		k.Ints[r] = int64(r % 37)
		if r%7 == 0 {
			k.Ints[r] = 1<<53 + int64(r%3) - int64(r%2)<<54
		}
		if r%11 == 0 {
			k.SetNull(r)
		}
		if j := r % 7; j < len(nans) {
			f.Floats[r] = nans[j]
		} else {
			f.SetNull(r)
		}
		if j := r % 5; j < 4 {
			s.Strings[r] = []string{"", "a", "<nil>", "b"}[j]
		} else {
			s.SetNull(r)
		}
		if j := r % 3; j < 2 {
			bl.Bools[r] = j == 0
		} else {
			bl.SetNull(r)
		}
		u.Ints[r], x.Floats[r], i.Ints[r] = int64(r), float64(r%13)*0.1-0.4, int64(r)
		if r%5 == 0 {
			i.Ints[r] = 1<<53 + 1 + int64(r) - int64(r%2)<<55
		}
	}
	tb := storage.NewTable("am", schema)
	if err := tb.AppendBatch(&types.Batch{Schema: schema, Vecs: []*types.Vector{k, f, s, bl, u, x, i}}); err != nil {
		t.Fatal(err)
	}
	return tb
}

// constKeySource hands out its source's morsels with column col replaced
// by a broadcast of the morsel's first row.
type constKeySource struct {
	MorselSource
	col int
}

func (c constKeySource) NextMorsel() (int, *types.Batch, error) {
	seq, b, err := c.MorselSource.NextMorsel()
	if b == nil || err != nil {
		return seq, b, err
	}
	vecs := slices.Clone(b.Vecs)
	vecs[c.col] = b.Vecs[c.col].Gather([]int{0})
	vecs[c.col].MarkConst(b.Len())
	return seq, &types.Batch{Schema: b.Schema, Vecs: vecs}, nil
}

// TestAggregateKeyMatrix holds ParallelHashAggregate to the row-at-a-time
// reference, bit for bit, on every key path: one INT, FLOAT, VARCHAR or
// BOOL key (NULLs, ±0, NaN payloads, INTs beyond ±2^53), a broadcast key
// column, a composite key, no key, and more groups than a morsel has rows
// — at DOP 1, 2 and 8 and at two morsel sizes.
func TestAggregateKeyMatrix(t *testing.T) {
	tb := aggMatrixTable(t, 6000)
	col := func(c string) expr.Expr { return &expr.Column{Name: c} }
	aggs := []plan.AggSpec{
		{Func: plan.AggCount, Name: "n"},
		{Func: plan.AggSum, Arg: col("x"), Name: "sx"},
		{Func: plan.AggAvg, Arg: col("x"), Name: "ax"},
		{Func: plan.AggSum, Arg: col("i"), Name: "si"},
		{Func: plan.AggMin, Arg: col("i"), Name: "mni"},
		{Func: plan.AggMax, Arg: col("i"), Name: "mxi"},
		{Func: plan.AggMin, Arg: col("x"), Name: "mnx"},
		{Func: plan.AggMax, Arg: col("f"), Name: "mxf"},
		{Func: plan.AggMin, Arg: col("s"), Name: "mns"},
		{Func: plan.AggMax, Arg: col("s"), Name: "mxs"},
	}
	for _, c := range []struct {
		name    string
		groupBy []string
		groups  int
		konst   string // a key column made a broadcast in every morsel
	}{
		{"no key", nil, 1, ""},
		{"INT key", []string{"k"}, 44, ""},
		{"FLOAT key", []string{"f"}, 5, ""},
		{"VARCHAR key", []string{"s"}, 5, ""},
		{"BOOL key", []string{"b"}, 3, ""},
		{"const INT key", []string{"k"}, -1, "k"},
		{"const VARCHAR key", []string{"s"}, -1, "s"},
		{"composite key", []string{"k", "f", "s"}, -1, ""},
		{"a group per row", []string{"u"}, 6000, ""},
	} {
		for _, morsel := range []int{DefaultMorselSize, 1000} {
			source := func() MorselSource {
				src, err := NewTableMorselSource(tb, nil, morsel)
				if err != nil {
					t.Fatal(err)
				}
				if c.konst != "" {
					return constKeySource{src, tb.Schema().IndexOf(c.konst)}
				}
				return src
			}
			ref, err := NewHashAggregate(NewExchange(source(), 1), c.groupBy, aggs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Collect(ref)
			if err != nil {
				t.Fatal(err)
			}
			if c.groups >= 0 && want.Len() != c.groups {
				t.Fatalf("%s: the reference has %d groups, want %d", c.name, want.Len(), c.groups)
			}
			for _, dop := range []int{1, 2, 8} {
				op, err := NewParallelHashAggregate(source(), dop, c.groupBy, aggs, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Collect(op)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("%s morsel=%d dop=%d", c.name, morsel, dop), want, got)
			}
		}
	}
}

// BenchmarkParallelHashAggregate folds 120K rows with no key (COUNT and
// AVG, the benchmark's scalar shape), an INT key of 2 groups and a
// VARCHAR key of 3 (COUNT, AVG), and 200K rows into 100K INT-keyed groups
// with SUM — whose B/op shows what a group's sum state costs. ns/row is
// per input row. DOP is GOMAXPROCS (-cpu 2 for the benchmark's two
// workers).
func BenchmarkParallelHashAggregate(b *testing.B) {
	schema := types.NewSchema(types.Column{Name: "k", Type: types.Int}, types.Column{Name: "s", Type: types.String}, types.Column{Name: "x", Type: types.Float})
	table := func(n, groups int) *storage.Table {
		k, s, x := types.NewVector(types.Int, n), types.NewVector(types.String, n), types.NewVector(types.Float, n)
		for r := 0; r < n; r++ {
			k.Ints[r], s.Strings[r], x.Floats[r] = int64(r*7919%groups), []string{"F", "M", "U"}[r%3], float64(r%1000)*0.37
		}
		tb := storage.NewTable("t", schema)
		if err := tb.AppendBatch(&types.Batch{Schema: schema, Vecs: []*types.Vector{k, s, x}}); err != nil {
			b.Fatal(err)
		}
		return tb
	}
	x := &expr.Column{Name: "x"}
	countAvg := []plan.AggSpec{{Func: plan.AggCount, Name: "n"}, {Func: plan.AggAvg, Arg: x, Name: "a"}}
	for _, bc := range []struct {
		name    string
		tb      *storage.Table
		groupBy []string
		aggs    []plan.AggSpec
	}{
		{"no_key", table(120000, 1), nil, countAvg},
		{"int_key_2", table(120000, 2), []string{"k"}, countAvg},
		{"varchar_key", table(120000, 1), []string{"s"}, countAvg},
		{"int_key_100k_sum", table(200000, 100000), []string{"k"}, []plan.AggSpec{{Func: plan.AggSum, Arg: x, Name: "s"}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			agg, err := plan.NewAggregate(plan.NewScan(bc.tb), bc.groupBy, bc.aggs)
			if err != nil {
				b.Fatal(err)
			}
			env := &Env{Parallelism: runtime.GOMAXPROCS(0), ParallelThresholdRows: 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op, err := Compile(agg, env)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Collect(op); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.tb.NumRows()), "ns/row")
		})
	}
}

// TestMinMaxOverBool: MIN and MAX over a BOOL column are BOOL columns,
// false below true. (The row-at-a-time fold kept them as floats and
// failed to emit them.)
func TestMinMaxOverBool(t *testing.T) {
	tb := keyTable(t, "mb", "p", bools(true, false, true, true))
	agg, err := plan.NewAggregate(plan.NewScan(tb), nil, []plan.AggSpec{
		{Func: plan.AggMin, Arg: &expr.Column{Name: "k"}, Name: "lo"},
		{Func: plan.AggMax, Arg: &expr.Column{Name: "k"}, Name: "hi"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dop := range []int{1, 2} {
		if out := compileCollect(t, agg, parEnv(dop)); fmt.Sprint(out.Row(0)) != "[false true]" {
			t.Fatalf("dop=%d: MIN, MAX = %v, want [false true]", dop, out.Row(0))
		}
	}
}

// TestMergeKeepsFirstSeenNaN: NaNs are one group whose key is the
// first-seen row's, so a table that saw its NaN later, merged into, takes
// the payload of the table that saw it first.
func TestMergeKeepsFirstSeenNaN(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "f", Type: types.Float})
	first := math.Float64frombits(0x7FF8000000000123)
	table := func(seq int, keys ...float64) *aggTable {
		b := types.NewBatch(schema)
		b.Vecs[0].AppendFloats(keys)
		tab := &aggTable{keys: types.NewBatch(schema), ids: getSel()}
		tab.groupIDs(b, []int{0}, len(keys), seq)
		tab.grow(nil, nil)
		return tab
	}
	into := table(1, math.NaN(), 1.5) // the larger table, which saw its NaN later
	into.mergeFrom(table(0, first), nil, nil, []int{0})
	if got := math.Float64bits(into.keys.Vecs[0].Floats[0]); got != math.Float64bits(first) {
		t.Fatalf("NaN group key %#x, want the first-seen %#x", got, math.Float64bits(first))
	}
}
