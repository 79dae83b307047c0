package storage

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"raven/internal/expr"
	"raven/internal/types"
)

// fuzzInt maps a byte to an INT key: mostly small values, so equal runs
// are common, and a few extremes around ±2^53 and the int64 limits. The
// second result marks a NULL row; its value slot still sorts with the rest.
func fuzzInt(b byte) (int64, bool) {
	const p53 = int64(1) << 53
	switch {
	case b >= 0xf8:
		return []int64{math.MinInt64, -p53 - 1, -p53, -p53 + 1, p53 - 1, p53, p53 + 1, math.MaxInt64}[b&7], false
	case b >= 0xf0:
		return int64(b & 7), true
	default:
		return int64(b%64) - 32, false
	}
}

// passing evaluates pred over rows [lo, hi) of tb and returns the row
// positions it keeps.
func passing(t *testing.T, tb *Table, pred expr.Expr, lo, hi int) []int {
	t.Helper()
	b, err := tb.ScanRange(lo, hi, nil)
	if err != nil {
		t.Fatal(err)
	}
	mask, err := pred.Eval(b)
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	for i := 0; i < b.Len(); i++ {
		if mask.BoolAt(i) {
			out = append(out, lo+i)
		}
	}
	return out
}

// FuzzTableSpans: for a random INT column — sorted or not, with equal runs,
// NULLs and values at ±2^53 and the int64 limits, appended in random
// batches — and a random two-conjunct filter on it, the rows inside the
// spans Spans returns that pass the filter are exactly the rows of the
// whole table that pass it.
func FuzzTableSpans(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		ops := []expr.BinOp{expr.OpEq, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
		lit := func(b byte) expr.Expr {
			v, _ := fuzzInt(b)
			if at(0)&2 != 0 {
				return expr.FloatLit(float64(v) + 0.5)
			}
			return expr.IntLit(v)
		}
		id := &expr.Column{Name: "id"}
		pred := expr.NewBinary(expr.OpAnd,
			expr.NewBinary(ops[int(at(0)>>2&7)%5], id, lit(at(1))),
			expr.NewBinary(ops[int(at(0)>>5)%5], id, lit(at(2))))

		type row struct {
			v    int64
			null bool
		}
		rows := make([]row, at(3)%128)
		for i := range rows {
			rows[i].v, rows[i].null = fuzzInt(at(5 + i))
		}
		if at(0)&1 != 0 {
			sort.SliceStable(rows, func(i, j int) bool { return rows[i].v < rows[j].v })
		}
		tb := NewTable("f", types.NewSchema(types.Column{Name: "id", Type: types.Int}, types.Column{Name: "k", Type: types.Int}))
		step := 1 + int(at(4)%16)
		for lo := 0; lo < len(rows); lo += step {
			b := types.NewBatch(tb.Schema())
			for i := lo; i < min(lo+step, len(rows)); i++ {
				if err := b.AppendRow(rows[i].v, int64(i)); err != nil {
					t.Fatal(err)
				}
				if rows[i].null {
					b.Vecs[0].SetNull(b.Len() - 1)
				}
			}
			if err := tb.AppendBatch(b); err != nil {
				t.Fatal(err)
			}
		}

		bound := expr.Bind(pred, tb.Schema())
		var got []int
		prev := 0
		for _, sp := range tb.Spans(expr.DeriveRanges(pred)) {
			if sp.Lo < prev || sp.Hi <= sp.Lo || sp.Hi > len(rows) {
				t.Fatalf("span %v out of order or bounds (previous end %d, %d rows)", sp, prev, len(rows))
			}
			prev = sp.Hi
			got = append(got, passing(t, tb, bound, sp.Lo, sp.Hi)...)
		}
		if want := passing(t, tb, bound, 0, len(rows)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%v over %v: spans keep rows %v, the whole table %v", pred, rows, got, want)
		}
	})
}

// TestSpansFollowTheSortedFlag: the tail is binary-searched only while the
// column is observed sorted with no NULL. A NULL in order, a step back, or
// a failed append turns it off for the rest of the tail.
func TestSpansFollowTheSortedFlag(t *testing.T) {
	rng := map[string]expr.Range{"id": {Lo: 4, Hi: 4}}
	for _, tc := range []struct {
		name  string
		fill  func(*Table) error
		spans string
	}{
		{"sorted", func(tb *Table) error { return appendIDs(tb, 0, 2, 4, 4, 6) }, "[{2 4}]"},
		{"sorted across appends", func(tb *Table) error {
			if err := appendIDs(tb, 0, 2, 4); err != nil {
				return err
			}
			return appendIDs(tb, 4, 6)
		}, "[{2 4}]"},
		{"a step back", func(tb *Table) error { return appendIDs(tb, 0, 2, 4, 3, 6) }, "[{0 5}]"},
		{"a step back across appends", func(tb *Table) error {
			if err := appendIDs(tb, 0, 2, 4); err != nil {
				return err
			}
			return appendIDs(tb, 3, 6)
		}, "[{0 5}]"},
		{"a NULL whose slot is in order", func(tb *Table) error {
			b := types.NewBatch(tb.Schema())
			for _, v := range []int64{0, 2, 3, 4, 6} {
				if err := b.AppendRow(v, float64(v)); err != nil {
					return err
				}
			}
			b.Vecs[0].SetNull(2)
			return tb.AppendBatch(b)
		}, "[{0 5}]"},
		{"a failed append", func(tb *Table) error {
			if err := appendIDs(tb, 0, 2, 4, 4, 6); err != nil {
				return err
			}
			bad := &types.Batch{Schema: tb.Schema(), Vecs: []*types.Vector{types.NewVector(types.Int, 1), types.NewVector(types.String, 1)}}
			if tb.AppendBatch(bad) == nil {
				return fmt.Errorf("a mistyped batch appended")
			}
			return nil
		}, "[{0 5}]"},
	} {
		tb := NewTable("t", intFloatSchema())
		if err := tc.fill(tb); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := fmt.Sprint(tb.Spans(rng)); got != tc.spans {
			t.Errorf("%s: Spans(id = 4) = %s, want %s", tc.name, got, tc.spans)
		}
	}
}

func appendIDs(tb *Table, ids ...int64) error {
	b := types.NewBatch(tb.Schema())
	for _, v := range ids {
		if err := b.AppendRow(v, float64(v)); err != nil {
			return err
		}
	}
	return tb.AppendBatch(b)
}
