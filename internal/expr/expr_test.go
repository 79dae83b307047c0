package expr

import (
	"math"
	"sync"
	"testing"

	"raven/internal/types"
)

func testBatch(t *testing.T) *types.Batch {
	t.Helper()
	s := types.NewSchema(
		types.Column{Name: "age", Type: types.Float},
		types.Column{Name: "pregnant", Type: types.Int},
		types.Column{Name: "name", Type: types.String},
		types.Column{Name: "ok", Type: types.Bool},
	)
	b := types.NewBatch(s)
	rows := []struct {
		age      float64
		pregnant int64
		name     string
		ok       bool
	}{
		{30, 1, "ann", true},
		{40, 0, "bob", false},
		{35, 1, "cat", true},
	}
	for _, r := range rows {
		if err := b.AppendRow(r.age, r.pregnant, r.name, r.ok); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func TestColumnEvalAndQualified(t *testing.T) {
	b := testBatch(t)
	v, err := (&Column{Name: "age"}).Eval(b)
	if err != nil || v.Floats[1] != 40 {
		t.Fatalf("col eval: %v %v", v, err)
	}
	v2, err := (&Column{Name: "d.age"}).Eval(b)
	if err != nil || v2.Floats[0] != 30 {
		t.Fatalf("qualified col eval: %v %v", v2, err)
	}
	if _, err := (&Column{Name: "zzz"}).Eval(b); err == nil {
		t.Error("missing column should fail")
	}
	dt, err := (&Column{Name: "p.pregnant"}).Type(b.Schema)
	if err != nil || dt != types.Int {
		t.Errorf("qualified Type = %v, %v", dt, err)
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	b := testBatch(t)
	// age > 35 AND pregnant = 1 -> only nobody; age >= 35 AND pregnant = 1 -> row 2
	e := NewBinary(OpAnd,
		NewBinary(OpGe, &Column{Name: "age"}, FloatLit(35)),
		NewBinary(OpEq, &Column{Name: "pregnant"}, IntLit(1)))
	v, err := e.Eval(b)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, false, true}
	for i, w := range want {
		if v.Bools[i] != w {
			t.Errorf("row %d = %v, want %v", i, v.Bools[i], w)
		}
	}
	dt, err := e.Type(b.Schema)
	if err != nil || dt != types.Bool {
		t.Errorf("Type = %v, %v", dt, err)
	}
}

func TestMixedIntFloatComparison(t *testing.T) {
	b := testBatch(t)
	v, err := NewBinary(OpLt, &Column{Name: "pregnant"}, FloatLit(0.5)).Eval(b)
	if err != nil {
		t.Fatal(err)
	}
	if v.Bools[0] || !v.Bools[1] {
		t.Errorf("int-vs-float compare = %v", v.Bools)
	}
}

func TestStringComparison(t *testing.T) {
	b := testBatch(t)
	v, err := NewBinary(OpEq, &Column{Name: "name"}, StringLit("bob")).Eval(b)
	if err != nil {
		t.Fatal(err)
	}
	if v.Bools[0] || !v.Bools[1] || v.Bools[2] {
		t.Errorf("string eq = %v", v.Bools)
	}
	if _, err := NewBinary(OpEq, &Column{Name: "name"}, IntLit(1)).Eval(b); err == nil {
		t.Error("string vs int compare should fail")
	}
	if _, err := NewBinary(OpAdd, &Column{Name: "name"}, IntLit(1)).Eval(b); err == nil {
		t.Error("string arithmetic should fail")
	}
}

func TestArithmetic(t *testing.T) {
	b := testBatch(t)
	v, err := NewBinary(OpMul, &Column{Name: "age"}, FloatLit(2)).Eval(b)
	if err != nil || v.Floats[0] != 60 {
		t.Fatalf("mul: %v %v", v, err)
	}
	// int+int stays int
	v2, err := NewBinary(OpAdd, &Column{Name: "pregnant"}, IntLit(10)).Eval(b)
	if err != nil || v2.Type != types.Int || v2.Ints[0] != 11 {
		t.Fatalf("int add: %v %v", v2, err)
	}
	// int/int becomes float
	v3, err := NewBinary(OpDiv, IntLit(1), IntLit(2)).Eval(b)
	if err != nil || v3.Type != types.Float || v3.Floats[0] != 0.5 {
		t.Fatalf("div: %v %v", v3, err)
	}
}

func TestNot(t *testing.T) {
	b := testBatch(t)
	v, err := (&Not{E: &Column{Name: "ok"}}).Eval(b)
	if err != nil || v.Bools[0] || !v.Bools[1] {
		t.Fatalf("not: %v %v", v, err)
	}
	if _, err := (&Not{E: &Column{Name: "age"}}).Eval(b); err == nil {
		t.Error("NOT over float should fail")
	}
}

func TestCase(t *testing.T) {
	b := testBatch(t)
	// CASE WHEN age <= 32 THEN 1 WHEN age <= 37 THEN 2 ELSE 3 END
	e := &Case{
		Whens: []When{
			{Cond: NewBinary(OpLe, &Column{Name: "age"}, FloatLit(32)), Then: FloatLit(1)},
			{Cond: NewBinary(OpLe, &Column{Name: "age"}, FloatLit(37)), Then: FloatLit(2)},
		},
		Else: FloatLit(3),
	}
	v, err := e.Eval(b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 2}
	for i, w := range want {
		if v.Floats[i] != w {
			t.Errorf("case row %d = %v, want %v", i, v.Floats[i], w)
		}
	}
	if s := e.String(); s == "" {
		t.Error("empty String()")
	}
}

// TestCaseRecyclesOnlyItsOwnRows pins what the pooled sub-batches of
// Case.Eval must not break: a nested CASE whose arms are bare columns
// (results that alias the sub-batch they were evaluated on) equals the
// row-wise reference, evaluation after evaluation and from concurrent
// callers, and leaves the input batch as it was.
func TestCaseRecyclesOnlyItsOwnRows(t *testing.T) {
	const n = 257
	b := types.NewBatch(types.NewSchema(
		types.Column{Name: "x", Type: types.Float}, types.Column{Name: "y", Type: types.Float},
		types.Column{Name: "z", Type: types.Float}))
	for i := 0; i < n; i++ {
		if err := b.AppendRow(float64(i%11), float64(i%7)+0.5, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	col := func(name string) Expr { return &Column{Name: name} }
	le := func(name string, v float64) Expr { return NewBinary(OpLe, col(name), FloatLit(v)) }
	inner := &Case{Whens: []When{{Cond: le("y", 3), Then: col("z")}}, Else: col("x")}
	e := &Case{
		Whens: []When{
			{Cond: le("x", 2), Then: inner},
			{Cond: le("x", 7), Then: &Case{Whens: []When{{Cond: le("y", 1), Then: FloatLit(-1)}}, Else: inner}},
		},
		Else: col("y"),
	}
	want := make([]float64, n)
	for i := range want {
		x, y, z := b.Vecs[0].Floats[i], b.Vecs[1].Floats[i], b.Vecs[2].Floats[i]
		in := x
		if y <= 3 {
			in = z
		}
		switch {
		case x <= 2:
			want[i] = in
		case x <= 7 && y <= 1:
			want[i] = -1
		case x <= 7:
			want[i] = in
		default:
			want[i] = y
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				v, err := e.Eval(b)
				if err != nil {
					t.Error(err)
					return
				}
				for i, w := range want {
					if v.Floats[i] != w {
						t.Errorf("round %d row %d = %v, want %v", round, i, v.Floats[i], w)
						return
					}
				}
				PutEvalResult(e, v)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if b.Vecs[2].Floats[i] != float64(i) || b.Vecs[0].Len() != n {
			t.Fatalf("input batch changed at row %d", i)
		}
	}
}

func TestConjunctsAndAnd(t *testing.T) {
	a := NewBinary(OpGt, &Column{Name: "x"}, IntLit(1))
	b := NewBinary(OpLt, &Column{Name: "y"}, IntLit(2))
	c := NewBinary(OpEq, &Column{Name: "z"}, IntLit(3))
	e := NewBinary(OpAnd, NewBinary(OpAnd, a, b), c)
	cs := Conjuncts(e)
	if len(cs) != 3 {
		t.Fatalf("Conjuncts = %d", len(cs))
	}
	re := And(cs)
	if re.String() != e.String() {
		t.Errorf("And(Conjuncts) = %s, want %s", re, e)
	}
	if And(nil) != nil {
		t.Error("And(nil) should be nil")
	}
}

func TestColumns(t *testing.T) {
	e := NewBinary(OpAnd,
		NewBinary(OpGt, &Column{Name: "d.Age"}, IntLit(1)),
		NewBinary(OpEq, &Column{Name: "pregnant"}, &Column{Name: "age"}))
	cols := Columns(e)
	if len(cols) != 2 || cols[0] != "age" || cols[1] != "pregnant" {
		t.Errorf("Columns = %v", cols)
	}
}

func TestSimplify(t *testing.T) {
	// (1 + 2) * 3 -> 9
	e := NewBinary(OpMul, NewBinary(OpAdd, IntLit(1), IntLit(2)), IntLit(3))
	s := Simplify(e)
	if l, ok := s.(*Literal); !ok || l.I != 9 {
		t.Errorf("Simplify = %v", s)
	}
	// TRUE AND x -> x
	x := NewBinary(OpGt, &Column{Name: "x"}, IntLit(0))
	if got := Simplify(NewBinary(OpAnd, BoolLit(true), x)); got.String() != x.String() {
		t.Errorf("TRUE AND x = %v", got)
	}
	// FALSE AND x -> FALSE
	if got := Simplify(NewBinary(OpAnd, x, BoolLit(false))); got.String() != "FALSE" {
		t.Errorf("x AND FALSE = %v", got)
	}
	// x OR TRUE -> TRUE
	if got := Simplify(NewBinary(OpOr, x, BoolLit(true))); got.String() != "TRUE" {
		t.Errorf("x OR TRUE = %v", got)
	}
	// NOT TRUE -> FALSE
	if got := Simplify(&Not{E: BoolLit(true)}); got.String() != "FALSE" {
		t.Errorf("NOT TRUE = %v", got)
	}
	// 3 > 2 -> TRUE
	if got := Simplify(NewBinary(OpGt, IntLit(3), IntLit(2))); got.String() != "TRUE" {
		t.Errorf("3 > 2 = %v", got)
	}
	// division by zero literal left unfolded
	if got := Simplify(NewBinary(OpDiv, IntLit(1), IntLit(0))); got.String() == "" {
		t.Error("div-by-zero must not fold")
	}
}

func TestSimplifyCase(t *testing.T) {
	x := NewBinary(OpGt, &Column{Name: "x"}, IntLit(0))
	// CASE WHEN FALSE THEN 1 WHEN x THEN 2 ELSE 3 -> CASE WHEN x THEN 2 ELSE 3
	c := &Case{
		Whens: []When{
			{Cond: BoolLit(false), Then: IntLit(1)},
			{Cond: x, Then: IntLit(2)},
		},
		Else: IntLit(3),
	}
	s := Simplify(c).(*Case)
	if len(s.Whens) != 1 {
		t.Errorf("false arm not dropped: %v", s)
	}
	// CASE WHEN TRUE THEN 1 ELSE 2 -> 1
	c2 := &Case{Whens: []When{{Cond: BoolLit(true), Then: IntLit(1)}}, Else: IntLit(2)}
	if got := Simplify(c2); got.String() != "1" {
		t.Errorf("always-true case = %v", got)
	}
	// all arms false -> ELSE
	c3 := &Case{Whens: []When{{Cond: BoolLit(false), Then: IntLit(1)}}, Else: IntLit(2)}
	if got := Simplify(c3); got.String() != "2" {
		t.Errorf("all-false case = %v", got)
	}
}

func TestDeriveRanges(t *testing.T) {
	// pregnant = 1 AND age > 35 AND age <= 60 AND 100 >= bp
	e := And([]Expr{
		NewBinary(OpEq, &Column{Name: "d.pregnant"}, IntLit(1)),
		NewBinary(OpGt, &Column{Name: "age"}, FloatLit(35)),
		NewBinary(OpLe, &Column{Name: "age"}, FloatLit(60)),
		NewBinary(OpGe, FloatLit(100), &Column{Name: "bp"}),
	})
	r := DeriveRanges(e)
	if p := r["pregnant"]; p.Lo != 1 || p.Hi != 1 {
		t.Errorf("pregnant range = %+v", p)
	}
	if a := r["age"]; !(a.Lo > 35) || a.Hi != 60 {
		t.Errorf("age range = %+v", a)
	}
	if bp := r["bp"]; bp.Hi != 100 || !math.IsInf(bp.Lo, -1) {
		t.Errorf("bp range = %+v (flipped comparison)", bp)
	}
	// contradictory ranges become empty
	e2 := And([]Expr{
		NewBinary(OpGt, &Column{Name: "x"}, FloatLit(10)),
		NewBinary(OpLt, &Column{Name: "x"}, FloatLit(5)),
	})
	if r2 := DeriveRanges(e2); !r2["x"].Empty() {
		t.Errorf("contradiction not empty: %+v", r2["x"])
	}
}

func TestLiteralString(t *testing.T) {
	if FloatLit(1.5).String() != "1.5" || IntLit(3).String() != "3" ||
		BoolLit(true).String() != "TRUE" || StringLit("a").String() != "'a'" {
		t.Error("literal String()")
	}
}
