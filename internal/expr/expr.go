// Package expr implements typed, vectorized expression evaluation over
// columnar batches: column references, literals, arithmetic, comparisons,
// boolean connectives and CASE/WHEN. It also provides the analysis the
// optimizers need — conjunct extraction, column usage, constant folding,
// and predicate-to-interval derivation for predicate-based model pruning.
package expr

import (
	"fmt"
	"strconv"
	"strings"

	"raven/internal/types"
)

// Expr is a typed expression evaluable against a batch.
type Expr interface {
	// Eval computes one value per batch row.
	Eval(b *types.Batch) (*types.Vector, error)
	// Type resolves the result type against an input schema.
	Type(s *types.Schema) (types.DataType, error)
	fmt.Stringer
}

// Column references a named input column, optionally qualified ("d.age").
type Column struct {
	Name string

	// bound/ord cache the ordinal of Name in one specific schema,
	// resolved once at compile time by Bind so per-batch evaluation skips
	// the name lookup. Eval falls back to lookup when the batch carries a
	// different schema.
	bound *types.Schema
	ord   int
}

// Eval implements Expr.
func (c *Column) Eval(b *types.Batch) (*types.Vector, error) {
	if c.bound == b.Schema {
		return b.Vecs[c.ord], nil
	}
	v := b.Col(c.Name)
	if v == nil {
		// qualified name fallback: match on suffix after '.'
		if i := strings.LastIndexByte(c.Name, '.'); i >= 0 {
			v = b.Col(c.Name[i+1:])
		}
	}
	if v == nil {
		return nil, fmt.Errorf("expr: column %q not found in %v", c.Name, b.Schema)
	}
	return v, nil
}

// PutEvalResult recycles the result of evaluating e. Column results alias
// the input batch — possibly live far downstream — and are never
// recycled; results of every other node are expression-owned
// intermediates that can return to the vector pool once consumed.
func PutEvalResult(e Expr, v *types.Vector) {
	if _, isCol := e.(*Column); !isCol {
		types.PutVector(v)
	}
}

// Bind returns e with column ordinals resolved against schema s: batches
// carrying exactly this schema pointer then evaluate columns by ordinal
// instead of by name. Plans — and so their expression trees — are shared
// by concurrently compiling queries, so Bind never mutates its input:
// nodes on the path to a bound column are copied, every other subtree is
// shared with the original. Sliced and gathered batches keep their
// parent's schema pointer, so bindings survive them.
func Bind(e Expr, s *types.Schema) Expr {
	switch x := e.(type) {
	case *Column:
		i := s.IndexOf(x.Name)
		if i < 0 {
			if j := strings.LastIndexByte(x.Name, '.'); j >= 0 {
				i = s.IndexOf(x.Name[j+1:])
			}
		}
		if i < 0 || (x.bound == s && x.ord == i) {
			return x
		}
		return &Column{Name: x.Name, bound: s, ord: i}
	case *Binary:
		l, r := Bind(x.L, s), Bind(x.R, s)
		if l == x.L && r == x.R {
			return x
		}
		return &Binary{Op: x.Op, L: l, R: r}
	case *Not:
		if inner := Bind(x.E, s); inner != x.E {
			return &Not{E: inner}
		}
		return x
	case *Case:
		changed := false
		whens := make([]When, len(x.Whens))
		for i, w := range x.Whens {
			whens[i] = When{Cond: Bind(w.Cond, s), Then: Bind(w.Then, s)}
			if whens[i] != w {
				changed = true
			}
		}
		var els Expr
		if x.Else != nil {
			els = Bind(x.Else, s)
			if els != x.Else {
				changed = true
			}
		}
		if !changed {
			return x
		}
		return &Case{Whens: whens, Else: els}
	default:
		return e
	}
}

// Type implements Expr.
func (c *Column) Type(s *types.Schema) (types.DataType, error) {
	i := s.IndexOf(c.Name)
	if i < 0 {
		if j := strings.LastIndexByte(c.Name, '.'); j >= 0 {
			i = s.IndexOf(c.Name[j+1:])
		}
	}
	if i < 0 {
		return types.Unknown, fmt.Errorf("expr: column %q not found in %v", c.Name, s)
	}
	return s.Columns[i].Type, nil
}

func (c *Column) String() string { return c.Name }

// BareName returns the unqualified column name.
func (c *Column) BareName() string {
	if i := strings.LastIndexByte(c.Name, '.'); i >= 0 {
		return c.Name[i+1:]
	}
	return c.Name
}

// Literal is a constant of a specific type.
type Literal struct {
	DT types.DataType
	F  float64
	I  int64
	B  bool
	S  string
}

// FloatLit builds a FLOAT literal.
func FloatLit(x float64) *Literal { return &Literal{DT: types.Float, F: x} }

// IntLit builds an INT literal.
func IntLit(x int64) *Literal { return &Literal{DT: types.Int, I: x} }

// BoolLit builds a BOOL literal.
func BoolLit(x bool) *Literal { return &Literal{DT: types.Bool, B: x} }

// StringLit builds a VARCHAR literal.
func StringLit(x string) *Literal { return &Literal{DT: types.String, S: x} }

// Eval implements Expr. Literals evaluate to a pooled broadcast vector —
// one physical row with the batch's logical length — that the kernels
// read with stride 0 instead of materializing a full column.
func (l *Literal) Eval(b *types.Batch) (*types.Vector, error) {
	n := b.Len()
	if l.DT != types.Float && l.DT != types.Int && l.DT != types.Bool && l.DT != types.String {
		return nil, fmt.Errorf("expr: literal of unknown type")
	}
	v := types.GetVector(l.DT, 1)
	switch l.DT {
	case types.Float:
		v.Floats[0] = l.F
	case types.Int:
		v.Ints[0] = l.I
	case types.Bool:
		v.Bools[0] = l.B
	case types.String:
		v.Strings[0] = l.S
	}
	v.MarkConst(n)
	return v, nil
}

// Type implements Expr.
func (l *Literal) Type(*types.Schema) (types.DataType, error) { return l.DT, nil }

func (l *Literal) String() string {
	switch l.DT {
	case types.Float:
		return strconv.FormatFloat(l.F, 'g', -1, 64)
	case types.Int:
		return strconv.FormatInt(l.I, 10)
	case types.Bool:
		if l.B {
			return "TRUE"
		}
		return "FALSE"
	case types.String:
		return "'" + l.S + "'"
	default:
		return "?"
	}
}

// AsFloat returns the numeric value of a numeric/bool literal.
func (l *Literal) AsFloat() float64 {
	switch l.DT {
	case types.Float:
		return l.F
	case types.Int:
		return float64(l.I)
	case types.Bool:
		if l.B {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binOpNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR",
}

// IsComparison reports whether op yields a boolean from two operands.
func (op BinOp) IsComparison() bool { return op >= OpEq && op <= OpGe }

// Binary applies op to two subexpressions.
type Binary struct {
	Op   BinOp
	L, R Expr
}

// NewBinary constructs a binary expression.
func NewBinary(op BinOp, l, r Expr) *Binary { return &Binary{Op: op, L: l, R: r} }

func (e *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, binOpNames[e.Op], e.R)
}

// Type implements Expr.
func (e *Binary) Type(s *types.Schema) (types.DataType, error) {
	lt, err := e.L.Type(s)
	if err != nil {
		return types.Unknown, err
	}
	rt, err := e.R.Type(s)
	if err != nil {
		return types.Unknown, err
	}
	// Unknown means a late-bound parameter: its concrete type arrives with
	// the value at execute time, so bind-time checks let it through and
	// physical schemas are recomputed after substitution. A value of the
	// wrong kind still fails loudly when the substituted expression
	// evaluates.
	switch {
	case e.Op == OpAnd || e.Op == OpOr:
		if (lt != types.Bool && lt != types.Unknown) || (rt != types.Bool && rt != types.Unknown) {
			return types.Unknown, fmt.Errorf("expr: %s needs BOOL operands, got %v and %v", binOpNames[e.Op], lt, rt)
		}
		return types.Bool, nil
	case e.Op.IsComparison():
		if lt == types.Unknown || rt == types.Unknown {
			return types.Bool, nil
		}
		if lt == types.String || rt == types.String {
			if lt != rt {
				return types.Unknown, fmt.Errorf("expr: cannot compare %v with %v", lt, rt)
			}
			return types.Bool, nil
		}
		return types.Bool, nil
	default: // arithmetic
		if lt == types.Unknown || rt == types.Unknown {
			// Provisional: the widest numeric type until the parameter binds.
			return types.Float, nil
		}
		if !lt.IsNumeric() && lt != types.Bool || !rt.IsNumeric() && rt != types.Bool {
			return types.Unknown, fmt.Errorf("expr: arithmetic needs numeric operands, got %v and %v", lt, rt)
		}
		if lt == types.Int && rt == types.Int && e.Op != OpDiv {
			return types.Int, nil
		}
		return types.Float, nil
	}
}

// Eval implements Expr. Operands feed type-specialized kernels; pooled
// intermediate operand vectors are recycled once the kernel has written
// its (never aliasing) output.
func (e *Binary) Eval(b *types.Batch) (*types.Vector, error) {
	lv, err := e.L.Eval(b)
	if err != nil {
		return nil, err
	}
	rv, err := e.R.Eval(b)
	if err != nil {
		PutEvalResult(e.L, lv)
		return nil, err
	}
	n := b.Len()
	var out *types.Vector
	switch {
	case e.Op == OpAnd || e.Op == OpOr:
		if lv.Type != types.Bool || rv.Type != types.Bool {
			return nil, fmt.Errorf("expr: %s over non-bool vectors", binOpNames[e.Op])
		}
		if lv.Const && rv.Const {
			out = types.GetVector(types.Bool, 1)
			boolKernel(e.Op, lv.Bools, rv.Bools, true, true, out.Bools)
			out.MarkConst(n)
		} else {
			out = types.GetVector(types.Bool, n)
			boolKernel(e.Op, lv.Bools, rv.Bools, lv.Const, rv.Const, out.Bools)
		}
	case e.Op.IsComparison():
		out, err = evalCompare(e.Op, lv, rv, n)
	default:
		out, err = evalArith(e.Op, lv, rv, n)
	}
	PutEvalResult(e.L, lv)
	PutEvalResult(e.R, rv)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// constCmp builds the broadcast result of comparing two const operands.
func constCmp(op BinOp, c, n int) *types.Vector {
	v := types.GetVector(types.Bool, 1)
	v.Bools[0] = cmpResult(op, c)
	v.MarkConst(n)
	return v
}

func evalCompare(op BinOp, lv, rv *types.Vector, n int) (*types.Vector, error) {
	if lv.Type == types.String || rv.Type == types.String {
		if lv.Type != rv.Type {
			return nil, fmt.Errorf("expr: cannot compare %v with %v", lv.Type, rv.Type)
		}
		if lv.Const && rv.Const {
			return constCmp(op, strings.Compare(lv.Strings[0], rv.Strings[0]), n), nil
		}
		out := types.GetVector(types.Bool, n)
		cmpKernel(op, lv.Strings, rv.Strings, lv.Const, rv.Const, out.Bools)
		return out, nil
	}
	// fast paths: both operands of one numeric type
	if lv.Type == types.Int && rv.Type == types.Int {
		if lv.Const && rv.Const {
			return constCmp(op, cmpInt(lv.Ints[0], rv.Ints[0]), n), nil
		}
		out := types.GetVector(types.Bool, n)
		cmpKernel(op, lv.Ints, rv.Ints, lv.Const, rv.Const, out.Bools)
		return out, nil
	}
	if lv.Type == types.Float && rv.Type == types.Float {
		if lv.Const && rv.Const {
			return constCmp(op, cmpFloat(lv.Floats[0], rv.Floats[0]), n), nil
		}
		out := types.GetVector(types.Bool, n)
		cmpKernel(op, lv.Floats, rv.Floats, lv.Const, rv.Const, out.Bools)
		return out, nil
	}
	// mixed operand kinds: per-row coercion (AsFloat resolves broadcast)
	if lv.Const && rv.Const {
		return constCmp(op, cmpFloat(lv.AsFloat(0), rv.AsFloat(0)), n), nil
	}
	out := types.GetVector(types.Bool, n)
	for i := 0; i < n; i++ {
		out.Bools[i] = cmpResult(op, cmpFloat(lv.AsFloat(i), rv.AsFloat(i)))
	}
	return out, nil
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpResult(op BinOp, c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return false
}

func evalArith(op BinOp, lv, rv *types.Vector, n int) (*types.Vector, error) {
	if lv.Type == types.String || rv.Type == types.String {
		return nil, fmt.Errorf("expr: arithmetic over VARCHAR")
	}
	if lv.Type == types.Int && rv.Type == types.Int && op != OpDiv {
		if lv.Const && rv.Const {
			out := types.GetVector(types.Int, 1)
			arithKernel(op, lv.Ints, rv.Ints, true, true, out.Ints)
			out.MarkConst(n)
			return out, nil
		}
		out := types.GetVector(types.Int, n)
		arithKernel(op, lv.Ints, rv.Ints, lv.Const, rv.Const, out.Ints)
		return out, nil
	}
	if lv.Type == types.Float && rv.Type == types.Float {
		if lv.Const && rv.Const {
			out := types.GetVector(types.Float, 1)
			arithKernel(op, lv.Floats, rv.Floats, true, true, out.Floats)
			out.MarkConst(n)
			return out, nil
		}
		out := types.GetVector(types.Float, n)
		arithKernel(op, lv.Floats, rv.Floats, lv.Const, rv.Const, out.Floats)
		return out, nil
	}
	// mixed operand kinds (INT/FLOAT/BOOL): per-row coercion
	if lv.Const && rv.Const {
		out := types.GetVector(types.Float, 1)
		out.Floats[0] = arithScalar(op, lv.AsFloat(0), rv.AsFloat(0))
		out.MarkConst(n)
		return out, nil
	}
	out := types.GetVector(types.Float, n)
	for i := 0; i < n; i++ {
		out.Floats[i] = arithScalar(op, lv.AsFloat(i), rv.AsFloat(i))
	}
	return out, nil
}

// Not negates a boolean expression.
type Not struct {
	E Expr
}

// Eval implements Expr.
func (e *Not) Eval(b *types.Batch) (*types.Vector, error) {
	v, err := e.E.Eval(b)
	if err != nil {
		return nil, err
	}
	if v.Type != types.Bool {
		return nil, fmt.Errorf("expr: NOT over %v", v.Type)
	}
	if v.Const {
		out := types.GetVector(types.Bool, 1)
		out.Bools[0] = !v.Bools[0]
		out.MarkConst(v.Len())
		PutEvalResult(e.E, v)
		return out, nil
	}
	out := types.GetVector(types.Bool, len(v.Bools))
	for i := range v.Bools {
		out.Bools[i] = !v.Bools[i]
	}
	PutEvalResult(e.E, v)
	return out, nil
}

// Type implements Expr.
func (e *Not) Type(s *types.Schema) (types.DataType, error) {
	t, err := e.E.Type(s)
	if err != nil {
		return types.Unknown, err
	}
	if t != types.Bool {
		return types.Unknown, fmt.Errorf("expr: NOT over %v", t)
	}
	return types.Bool, nil
}

func (e *Not) String() string { return fmt.Sprintf("(NOT %s)", e.E) }

// When is one CASE arm.
type When struct {
	Cond Expr
	Then Expr
}

// Case is a searched CASE expression: CASE WHEN c1 THEN v1 ... ELSE e END.
// Model inlining (§4.2) compiles decision trees into nested Case trees.
type Case struct {
	Whens []When
	Else  Expr
}

// Type implements Expr. Arm result types must agree exactly, except that
// mixed numeric arms (INT/FLOAT/BOOL) promote to FLOAT, matching SQL's
// implicit numeric coercion in CASE.
func (e *Case) Type(s *types.Schema) (types.DataType, error) {
	if len(e.Whens) == 0 || e.Else == nil {
		return types.Unknown, fmt.Errorf("expr: CASE needs at least one WHEN and an ELSE")
	}
	arms := make([]types.DataType, 0, len(e.Whens)+1)
	for _, w := range e.Whens {
		ct, err := w.Cond.Type(s)
		if err != nil {
			return types.Unknown, err
		}
		if ct != types.Bool {
			return types.Unknown, fmt.Errorf("expr: CASE condition is %v, not BOOL", ct)
		}
		at, err := w.Then.Type(s)
		if err != nil {
			return types.Unknown, err
		}
		arms = append(arms, at)
	}
	et, err := e.Else.Type(s)
	if err != nil {
		return types.Unknown, err
	}
	arms = append(arms, et)
	out := arms[0]
	for _, a := range arms[1:] {
		if a == out {
			continue
		}
		numeric := func(t types.DataType) bool { return t.IsNumeric() || t == types.Bool }
		if numeric(a) && numeric(out) {
			out = types.Float
			continue
		}
		return types.Unknown, fmt.Errorf("expr: CASE arms have incompatible types %v and %v", out, a)
	}
	return out, nil
}

// gatherRows is b.Gather(sel) into pooled vectors. The sub-batches of a
// CASE are private to its evaluation — every arm result is scattered
// into the output before the next arm runs — so they go back to the pool
// through putRows instead of to the collector: a tree inlined as nested
// CASEs gathers each row once per level.
func gatherRows(b *types.Batch, sel []int) *types.Batch {
	vecs := make([]*types.Vector, len(b.Vecs))
	for i, v := range b.Vecs {
		vecs[i] = types.GetVector(v.Type, 0)
		v.GatherInto(vecs[i], sel)
	}
	return &types.Batch{Schema: b.Schema, Vecs: vecs}
}

func putRows(b *types.Batch) {
	for _, v := range b.Vecs {
		types.PutVector(v)
	}
}

// Eval implements Expr. Evaluation is mask-driven: each arm's THEN runs
// only on the rows its condition selects (gathered into a sub-batch), so a
// decision tree inlined as nested CASEs costs O(depth·n) — the same
// asymptotics as native tree traversal, but vectorized.
func (e *Case) Eval(b *types.Batch) (*types.Vector, error) {
	n := b.Len()
	t, err := e.Type(b.Schema)
	if err != nil {
		return nil, err
	}
	out := types.GetVector(t, n)
	// idx maps current sub-batch positions to output rows.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	cur := b
	// cur is b or a sub-batch this call gathered; only the latter is ours
	// to recycle.
	defer func() {
		if cur != b {
			putRows(cur)
		}
	}()
	// scatter reads arm results through the broadcast-aware accessors so
	// literal THEN arms need no materialized vector.
	scatter := func(vals *types.Vector, rows []int) {
		for k, i := range rows {
			switch t {
			case types.Float:
				out.Floats[i] = vals.AsFloat(k)
			case types.Int:
				out.Ints[i] = vals.IntAt(k)
			case types.Bool:
				out.Bools[i] = vals.BoolAt(k)
			case types.String:
				out.Strings[i] = vals.StringAt(k)
			}
		}
	}
	for _, w := range e.Whens {
		if len(idx) == 0 {
			return out, nil
		}
		cond, err := w.Cond.Eval(cur)
		if err != nil {
			return nil, err
		}
		if cond.Type != types.Bool {
			return nil, fmt.Errorf("expr: CASE condition evaluated to %v", cond.Type)
		}
		var selT, selF []int // positions within cur, sized in one allocation
		if cond.Const {
			// broadcast condition: every remaining row takes one side
			if cond.Bools[0] {
				PutEvalResult(w.Cond, cond)
				vals, err := w.Then.Eval(cur)
				if err != nil {
					return nil, err
				}
				scatter(vals, idx)
				PutEvalResult(w.Then, vals)
				return out, nil
			}
			PutEvalResult(w.Cond, cond)
			continue
		}
		nT := 0
		for _, ok := range cond.Bools {
			if ok {
				nT++
			}
		}
		sel := make([]int, len(cond.Bools))
		selT, selF = sel[:0:nT], sel[nT:nT]
		for k, ok := range cond.Bools {
			if ok {
				selT = append(selT, k)
			} else {
				selF = append(selF, k)
			}
		}
		PutEvalResult(w.Cond, cond)
		if len(selT) > 0 {
			sub := cur
			rows := idx
			if len(selT) < len(idx) {
				sub = gatherRows(cur, selT)
				rows = selT // positions become output rows in place
				for k, p := range selT {
					rows[k] = idx[p]
				}
			}
			vals, err := w.Then.Eval(sub)
			if err == nil {
				scatter(vals, rows)
				PutEvalResult(w.Then, vals)
			}
			if sub != cur {
				putRows(sub)
			}
			if err != nil {
				return nil, err
			}
		}
		if len(selF) == 0 {
			return out, nil
		}
		if len(selF) < len(idx) {
			next := gatherRows(cur, selF)
			if cur != b {
				putRows(cur)
			}
			cur = next
			for k, p := range selF {
				selF[k] = idx[p]
			}
			idx = selF
		}
	}
	vals, err := e.Else.Eval(cur)
	if err != nil {
		return nil, err
	}
	scatter(vals, idx)
	PutEvalResult(e.Else, vals)
	return out, nil
}

func (e *Case) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range e.Whens {
		fmt.Fprintf(&sb, " WHEN %s THEN %s", w.Cond, w.Then)
	}
	fmt.Fprintf(&sb, " ELSE %s END", e.Else)
	return sb.String()
}
