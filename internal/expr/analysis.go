package expr

import (
	"math"
	"strings"

	"raven/internal/types"
)

// Conjuncts splits an expression on top-level ANDs.
func Conjuncts(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// And re-joins conjuncts; nil for an empty list.
func And(es []Expr) Expr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		out = NewBinary(OpAnd, out, e)
	}
	return out
}

// Columns returns the distinct (bare, lower-cased) column names used by e.
func Columns(e Expr) []string {
	seen := make(map[string]bool)
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *Column:
			seen[strings.ToLower(x.BareName())] = true
		case *Binary:
			walk(x.L)
			walk(x.R)
		case *Not:
			walk(x.E)
		case *Case:
			for _, w := range x.Whens {
				walk(w.Cond)
				walk(w.Then)
			}
			if x.Else != nil {
				walk(x.Else)
			}
		}
	}
	walk(e)
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	// deterministic order
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Simplify performs constant folding: literal-only subtrees collapse, and
// boolean identities (TRUE AND x, FALSE OR x, ...) reduce.
func Simplify(e Expr) Expr {
	switch x := e.(type) {
	case *Binary:
		l, r := Simplify(x.L), Simplify(x.R)
		ll, lok := l.(*Literal)
		rl, rok := r.(*Literal)
		if lok && rok {
			if v := foldLiterals(x.Op, ll, rl); v != nil {
				return v
			}
		}
		// boolean identities
		if x.Op == OpAnd {
			if lok && isBoolLit(ll, true) {
				return r
			}
			if rok && isBoolLit(rl, true) {
				return l
			}
			if lok && isBoolLit(ll, false) {
				return BoolLit(false)
			}
			if rok && isBoolLit(rl, false) {
				return BoolLit(false)
			}
		}
		if x.Op == OpOr {
			if lok && isBoolLit(ll, false) {
				return r
			}
			if rok && isBoolLit(rl, false) {
				return l
			}
			if lok && isBoolLit(ll, true) {
				return BoolLit(true)
			}
			if rok && isBoolLit(rl, true) {
				return BoolLit(true)
			}
		}
		return &Binary{Op: x.Op, L: l, R: r}
	case *Not:
		inner := Simplify(x.E)
		if l, ok := inner.(*Literal); ok && l.DT == types.Bool {
			return BoolLit(!l.B)
		}
		return &Not{E: inner}
	case *Case:
		out := &Case{Else: x.Else}
		if x.Else != nil {
			out.Else = Simplify(x.Else)
		}
		for _, w := range x.Whens {
			c := Simplify(w.Cond)
			if l, ok := c.(*Literal); ok && l.DT == types.Bool {
				if l.B {
					// first always-true arm terminates the CASE
					if len(out.Whens) == 0 {
						return Simplify(w.Then)
					}
					out.Else = Simplify(w.Then)
					return out
				}
				continue // always-false arm drops
			}
			out.Whens = append(out.Whens, When{Cond: c, Then: Simplify(w.Then)})
		}
		if len(out.Whens) == 0 {
			return out.Else
		}
		return out
	default:
		return e
	}
}

func isBoolLit(l *Literal, v bool) bool { return l.DT == types.Bool && l.B == v }

func foldLiterals(op BinOp, l, r *Literal) *Literal {
	switch {
	case op == OpAnd || op == OpOr:
		if l.DT != types.Bool || r.DT != types.Bool {
			return nil
		}
		if op == OpAnd {
			return BoolLit(l.B && r.B)
		}
		return BoolLit(l.B || r.B)
	case op.IsComparison():
		if l.DT == types.String || r.DT == types.String {
			if l.DT != r.DT {
				return nil
			}
			return BoolLit(cmpResult(op, strings.Compare(l.S, r.S)))
		}
		return BoolLit(cmpResult(op, cmpFloat(l.AsFloat(), r.AsFloat())))
	default:
		if l.DT == types.String || r.DT == types.String {
			return nil
		}
		a, b := l.AsFloat(), r.AsFloat()
		var v float64
		switch op {
		case OpAdd:
			v = a + b
		case OpSub:
			v = a - b
		case OpMul:
			v = a * b
		case OpDiv:
			if b == 0 {
				return nil
			}
			v = a / b
		}
		if l.DT == types.Int && r.DT == types.Int && op != OpDiv {
			return IntLit(int64(v))
		}
		return FloatLit(v)
	}
}

// Range is a numeric interval with possibly infinite bounds.
type Range struct {
	Lo, Hi float64
}

// FullRange covers all reals.
func FullRange() Range { return Range{Lo: math.Inf(-1), Hi: math.Inf(1)} }

// Intersect narrows r by o.
func (r Range) Intersect(o Range) Range {
	if o.Lo > r.Lo {
		r.Lo = o.Lo
	}
	if o.Hi < r.Hi {
		r.Hi = o.Hi
	}
	return r
}

// Empty reports whether no value satisfies the range.
func (r Range) Empty() bool { return r.Lo > r.Hi }

// DeriveRanges extracts per-column value ranges implied by a predicate's
// top-level conjuncts ("pregnant = 1 AND age > 35" → pregnant ∈ [1,1],
// age ∈ (35,∞)). This feeds predicate-based model pruning (§4.1); the
// strict bound of > / < is approximated by nudging one ULP, which is exact
// for the comparisons trees perform.
func DeriveRanges(pred Expr) map[string]Range {
	out := make(map[string]Range)
	add := func(col string, r Range) {
		col = strings.ToLower(col)
		cur, ok := out[col]
		if !ok {
			cur = FullRange()
		}
		out[col] = cur.Intersect(r)
	}
	for _, c := range Conjuncts(pred) {
		b, ok := c.(*Binary)
		if !ok || !b.Op.IsComparison() {
			continue
		}
		col, lit, op := normalizeComparison(b)
		if col == nil {
			continue
		}
		v := lit.AsFloat()
		switch op {
		case OpEq:
			add(col.BareName(), Range{Lo: v, Hi: v})
		case OpLt:
			add(col.BareName(), Range{Lo: math.Inf(-1), Hi: math.Nextafter(v, math.Inf(-1))})
		case OpLe:
			add(col.BareName(), Range{Lo: math.Inf(-1), Hi: v})
		case OpGt:
			add(col.BareName(), Range{Lo: math.Nextafter(v, math.Inf(1)), Hi: math.Inf(1)})
		case OpGe:
			add(col.BareName(), Range{Lo: v, Hi: math.Inf(1)})
		}
	}
	return out
}

// normalizeComparison rewrites a comparison so the column is on the left,
// returning (column, literal, effective op). Either side may be the column.
func normalizeComparison(b *Binary) (*Column, *Literal, BinOp) {
	if c, ok := b.L.(*Column); ok {
		if l, ok := b.R.(*Literal); ok {
			return c, l, b.Op
		}
	}
	if c, ok := b.R.(*Column); ok {
		if l, ok := b.L.(*Literal); ok {
			return c, l, flip(b.Op)
		}
	}
	return nil, nil, b.Op
}

func flip(op BinOp) BinOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return op
	}
}
