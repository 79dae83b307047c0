package expr

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"raven/internal/types"
)

// Param is a late-bound query parameter (@name in a prepared statement).
// It types as Unknown — comparisons against any column type pass the bind-
// time check, and the concrete type is inferred from the supplied value at
// execute time (see ReplaceParams) — but carries no value: execution must
// substitute a literal first. Evaluating an unbound Param is an error, so
// a parameter that slips through substitution fails loudly instead of
// producing wrong rows.
type Param struct {
	Name string
}

// Eval implements Expr.
func (p *Param) Eval(*types.Batch) (*types.Vector, error) {
	return nil, fmt.Errorf("expr: parameter @%s not bound", p.Name)
}

// Type implements Expr.
func (p *Param) Type(*types.Schema) (types.DataType, error) { return types.Unknown, nil }

func (p *Param) String() string { return "@" + p.Name }

// LiteralFromString infers a literal from a parameter's string value the
// way the SQL lexer types tokens: integer, float, TRUE/FALSE, else
// string. So a parameter "120" compares numerically while "bob" stays a
// VARCHAR. (DECLAREd variables do not use this — they always bind
// as VARCHAR, preserving string semantics for values like '007'.)
func LiteralFromString(s string) *Literal {
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return IntLit(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return FloatLit(f)
	}
	if strings.EqualFold(s, "true") {
		return BoolLit(true)
	}
	if strings.EqualFold(s, "false") {
		return BoolLit(false)
	}
	return StringLit(s)
}

// WalkParams calls fn for every Param in e.
func WalkParams(e Expr, fn func(*Param)) {
	switch x := e.(type) {
	case *Param:
		fn(x)
	case *Binary:
		WalkParams(x.L, fn)
		WalkParams(x.R, fn)
	case *Not:
		WalkParams(x.E, fn)
	case *Case:
		for _, w := range x.Whens {
			WalkParams(w.Cond, fn)
			WalkParams(w.Then, fn)
		}
		if x.Else != nil {
			WalkParams(x.Else, fn)
		}
	}
}

// ReplaceParams returns e with every Param replaced by a literal inferred
// from vals (see literalFromString), rebuilding only the spine above
// replaced nodes so the input expression is never mutated (prepared
// statements share it across concurrent executions). The bool reports
// whether anything changed; a Param missing from vals is an error.
func ReplaceParams(e Expr, vals map[string]string) (Expr, bool, error) {
	switch x := e.(type) {
	case *Param:
		v, ok := vals[x.Name]
		if !ok {
			return nil, false, fmt.Errorf("expr: no value bound for parameter @%s", x.Name)
		}
		return LiteralFromString(v), true, nil
	case *Binary:
		l, cl, err := ReplaceParams(x.L, vals)
		if err != nil {
			return nil, false, err
		}
		r, cr, err := ReplaceParams(x.R, vals)
		if err != nil {
			return nil, false, err
		}
		if !cl && !cr {
			return e, false, nil
		}
		return &Binary{Op: x.Op, L: l, R: r}, true, nil
	case *Not:
		inner, c, err := ReplaceParams(x.E, vals)
		if err != nil {
			return nil, false, err
		}
		if !c {
			return e, false, nil
		}
		return &Not{E: inner}, true, nil
	case *Case:
		// whens stays nil until a branch changes: a CASE with no parameter
		// (an inlined tree is one per node) costs no allocation.
		var whens []When
		for i, w := range x.Whens {
			c, cc, err := ReplaceParams(w.Cond, vals)
			if err != nil {
				return nil, false, err
			}
			t, ct, err := ReplaceParams(w.Then, vals)
			if err != nil {
				return nil, false, err
			}
			if whens == nil && (cc || ct) {
				whens = slices.Clone(x.Whens)
			}
			if whens != nil {
				whens[i] = When{Cond: c, Then: t}
			}
		}
		els, ce := x.Else, false
		if x.Else != nil {
			var err error
			if els, ce, err = ReplaceParams(x.Else, vals); err != nil {
				return nil, false, err
			}
		}
		if whens == nil && !ce {
			return e, false, nil
		}
		if whens == nil {
			whens = slices.Clone(x.Whens)
		}
		return &Case{Whens: whens, Else: els}, true, nil
	default:
		return e, false, nil
	}
}
