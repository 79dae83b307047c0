package plan

import (
	"sort"

	"raven/internal/expr"
)

// CollectParams returns the distinct names of unbound parameters (@name
// placeholders left by a binder with AllowParams) anywhere in the plan,
// sorted. An empty result means the plan is fully bound and executable
// as-is.
func CollectParams(n Node) []string {
	seen := map[string]bool{}
	Walk(n, func(n Node) {
		for _, e := range nodeExprs(n) {
			expr.WalkParams(e, func(p *expr.Param) { seen[p.Name] = true })
		}
	})
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// nodeExprs lists the expressions a node owns (not its children's).
func nodeExprs(n Node) []expr.Expr {
	switch x := n.(type) {
	case *Filter:
		return []expr.Expr{x.Pred}
	case *Project:
		return x.Exprs
	case *Aggregate:
		var out []expr.Expr
		for _, a := range x.Aggs {
			if a.Arg != nil {
				out = append(out, a.Arg)
			}
		}
		return out
	default:
		return nil
	}
}

// BindParams returns the plan with every parameter replaced by a literal
// whose type is inferred from its value in vals (expr.LiteralFromString).
// Nodes containing parameters (and their ancestors) are shallow-cloned so
// the input plan — a prepared statement's shared template — is never
// mutated; untouched subtrees are shared. Clones keep their bind-time
// schemas, which may still carry Unknown where a parameter appeared:
// physical lowering recomputes schemas from the substituted expressions,
// but do not trust Schema() of a BindParams result for column types. A
// parameter missing from vals is an error.
func BindParams(n Node, vals map[string]string) (Node, error) {
	out, _, err := bindParams(n, vals)
	return out, err
}

func bindParams(n Node, vals map[string]string) (Node, bool, error) {
	// Rewrite children first; track whether anything below changed.
	children := n.Children()
	newChildren := make([]Node, len(children))
	childChanged := false
	for i, c := range children {
		nc, ch, err := bindParams(c, vals)
		if err != nil {
			return nil, false, err
		}
		newChildren[i] = nc
		childChanged = childChanged || ch
	}

	switch x := n.(type) {
	case *Filter:
		pred, ch, err := expr.ReplaceParams(x.Pred, vals)
		if err != nil {
			return nil, false, err
		}
		if !ch && !childChanged {
			return n, false, nil
		}
		return &Filter{Child: newChildren[0], Pred: pred}, true, nil
	case *Project:
		exprs := make([]expr.Expr, len(x.Exprs))
		changed := false
		for i, e := range x.Exprs {
			ne, ch, err := expr.ReplaceParams(e, vals)
			if err != nil {
				return nil, false, err
			}
			exprs[i] = ne
			changed = changed || ch
		}
		if !changed && !childChanged {
			return n, false, nil
		}
		np := *x
		np.Child = newChildren[0]
		np.Exprs = exprs
		return &np, true, nil
	case *Aggregate:
		aggs := make([]AggSpec, len(x.Aggs))
		changed := false
		for i, a := range x.Aggs {
			aggs[i] = a
			if a.Arg == nil {
				continue
			}
			ne, ch, err := expr.ReplaceParams(a.Arg, vals)
			if err != nil {
				return nil, false, err
			}
			aggs[i].Arg = ne
			changed = changed || ch
		}
		if !changed && !childChanged {
			return n, false, nil
		}
		na := *x
		na.Child = newChildren[0]
		na.Aggs = aggs
		return &na, true, nil
	case *Join:
		if !childChanged {
			return n, false, nil
		}
		nj := *x
		nj.Left, nj.Right = newChildren[0], newChildren[1]
		return &nj, true, nil
	case *Predict:
		if !childChanged {
			return n, false, nil
		}
		np := *x
		np.Child = newChildren[0]
		return &np, true, nil
	case *Sort:
		if !childChanged {
			return n, false, nil
		}
		ns := *x
		ns.Child = newChildren[0]
		return &ns, true, nil
	case *Limit:
		if !childChanged {
			return n, false, nil
		}
		nl := *x
		nl.Child = newChildren[0]
		return &nl, true, nil
	case *Distinct:
		if !childChanged {
			return n, false, nil
		}
		return &Distinct{Child: newChildren[0]}, true, nil
	case Extension:
		// No expressions of its own, but a filter bound below it must not
		// be dropped: the clone takes the new child.
		if !childChanged {
			return n, false, nil
		}
		c := x.Clone()
		c.SetChild(0, newChildren[0])
		return c, true, nil
	default:
		// Scan carries no expressions and has no children.
		return n, false, nil
	}
}
