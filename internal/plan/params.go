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
// exec.compile binds parameters at exactly these sites.
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
