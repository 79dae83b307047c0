// Package relopt implements the standard relational optimizations the
// paper leans on (§2 "standard DB optimizations"): predicate pushdown
// through joins, projection pushdown / column pruning into scans, join
// elimination on unique keys, filter merging and constant folding. It
// runs over the whole plan tree, ML operators included: an operator it
// does not know declares plan.Extension — columns read, columns added,
// row-wise or opaque — and filter pushdown and column pruning work around
// it from that alone. The cross optimizer (package xopt) invokes it twice
// on the root: PushFilters before the model rules, so they see the
// selections as facts about their input, and Optimize after them (dropped
// features enable join elimination).
package relopt

import (
	"fmt"
	"slices"
	"strings"

	"raven/internal/expr"
	"raven/internal/plan"
	"raven/internal/storage"
	"raven/internal/types"
)

// Optimizer rewrites logical plans.
type Optimizer struct {
	Catalog *storage.Catalog
	// AssumeRI allows join elimination on declared unique keys assuming
	// referential integrity (every probe row matches exactly one build
	// row). The synthetic generators guarantee this.
	AssumeRI bool
}

// maxPasses bounds every run-to-fixpoint loop.
const maxPasses = 8

// PushFilters runs filter pushdown alone to fixpoint (bounded), letting
// conjuncts cross row-wise extension operators too — the cross
// optimizer's selection pushdown. It reports whether any conjunct crossed
// one, and whether any moved within the relational operators.
func (o *Optimizer) PushFilters(root plan.Node) (out plan.Node, crossed, moved bool, err error) {
	for i := 0; i < maxPasses; i++ {
		p, changed := pass{cross: true}, false
		if root, changed, err = p.push(root); err != nil {
			return nil, false, false, err
		}
		crossed, moved = crossed || p.crossed, moved || changed
		if !changed && !p.crossed {
			break
		}
	}
	return root, crossed, moved, nil
}

// Optimize runs all rules to fixpoint (bounded), returning a new root and
// whether any rule changed the plan. The root's full output schema is
// treated as required. Filters stay on their side of extension operators:
// with the cross optimizer off this is the plan that scores every row the
// written query scores.
func (o *Optimizer) Optimize(root plan.Node) (out plan.Node, changed bool, err error) {
	required := root.Schema().Names()
	for i := 0; i < maxPasses; i++ {
		var p pass
		var c1, c2, c3 bool
		if root, c1, err = p.push(root); err != nil {
			return nil, false, err
		}
		if root, c2, err = o.mergeAndSimplifyFilters(root); err != nil {
			return nil, false, err
		}
		if root, err = p.prune(root, required); err != nil {
			return nil, false, err
		}
		if root, c3, err = o.eliminateJoins(root); err != nil {
			return nil, false, err
		}
		changed = changed || c1 || c2 || c3 || p.pruned
		if !c1 && !c2 && !c3 {
			break
		}
	}
	return root, changed, nil
}

// schemaCols returns lower-cased column names of a node's schema.
func schemaCols(n plan.Node) map[string]bool {
	out := make(map[string]bool)
	for _, c := range n.Schema().Columns {
		out[strings.ToLower(c.Name)] = true
	}
	return out
}

func subset(cols []string, set map[string]bool) bool {
	for _, c := range cols {
		if !set[strings.ToLower(c)] {
			return false
		}
	}
	return true
}

// hasName reports whether col is one of names, whatever the case.
func hasName(names []string, col string) bool {
	return slices.ContainsFunc(names, func(n string) bool { return strings.EqualFold(n, col) })
}

// pass is the bookkeeping of one traversal of the rules.
type pass struct {
	cross   bool // conjuncts may move below row-wise extension operators
	crossed bool // one did
	pruned  bool // a scan or a projection lost a column
}

// push moves filter conjuncts one operator closer to the scans where
// legality allows: through joins, side-wise, and across an equi-join's
// keys; below a row-wise extension operator when they read none of the
// columns it adds. It reports relational moves; a crossing sets crossed.
func (p *pass) push(n plan.Node) (plan.Node, bool, error) {
	changed := false
	// recurse first
	for i, c := range n.Children() {
		nc, ch, err := p.push(c)
		if err != nil {
			return nil, false, err
		}
		if ch {
			changed = true
		}
		n.SetChild(i, nc)
	}
	f, ok := n.(*plan.Filter)
	if !ok {
		return n, changed, nil
	}
	conjuncts := expr.Conjuncts(f.Pred)
	var kept []expr.Expr

	switch child := f.Child.(type) {
	case *plan.Join:
		leftCols := schemaCols(child.Left)
		rightCols := schemaCols(child.Right)
		var leftPush, rightPush []expr.Expr
		for _, c := range conjuncts {
			cols := expr.Columns(c)
			switch {
			case subset(cols, leftCols):
				leftPush = append(leftPush, c)
				// Transitive propagation across the equi-join: a predicate
				// on the left join key holds for the right key too, so the
				// build side can filter before hashing.
				if len(cols) == 1 && strings.EqualFold(cols[0], child.LeftCol) {
					if r, ok := renameColumn(c, child.LeftCol, child.RightCol); ok {
						rightPush = append(rightPush, r)
					}
				}
			case subset(cols, rightCols):
				rightPush = append(rightPush, c)
				if len(cols) == 1 && strings.EqualFold(cols[0], child.RightCol) {
					if r, ok := renameColumn(c, child.RightCol, child.LeftCol); ok {
						leftPush = append(leftPush, r)
					}
				}
			default:
				kept = append(kept, c)
			}
		}
		if len(leftPush) > 0 {
			child.Left = &plan.Filter{Child: child.Left, Pred: expr.And(leftPush)}
			changed = true
		}
		if len(rightPush) > 0 {
			child.Right = &plan.Filter{Child: child.Right, Pred: expr.And(rightPush)}
			changed = true
		}
		if len(kept) == 0 {
			return child, true, nil
		}
		if len(kept) < len(conjuncts) {
			return &plan.Filter{Child: child, Pred: expr.And(kept)}, true, nil
		}
		return f, changed, nil

	case *plan.Filter:
		// merge immediately-adjacent filters so later passes see one
		merged := &plan.Filter{Child: child.Child, Pred: expr.NewBinary(expr.OpAnd, child.Pred, f.Pred)}
		return merged, true, nil

	case plan.Extension:
		// Scoring is row-wise and deterministic, so exactly the rows the
		// filter above would keep are scored and returned; the rest are
		// never joined or scored. Nothing crosses an opaque operator.
		if !p.cross || !child.RowWise() {
			return f, changed, nil
		}
		var move []expr.Expr
		for _, c := range conjuncts {
			if slices.ContainsFunc(expr.Columns(c), func(col string) bool { return hasName(child.Adds(), col) }) {
				kept = append(kept, c)
			} else {
				move = append(move, c)
			}
		}
		if len(move) == 0 {
			return f, changed, nil
		}
		child.SetChild(0, &plan.Filter{Child: child.Children()[0], Pred: expr.And(move)})
		p.crossed = true
		if len(kept) == 0 {
			return child, changed, nil
		}
		return &plan.Filter{Child: child, Pred: expr.And(kept)}, changed, nil

	default:
		return f, changed, nil
	}
}

// renameColumn returns e with every reference to column `from` replaced by
// `to` (used for transitive join-key predicate propagation). It reports
// false when e holds a node type it does not know how to rewrite: a
// reference it could not see must not reach the other side under the
// wrong name, so the caller keeps such a conjunct on its own side only.
func renameColumn(e expr.Expr, from, to string) (expr.Expr, bool) {
	ok := true
	sub := func(e expr.Expr) expr.Expr {
		r, rok := renameColumn(e, from, to)
		ok = ok && rok
		return r
	}
	switch x := e.(type) {
	case *expr.Column:
		if strings.EqualFold(x.BareName(), from) {
			return &expr.Column{Name: to}, true
		}
		return x, true
	case *expr.Literal, *expr.Param:
		return e, true
	case *expr.Binary:
		return expr.NewBinary(x.Op, sub(x.L), sub(x.R)), ok
	case *expr.Not:
		return &expr.Not{E: sub(x.E)}, ok
	case *expr.Case:
		out := &expr.Case{Whens: make([]expr.When, len(x.Whens))}
		for i, w := range x.Whens {
			out.Whens[i] = expr.When{Cond: sub(w.Cond), Then: sub(w.Then)}
		}
		if x.Else != nil {
			out.Else = sub(x.Else)
		}
		return out, ok
	default:
		return nil, false
	}
}

// mergeAndSimplifyFilters folds constants in predicates and drops
// always-true filters.
func (o *Optimizer) mergeAndSimplifyFilters(n plan.Node) (plan.Node, bool, error) {
	changed := false
	for i, c := range n.Children() {
		nc, ch, err := o.mergeAndSimplifyFilters(c)
		if err != nil {
			return nil, false, err
		}
		if ch {
			changed = true
		}
		n.SetChild(i, nc)
	}
	if f, ok := n.(*plan.Filter); ok {
		s := expr.Simplify(f.Pred)
		if l, ok := s.(*expr.Literal); ok && l.DT == types.Bool && l.B {
			return f.Child, true, nil
		}
		if s.String() != f.Pred.String() {
			f.Pred = s
			changed = true
		}
	}
	return n, changed, nil
}

func (p *pass) prune(n plan.Node, required []string) (plan.Node, error) {
	uniq := func(cols []string) []string {
		seen := make(map[string]bool)
		var out []string
		for _, c := range cols {
			lc := strings.ToLower(c)
			if !seen[lc] {
				seen[lc] = true
				out = append(out, lc)
			}
		}
		return out
	}
	required = uniq(required)

	switch x := n.(type) {
	case *plan.Scan:
		// order columns as in the table schema for determinism
		var cols []string
		for _, c := range x.Table.Schema().Columns {
			for _, r := range required {
				if strings.EqualFold(c.Name, r) {
					cols = append(cols, c.Name)
					break
				}
			}
		}
		if len(cols) == 0 && x.Table.Schema().Len() > 0 {
			cols = []string{x.Table.Schema().Columns[0].Name}
		}
		if len(cols) == x.Table.Schema().Len() || slices.Equal(cols, x.Cols) {
			return x, nil // full width, or narrowed to this already
		}
		p.pruned = true
		return x, x.SetCols(cols)

	case *plan.Filter:
		need := append(required, expr.Columns(x.Pred)...)
		child, err := p.prune(x.Child, need)
		if err != nil {
			return nil, err
		}
		x.Child = child
		return x, nil

	case *plan.Project:
		// An output nothing above reads goes (one stays, for the row
		// count); what is left decides what the child must produce.
		var exprs []expr.Expr
		var names, need []string
		for i, e := range x.Exprs {
			if hasName(required, x.Names[i]) {
				exprs, names = append(exprs, e), append(names, x.Names[i])
			}
		}
		if len(exprs) == 0 {
			exprs, names = x.Exprs[:1], x.Names[:1]
		}
		for _, e := range exprs {
			need = append(need, expr.Columns(e)...)
		}
		child, err := p.prune(x.Child, need)
		if err != nil {
			return nil, err
		}
		if len(exprs) < len(x.Exprs) {
			p.pruned = true
			return plan.NewProject(child, exprs, names)
		}
		x.Child = child
		return x, nil

	case *plan.Join:
		leftCols := schemaCols(x.Left)
		rightCols := schemaCols(x.Right)
		var leftNeed, rightNeed []string
		for _, r := range required {
			if leftCols[r] {
				leftNeed = append(leftNeed, r)
			} else if rightCols[r] {
				rightNeed = append(rightNeed, r)
			}
		}
		leftNeed = append(leftNeed, x.LeftCol)
		rightNeed = append(rightNeed, x.RightCol)
		left, err := p.prune(x.Left, leftNeed)
		if err != nil {
			return nil, err
		}
		right, err := p.prune(x.Right, rightNeed)
		if err != nil {
			return nil, err
		}
		x.Left, x.Right = left, right
		if err := x.Rebuild(); err != nil {
			return nil, err
		}
		return x, nil

	case *plan.Aggregate:
		need := append([]string(nil), x.GroupBy...)
		for _, a := range x.Aggs {
			if a.Arg != nil {
				need = append(need, expr.Columns(a.Arg)...)
			}
		}
		child, err := p.prune(x.Child, need)
		if err != nil {
			return nil, err
		}
		x.Child = child
		return x, nil

	case *plan.Sort:
		need := append([]string(nil), required...)
		for _, k := range x.Keys {
			need = append(need, k.Col)
		}
		child, err := p.prune(x.Child, need)
		if err != nil {
			return nil, err
		}
		x.Child = child
		return x, nil

	case *plan.Limit:
		child, err := p.prune(x.Child, required)
		if err != nil {
			return nil, err
		}
		x.Child = child
		return x, nil

	case *plan.Distinct:
		// distinct needs every column of its output
		var need []string
		for _, c := range x.Child.Schema().Columns {
			need = append(need, c.Name)
		}
		child, err := p.prune(x.Child, need)
		if err != nil {
			return nil, err
		}
		x.Child = child
		return x, nil

	case plan.Extension:
		// Required below = required above − added + read; an opaque
		// operator may read anything.
		kid := x.Children()[0]
		need := kid.Schema().Names()
		if x.RowWise() {
			need = append([]string(nil), x.Reads()...)
			for _, r := range required {
				if !hasName(x.Adds(), r) {
					need = append(need, r)
				}
			}
		}
		child, err := p.prune(kid, need)
		if err != nil {
			return nil, err
		}
		x.SetChild(0, child)
		return x, nil

	default:
		return nil, fmt.Errorf("relopt: cannot prune %T", n)
	}
}

// eliminateJoins removes joins whose build side contributes no columns —
// the join exists only to locate a matching row, which is guaranteed to
// exist (unique key + referential integrity). This is the paper's §2
// example: after model-projection pushdown, the prenatal_tests join feeds
// no features and is dropped.
func (o *Optimizer) eliminateJoins(n plan.Node) (plan.Node, bool, error) {
	changed := false
	for i, c := range n.Children() {
		nc, ch, err := o.eliminateJoins(c)
		if err != nil {
			return nil, false, err
		}
		if ch {
			changed = true
		}
		n.SetChild(i, nc)
	}
	j, ok := n.(*plan.Join)
	if !ok || !o.AssumeRI {
		return n, changed, nil
	}
	// Right side must be a bare scan whose only surviving column is the
	// join key, declared unique.
	rs, ok := j.Right.(*plan.Scan)
	if !ok {
		return n, changed, nil
	}
	if rs.Schema().Len() != 1 || !strings.EqualFold(rs.Schema().Columns[0].Name, j.RightCol) {
		return n, changed, nil
	}
	if o.Catalog == nil || !o.Catalog.IsUniqueKey(rs.Table.Name, j.RightCol) {
		return n, changed, nil
	}
	return j.Left, true, nil
}
