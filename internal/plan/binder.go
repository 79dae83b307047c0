package plan

import (
	"fmt"
	"maps"
	"strings"

	"raven/internal/expr"
	"raven/internal/sql"
	"raven/internal/storage"
	"raven/internal/types"
)

// Binder lowers SQL ASTs onto the catalog, producing logical plans.
type Binder struct {
	Catalog *storage.Catalog
	// Vars holds the variables the statement's own script DECLAREs.
	Vars map[string]string
	// AllowParams turns undeclared @var references into Param placeholders
	// bound at execute time (prepared statements) instead of bind errors.
	// PREDICT model names still resolve at bind time — the chosen model
	// shapes the whole optimized plan — so MODEL=@var requires a DECLARE.
	AllowParams bool
	// ctes maps in-scope CTE names to their definitions.
	ctes map[string]*cteDef
}

// cteDef is one in-scope CTE: its AST and the CTEs visible where it was
// defined. Every reference binds a subtree of its own — a rule that
// pushes a filter into one reference in place must not reach another —
// and the first takes the tree bound (and checked) at the definition.
type cteDef struct {
	sel   *sql.SelectStmt
	scope map[string]*cteDef
	bound Node
}

// bindCTE returns a fresh subtree for one reference to d.
func (b *Binder) bindCTE(d *cteDef) (Node, error) {
	if n := d.bound; n != nil {
		d.bound = nil
		return n, nil
	}
	saved := b.ctes
	b.ctes = d.scope
	defer func() { b.ctes = saved }()
	return b.BindSelect(d.sel)
}

// NewBinder returns a binder over the catalog.
func NewBinder(cat *storage.Catalog) *Binder {
	return &Binder{Catalog: cat, Vars: make(map[string]string), ctes: make(map[string]*cteDef)}
}

// BindSelect lowers a SELECT statement to a logical plan.
func (b *Binder) BindSelect(st *sql.SelectStmt) (Node, error) {
	// CTEs bind in order and are visible to later CTEs and the body.
	saved := b.ctes
	b.ctes = make(map[string]*cteDef, len(saved)+len(st.CTEs))
	for k, v := range saved {
		b.ctes[k] = v
	}
	defer func() { b.ctes = saved }()
	for _, cte := range st.CTEs {
		p, err := b.BindSelect(cte.Select)
		if err != nil {
			return nil, fmt.Errorf("plan: binding CTE %q: %w", cte.Name, err)
		}
		b.ctes[strings.ToLower(cte.Name)] = &cteDef{sel: cte.Select, scope: maps.Clone(b.ctes), bound: p}
	}

	var cur Node
	var err error
	if st.From != nil {
		cur, err = b.bindTableRef(st.From)
		if err != nil {
			return nil, err
		}
	} else {
		return nil, fmt.Errorf("plan: SELECT without FROM is not supported")
	}

	if st.Where != nil {
		pred, err := b.bindExpr(st.Where, cur.Schema())
		if err != nil {
			return nil, err
		}
		cur = &Filter{Child: cur, Pred: expr.Simplify(pred)}
	}

	// Aggregation path: any aggregate function in the select list (or an
	// explicit GROUP BY) builds an Aggregate node.
	if hasAggregates(st.Items) || len(st.GroupBy) > 0 {
		cur, err = b.bindAggregate(st, cur)
		if err != nil {
			return nil, err
		}
	} else {
		cur, err = b.bindProjection(st.Items, cur)
		if err != nil {
			return nil, err
		}
	}

	if st.Distinct {
		cur = &Distinct{Child: cur}
	}
	if len(st.OrderBy) > 0 {
		keys := make([]SortKey, len(st.OrderBy))
		for i, o := range st.OrderBy {
			name := bareName(o.Col)
			if cur.Schema().IndexOf(name) < 0 {
				return nil, fmt.Errorf("plan: ORDER BY column %q not in output %v", o.Col, cur.Schema())
			}
			keys[i] = SortKey{Col: name, Desc: o.Desc}
		}
		cur = &Sort{Child: cur, Keys: keys}
	}
	if st.Limit >= 0 {
		cur = &Limit{Child: cur, N: st.Limit}
	}
	return cur, nil
}

func (b *Binder) bindProjection(items []sql.SelectItem, cur Node) (Node, error) {
	// SELECT * keeps the child as-is.
	if len(items) == 1 && items[0].Star {
		return cur, nil
	}
	var exprs []expr.Expr
	var names []string
	for i, item := range items {
		if item.Star {
			for _, c := range cur.Schema().Columns {
				exprs = append(exprs, &expr.Column{Name: c.Name})
				names = append(names, c.Name)
			}
			continue
		}
		e, err := b.bindExpr(item.Expr, cur.Schema())
		if err != nil {
			return nil, err
		}
		name := item.Alias
		if name == "" {
			if c, ok := e.(*expr.Column); ok {
				name = c.BareName()
			} else {
				name = fmt.Sprintf("col%d", i+1)
			}
		}
		exprs = append(exprs, e)
		names = append(names, name)
	}
	return NewProject(cur, exprs, names)
}

func hasAggregates(items []sql.SelectItem) bool {
	for _, it := range items {
		if _, ok := it.Expr.(*sql.FuncE); ok {
			return true
		}
	}
	return false
}

func (b *Binder) bindAggregate(st *sql.SelectStmt, cur Node) (Node, error) {
	var groupBy []string
	for _, g := range st.GroupBy {
		name := bareName(g)
		if cur.Schema().IndexOf(name) < 0 {
			return nil, fmt.Errorf("plan: GROUP BY column %q not found", g)
		}
		groupBy = append(groupBy, name)
	}
	var aggs []AggSpec
	for i, item := range st.Items {
		switch e := item.Expr.(type) {
		case *sql.FuncE:
			spec := AggSpec{Name: item.Alias}
			if spec.Name == "" {
				spec.Name = fmt.Sprintf("%s_%d", strings.ToLower(e.Name), i+1)
			}
			switch e.Name {
			case "COUNT":
				spec.Func = AggCount
			case "SUM":
				spec.Func = AggSum
			case "AVG":
				spec.Func = AggAvg
			case "MIN":
				spec.Func = AggMin
			case "MAX":
				spec.Func = AggMax
			default:
				return nil, fmt.Errorf("plan: unknown aggregate %q", e.Name)
			}
			if !e.Star {
				arg, err := b.bindExpr(e.Args[0], cur.Schema())
				if err != nil {
					return nil, err
				}
				spec.Arg = arg
			} else if e.Name != "COUNT" {
				return nil, fmt.Errorf("plan: %s(*) is not valid", e.Name)
			}
			aggs = append(aggs, spec)
		case *sql.ColRef:
			name := e.Name
			found := false
			for _, g := range groupBy {
				if strings.EqualFold(g, name) {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("plan: column %q must appear in GROUP BY", name)
			}
		default:
			return nil, fmt.Errorf("plan: non-aggregate expression in aggregate query")
		}
	}
	return NewAggregate(cur, groupBy, aggs)
}

// bindTableRef lowers FROM items.
func (b *Binder) bindTableRef(ref sql.TableRef) (Node, error) {
	switch r := ref.(type) {
	case *sql.TableName:
		if cte, ok := b.ctes[strings.ToLower(r.Name)]; ok {
			return b.bindCTE(cte)
		}
		t, err := b.Catalog.Table(r.Name)
		if err != nil {
			return nil, err
		}
		return NewScan(t), nil
	case *sql.SubqueryRef:
		return b.BindSelect(r.Select)
	case *sql.JoinRef:
		left, err := b.bindTableRef(r.Left)
		if err != nil {
			return nil, err
		}
		right, err := b.bindTableRef(r.Right)
		if err != nil {
			return nil, err
		}
		lc, rc, err := joinKeys(r.On, left.Schema(), right.Schema())
		if err != nil {
			return nil, err
		}
		return NewJoin(left, right, lc, rc)
	case *sql.PredictRef:
		child, err := b.bindTableRef(r.Data)
		if err != nil {
			return nil, err
		}
		model := r.ModelName
		if model == "" {
			v, ok := b.Vars[r.ModelVar]
			if !ok {
				if b.AllowParams {
					return nil, fmt.Errorf("plan: PREDICT model variable @%s must be DECLAREd at prepare time (the model determines the plan)", r.ModelVar)
				}
				return nil, fmt.Errorf("plan: variable @%s not declared", r.ModelVar)
			}
			model = v
		}
		return NewPredict(child, model, r.OutputCols), nil
	default:
		return nil, fmt.Errorf("plan: unsupported table reference %T", ref)
	}
}

// joinKeys extracts the equi-join columns from an ON expression of the form
// a.x = b.y, assigning sides by schema membership.
func joinKeys(on sql.Expr, left, right *types.Schema) (string, string, error) {
	be, ok := on.(*sql.BinaryE)
	if !ok || be.Op != "=" {
		return "", "", fmt.Errorf("plan: JOIN ON must be an equality, got %T", on)
	}
	lr, ok1 := be.L.(*sql.ColRef)
	rr, ok2 := be.R.(*sql.ColRef)
	if !ok1 || !ok2 {
		return "", "", fmt.Errorf("plan: JOIN ON must compare two columns")
	}
	if left.IndexOf(lr.Name) >= 0 && right.IndexOf(rr.Name) >= 0 {
		return lr.Name, rr.Name, nil
	}
	if left.IndexOf(rr.Name) >= 0 && right.IndexOf(lr.Name) >= 0 {
		return rr.Name, lr.Name, nil
	}
	return "", "", fmt.Errorf("plan: JOIN ON columns %q/%q not found on both sides", lr.Name, rr.Name)
}

// bindExpr lowers a parser expression against a schema.
func (b *Binder) bindExpr(e sql.Expr, s *types.Schema) (expr.Expr, error) {
	switch x := e.(type) {
	case *sql.ColRef:
		if s.IndexOf(x.Name) < 0 {
			return nil, fmt.Errorf("plan: column %q not found in %v", qual(x), s)
		}
		return &expr.Column{Name: x.Name}, nil
	case *sql.NumLit:
		if x.IsInt {
			return expr.IntLit(x.I), nil
		}
		return expr.FloatLit(x.F), nil
	case *sql.StrLit:
		return expr.StringLit(x.S), nil
	case *sql.BoolLitE:
		return expr.BoolLit(x.B), nil
	case *sql.VarRef:
		v, ok := b.Vars[x.Name]
		if !ok {
			if b.AllowParams {
				return &expr.Param{Name: x.Name}, nil
			}
			return nil, fmt.Errorf("plan: variable @%s not declared (DECLARE it, or use a prepared statement for execute-time parameters)", x.Name)
		}
		// DECLARE accepts only quoted strings, so declared variables bind as
		// VARCHAR literals — '007' stays a string. Execute-time parameters
		// (the AllowParams path above) are the type-inferred surface.
		return expr.StringLit(v), nil
	case *sql.NotE:
		inner, err := b.bindExpr(x.E, s)
		if err != nil {
			return nil, err
		}
		return &expr.Not{E: inner}, nil
	case *sql.BinaryE:
		l, err := b.bindExpr(x.L, s)
		if err != nil {
			return nil, err
		}
		r, err := b.bindExpr(x.R, s)
		if err != nil {
			return nil, err
		}
		op, ok := binOps[x.Op]
		if !ok {
			return nil, fmt.Errorf("plan: unknown operator %q", x.Op)
		}
		be := expr.NewBinary(op, l, r)
		if _, err := be.Type(s); err != nil {
			return nil, err
		}
		return be, nil
	case *sql.CaseE:
		out := &expr.Case{}
		for _, w := range x.Whens {
			c, err := b.bindExpr(w.Cond, s)
			if err != nil {
				return nil, err
			}
			th, err := b.bindExpr(w.Then, s)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, expr.When{Cond: c, Then: th})
		}
		if x.Else == nil {
			return nil, fmt.Errorf("plan: CASE requires ELSE")
		}
		el, err := b.bindExpr(x.Else, s)
		if err != nil {
			return nil, err
		}
		out.Else = el
		if _, err := out.Type(s); err != nil {
			return nil, err
		}
		return out, nil
	case *sql.FuncE:
		return nil, fmt.Errorf("plan: aggregate %q outside aggregate context", x.Name)
	default:
		return nil, fmt.Errorf("plan: unsupported expression %T", e)
	}
}

var binOps = map[string]expr.BinOp{
	"+": expr.OpAdd, "-": expr.OpSub, "*": expr.OpMul, "/": expr.OpDiv,
	"=": expr.OpEq, "<>": expr.OpNe, "<": expr.OpLt, "<=": expr.OpLe,
	">": expr.OpGt, ">=": expr.OpGe, "AND": expr.OpAnd, "OR": expr.OpOr,
}

func bareName(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}

func qual(c *sql.ColRef) string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}
