// Package plan defines the logical plan tree and the binder that lowers
// parsed SQL onto the catalog. Its own nodes are the relational operators
// of the paper's unified IR; the ML operators are defined in package ir,
// implement Node and Extension, and sit in the same tree (ir.FromPlan puts
// them where the binder left a Predict), so one optimizer rewrites data
// and ML operators together.
package plan

import (
	"fmt"
	"strings"

	"raven/internal/expr"
	"raven/internal/storage"
	"raven/internal/types"
)

// Node is one logical operator.
type Node interface {
	// Schema is the output schema.
	Schema() *types.Schema
	// Children returns input plans (nil for leaves).
	Children() []Node
	// SetChild replaces the i-th child (used by rewrite rules).
	SetChild(i int, n Node)
	fmt.Stringer
}

// Extension is the contract an operator defined outside this package
// declares so the relational rules can work around it without knowing
// what it computes. It has one child.
type Extension interface {
	Node
	// Reads names the input columns the operator consumes.
	Reads() []string
	// Adds names the columns it appends to its input's.
	Adds() []string
	// RowWise reports that the operator passes every input column
	// through unchanged, row by row and deterministically: a row's output
	// depends on that row alone, so a filter on input columns means the
	// same above and below it, and an input column nothing reads can be
	// dropped. Otherwise the operator is opaque — it may read, rewrite or
	// drop anything, and nothing moves across it.
	RowWise() bool
	// Clone returns a shallow copy (BindParams never mutates a template).
	Clone() Node
}

// Walk calls fn on n and every node below it, parents first.
func Walk(n Node, fn func(Node)) {
	fn(n)
	for _, c := range n.Children() {
		Walk(c, fn)
	}
}

// Scan reads a stored table, optionally projecting a subset of columns.
type Scan struct {
	Table *storage.Table
	// Cols restricts the scan to these columns; nil scans everything.
	// Column pruning (projection pushdown) narrows this.
	Cols   []string
	schema *types.Schema
}

// NewScan builds a full-width scan.
func NewScan(t *storage.Table) *Scan {
	return &Scan{Table: t, schema: t.Schema()}
}

// SetCols narrows the scan to the named columns.
func (s *Scan) SetCols(cols []string) error {
	idx := make([]int, len(cols))
	for i, c := range cols {
		j := s.Table.Schema().IndexOf(c)
		if j < 0 {
			return fmt.Errorf("plan: table %s has no column %q", s.Table.Name, c)
		}
		idx[i] = j
	}
	s.Cols = cols
	s.schema = s.Table.Schema().Project(idx)
	return nil
}

// Schema implements Node.
func (s *Scan) Schema() *types.Schema { return s.schema }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// SetChild implements Node.
func (s *Scan) SetChild(int, Node) { panic("plan: Scan has no children") }

func (s *Scan) String() string {
	if s.Cols != nil {
		return fmt.Sprintf("Scan(%s, cols=[%s])", s.Table.Name, strings.Join(s.Cols, ","))
	}
	return fmt.Sprintf("Scan(%s)", s.Table.Name)
}

// Filter keeps rows satisfying Pred.
type Filter struct {
	Child Node
	Pred  expr.Expr
}

// Schema implements Node.
func (f *Filter) Schema() *types.Schema { return f.Child.Schema() }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Child} }

// SetChild implements Node.
func (f *Filter) SetChild(i int, n Node) { f.Child = n }

func (f *Filter) String() string { return fmt.Sprintf("Filter(%s)", f.Pred) }

// Project computes named expressions.
type Project struct {
	Child  Node
	Exprs  []expr.Expr
	Names  []string
	schema *types.Schema
}

// NewProject builds a projection, resolving output types against the child.
func NewProject(child Node, exprs []expr.Expr, names []string) (*Project, error) {
	cols := make([]types.Column, len(exprs))
	for i, e := range exprs {
		t, err := e.Type(child.Schema())
		if err != nil {
			return nil, err
		}
		cols[i] = types.Column{Name: names[i], Type: t}
	}
	return &Project{Child: child, Exprs: exprs, Names: names, schema: types.NewSchema(cols...)}, nil
}

// Schema implements Node.
func (p *Project) Schema() *types.Schema { return p.schema }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Child} }

// SetChild implements Node.
func (p *Project) SetChild(i int, n Node) { p.Child = n }

func (p *Project) String() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = fmt.Sprintf("%s AS %s", e, p.Names[i])
	}
	return fmt.Sprintf("Project(%s)", strings.Join(parts, ", "))
}

// Join is an inner hash equi-join on LeftCol = RightCol. The output schema
// is left ++ right-minus-join-key (the duplicate key column is dropped).
type Join struct {
	Left, Right       Node
	LeftCol, RightCol string
	schema            *types.Schema
}

// NewJoin builds an equi-join, validating key columns.
func NewJoin(left, right Node, leftCol, rightCol string) (*Join, error) {
	if left.Schema().IndexOf(leftCol) < 0 {
		return nil, fmt.Errorf("plan: join key %q not in left schema %v", leftCol, left.Schema())
	}
	ri := right.Schema().IndexOf(rightCol)
	if ri < 0 {
		return nil, fmt.Errorf("plan: join key %q not in right schema %v", rightCol, right.Schema())
	}
	var cols []types.Column
	cols = append(cols, left.Schema().Columns...)
	for i, c := range right.Schema().Columns {
		if i == ri {
			continue
		}
		cols = append(cols, c)
	}
	return &Join{Left: left, Right: right, LeftCol: leftCol, RightCol: rightCol, schema: types.NewSchema(cols...)}, nil
}

// Schema implements Node.
func (j *Join) Schema() *types.Schema { return j.schema }

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// SetChild implements Node.
func (j *Join) SetChild(i int, n Node) {
	if i == 0 {
		j.Left = n
	} else {
		j.Right = n
	}
}

// Rebuild recomputes the output schema after children changed (e.g. column
// pruning below the join).
func (j *Join) Rebuild() error {
	nj, err := NewJoin(j.Left, j.Right, j.LeftCol, j.RightCol)
	if err != nil {
		return err
	}
	j.schema = nj.schema
	return nil
}

func (j *Join) String() string { return fmt.Sprintf("Join(%s = %s)", j.LeftCol, j.RightCol) }

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

var aggNames = map[AggFunc]string{AggCount: "COUNT", AggSum: "SUM", AggAvg: "AVG", AggMin: "MIN", AggMax: "MAX"}

// Mergeable reports whether partial results of f computed over disjoint
// row subsets combine losslessly into the full result — the property
// two-phase (per-worker partial + merge) parallel aggregation needs.
// COUNT and MIN/MAX merge trivially; SUM and AVG merge because the
// physical layer accumulates them exactly (order-invariant correctly
// rounded summation), so partials carry no rounding that depends on the
// split. A future non-decomposable aggregate (e.g. MEDIAN) would return
// false, and exec.Compile rejects it with an explicit error: two-phase
// aggregation is the only execution path, so such a function needs its
// own operator before it can run.
func (f AggFunc) Mergeable() bool {
	switch f {
	case AggCount, AggSum, AggAvg, AggMin, AggMax:
		return true
	default:
		return false
	}
}

// AggSpec is one aggregate output.
type AggSpec struct {
	Func AggFunc
	// Arg is nil for COUNT(*).
	Arg  expr.Expr
	Name string
}

// Aggregate groups by columns and computes aggregates.
type Aggregate struct {
	Child   Node
	GroupBy []string
	Aggs    []AggSpec
	schema  *types.Schema
}

// NewAggregate builds a grouped aggregation.
func NewAggregate(child Node, groupBy []string, aggs []AggSpec) (*Aggregate, error) {
	var cols []types.Column
	cs := child.Schema()
	for _, g := range groupBy {
		i := cs.IndexOf(g)
		if i < 0 {
			return nil, fmt.Errorf("plan: GROUP BY column %q not in %v", g, cs)
		}
		cols = append(cols, cs.Columns[i])
	}
	for _, a := range aggs {
		t := types.Float
		if a.Func == AggCount {
			t = types.Int
		} else if a.Arg != nil {
			at, err := a.Arg.Type(cs)
			if err != nil {
				return nil, err
			}
			if a.Func == AggMin || a.Func == AggMax {
				t = at
			}
		}
		cols = append(cols, types.Column{Name: a.Name, Type: t})
	}
	return &Aggregate{Child: child, GroupBy: groupBy, Aggs: aggs, schema: types.NewSchema(cols...)}, nil
}

// Parallelizable reports whether every aggregate of this node is
// mergeable, i.e. whether the physical layer may run it as per-worker
// partial tables plus a merge stage — the only way it runs one.
func (a *Aggregate) Parallelizable() bool {
	for _, s := range a.Aggs {
		if !s.Func.Mergeable() {
			return false
		}
	}
	return true
}

// Schema implements Node.
func (a *Aggregate) Schema() *types.Schema { return a.schema }

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Child} }

// SetChild implements Node.
func (a *Aggregate) SetChild(i int, n Node) { a.Child = n }

func (a *Aggregate) String() string {
	parts := make([]string, len(a.Aggs))
	for i, s := range a.Aggs {
		arg := "*"
		if s.Arg != nil {
			arg = s.Arg.String()
		}
		parts[i] = fmt.Sprintf("%s(%s)", aggNames[s.Func], arg)
	}
	return fmt.Sprintf("Aggregate(by=[%s], %s)", strings.Join(a.GroupBy, ","), strings.Join(parts, ", "))
}

// Sort orders rows by the given keys.
type Sort struct {
	Child Node
	Keys  []SortKey
}

// SortKey is one ordering column.
type SortKey struct {
	Col  string
	Desc bool
}

// Schema implements Node.
func (s *Sort) Schema() *types.Schema { return s.Child.Schema() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Child} }

// SetChild implements Node.
func (s *Sort) SetChild(i int, n Node) { s.Child = n }

func (s *Sort) String() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		parts[i] = k.Col
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return fmt.Sprintf("Sort(%s)", strings.Join(parts, ", "))
}

// Limit keeps the first N rows.
type Limit struct {
	Child Node
	N     int
}

// Schema implements Node.
func (l *Limit) Schema() *types.Schema { return l.Child.Schema() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Child} }

// SetChild implements Node.
func (l *Limit) SetChild(i int, n Node) { l.Child = n }

func (l *Limit) String() string { return fmt.Sprintf("Limit(%d)", l.N) }

// TopK returns the Sort directly beneath the limit, or nil: the pair the
// executor runs as one bounded sort, each run keeping only its first N
// rows.
func (l *Limit) TopK() *Sort {
	s, _ := l.Child.(*Sort)
	if l.N < 1 {
		return nil
	}
	return s
}

// Distinct removes duplicate rows.
type Distinct struct {
	Child Node
}

// Schema implements Node.
func (d *Distinct) Schema() *types.Schema { return d.Child.Schema() }

// Children implements Node.
func (d *Distinct) Children() []Node { return []Node{d.Child} }

// SetChild implements Node.
func (d *Distinct) SetChild(i int, n Node) { d.Child = n }

func (d *Distinct) String() string { return "Distinct" }

// Predict invokes a stored model over its input rows, appending the
// declared output columns — the logical form of SQL Server's PREDICT table
// function (paper §5).
type Predict struct {
	Child Node
	// ModelName keys the model store.
	ModelName string
	// OutputCols are the declared prediction columns.
	OutputCols []types.Column
	schema     *types.Schema
}

// NewPredict builds a prediction node.
func NewPredict(child Node, modelName string, outputCols []types.Column) *Predict {
	return &Predict{
		Child:      child,
		ModelName:  modelName,
		OutputCols: outputCols,
		schema:     child.Schema().Concat(types.NewSchema(outputCols...)),
	}
}

// Schema implements Node.
func (p *Predict) Schema() *types.Schema { return p.schema }

// Children implements Node.
func (p *Predict) Children() []Node { return []Node{p.Child} }

// SetChild implements Node.
func (p *Predict) SetChild(i int, n Node) {
	p.Child = n
	p.schema = n.Schema().Concat(types.NewSchema(p.OutputCols...))
}

func (p *Predict) String() string { return fmt.Sprintf("Predict(model=%s)", p.ModelName) }

// Explain renders the plan tree indented, one node per line. A sort
// bounded by the limit above it (Limit.TopK) says so: "Sort(k DESC; top 5)".
func Explain(n Node) string {
	return Render(n, "", func(n Node) []string { return []string{n.String()} })
}

// Render is Explain with every line starting with prefix and the text of
// each node supplied by the caller. An operator made of parts (a model's
// featurizer steps) gives a line for itself and one per part: the parts
// print a level below it, before its children.
func Render(n Node, prefix string, text func(Node) []string) string {
	var sb strings.Builder
	var walk func(n Node, depth int, bound *Limit)
	walk = func(n Node, depth int, bound *Limit) {
		lines := text(n)
		if bound != nil {
			lines[0] = fmt.Sprintf("%s; top %d)", strings.TrimSuffix(lines[0], ")"), bound.N)
		}
		for i, line := range lines {
			sb.WriteString(prefix)
			sb.WriteString(strings.Repeat("  ", depth+min(i, 1)))
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
		var below *Limit
		if l, ok := n.(*Limit); ok && l.TopK() != nil {
			below = l
		}
		for _, c := range n.Children() {
			walk(c, depth+1, below)
		}
	}
	walk(n, 0, nil)
	return sb.String()
}
