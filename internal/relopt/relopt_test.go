package relopt

import (
	"strings"
	"testing"

	"raven/internal/expr"
	"raven/internal/plan"
	"raven/internal/sql"
	"raven/internal/storage"
	"raven/internal/types"
)

func hospitalCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	pi := storage.NewTable("patient_info", types.NewSchema(
		types.Column{Name: "id", Type: types.Int},
		types.Column{Name: "age", Type: types.Float},
		types.Column{Name: "pregnant", Type: types.Int},
		types.Column{Name: "gender", Type: types.Int},
	))
	bt := storage.NewTable("blood_tests", types.NewSchema(
		types.Column{Name: "id", Type: types.Int},
		types.Column{Name: "bp", Type: types.Float},
	))
	pt := storage.NewTable("prenatal_tests", types.NewSchema(
		types.Column{Name: "id", Type: types.Int},
		types.Column{Name: "fetal_hr", Type: types.Float},
	))
	for i := 0; i < 20; i++ {
		_ = pi.AppendRow(int64(i), float64(20+i), int64(i%2), int64(i%2))
		_ = bt.AppendRow(int64(i), float64(100+i))
		_ = pt.AppendRow(int64(i), float64(120+i))
	}
	for _, tb := range []*storage.Table{pi, bt, pt} {
		if err := cat.AddTable(tb); err != nil {
			t.Fatal(err)
		}
		cat.SetUniqueKey(tb.Name, "id")
	}
	return cat
}

func bindQ(t *testing.T, cat *storage.Catalog, q string) plan.Node {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	b := plan.NewBinder(cat)
	p, err := b.BindSelect(st.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPredicatePushdownThroughJoin(t *testing.T) {
	cat := hospitalCatalog(t)
	p := bindQ(t, cat, `SELECT pi.age FROM patient_info AS pi
		JOIN blood_tests AS bt ON pi.id = bt.id
		WHERE pi.pregnant = 1 AND bt.bp > 120`)
	o := &Optimizer{Catalog: cat, AssumeRI: true}
	opt, _, err := o.Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	s := plan.Explain(opt)
	// No filter should remain above the join; both conjuncts land on scans.
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if strings.Contains(lines[0], "Filter") || strings.Contains(lines[1], "Filter") && strings.Contains(lines[1], "AND") {
		t.Errorf("filter not pushed:\n%s", s)
	}
	if !strings.Contains(s, "Filter((pregnant = 1))") && !strings.Contains(s, "Filter((pi.pregnant = 1))") {
		t.Errorf("pregnant filter missing below join:\n%s", s)
	}
}

func TestColumnPruningIntoScan(t *testing.T) {
	cat := hospitalCatalog(t)
	p := bindQ(t, cat, "SELECT age FROM patient_info WHERE pregnant = 1")
	o := &Optimizer{Catalog: cat, AssumeRI: true}
	opt, _, err := o.Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	s := plan.Explain(opt)
	if !strings.Contains(s, "cols=[age,pregnant]") {
		t.Errorf("scan not pruned:\n%s", s)
	}
}

func TestJoinEliminationOnUnusedSide(t *testing.T) {
	cat := hospitalCatalog(t)
	// prenatal_tests contributes no output columns: with unique key + RI
	// the join is dropped (paper §2).
	p := bindQ(t, cat, `SELECT pi.age, bt.bp FROM patient_info AS pi
		JOIN blood_tests AS bt ON pi.id = bt.id
		JOIN prenatal_tests AS pt ON bt.id = pt.id`)
	o := &Optimizer{Catalog: cat, AssumeRI: true}
	opt, _, err := o.Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	s := plan.Explain(opt)
	if strings.Contains(s, "prenatal_tests") {
		t.Errorf("join not eliminated:\n%s", s)
	}
	if !strings.Contains(s, "blood_tests") {
		t.Errorf("needed join over-eliminated:\n%s", s)
	}

	// Without RI assumption the join must stay.
	p2 := bindQ(t, cat, `SELECT pi.age FROM patient_info AS pi
		JOIN prenatal_tests AS pt ON pi.id = pt.id`)
	o2 := &Optimizer{Catalog: cat, AssumeRI: false}
	opt2, _, err := o2.Optimize(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(opt2), "prenatal_tests") {
		t.Error("join eliminated without RI assumption")
	}
}

func TestConstantFoldingDropsTrueFilter(t *testing.T) {
	cat := hospitalCatalog(t)
	tb, _ := cat.Table("patient_info")
	root := &plan.Filter{
		Child: plan.NewScan(tb),
		Pred:  expr.NewBinary(expr.OpGt, expr.IntLit(2), expr.IntLit(1)),
	}
	o := &Optimizer{Catalog: cat}
	opt, _, err := o.Optimize(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := opt.(*plan.Scan); !ok {
		t.Errorf("always-true filter not dropped: %s", plan.Explain(opt))
	}
}

func TestOptimizedPlanStillBindsSchemas(t *testing.T) {
	cat := hospitalCatalog(t)
	p := bindQ(t, cat, `SELECT pi.age, bt.bp FROM patient_info AS pi
		JOIN blood_tests AS bt ON pi.id = bt.id WHERE pi.age > 30`)
	o := &Optimizer{Catalog: cat, AssumeRI: true}
	opt, _, err := o.Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	sch := opt.Schema()
	if sch.Len() != 2 || sch.IndexOf("age") < 0 || sch.IndexOf("bp") < 0 {
		t.Errorf("schema broken after optimize: %v", sch)
	}
}

// opaqueExpr is a node type renameColumn has never heard of.
type opaqueExpr struct{ expr.Expr }

// TestRenameColumnTotalOrRefuses: the rename behind transitive join-key
// propagation reaches every column reference expr.Columns can see — CASE
// arms included — and refuses an expression holding a node it does not
// know instead of passing its references through unrenamed.
func TestRenameColumnTotalOrRefuses(t *testing.T) {
	k := &expr.Column{Name: "a.k"}
	e := expr.NewBinary(expr.OpEq, &expr.Case{
		Whens: []expr.When{{Cond: expr.NewBinary(expr.OpGt, k, &expr.Param{Name: "p"}), Then: k}},
		Else:  &expr.Not{E: expr.NewBinary(expr.OpLt, k, expr.IntLit(3))},
	}, expr.IntLit(1))
	got, ok := renameColumn(e, "k", "fk")
	if !ok || got.String() != "(CASE WHEN (fk > @p) THEN fk ELSE (NOT (fk < 3)) END = 1)" {
		t.Errorf("renamed = %v (ok=%v)", got, ok)
	}
	if e.String() != "(CASE WHEN (a.k > @p) THEN a.k ELSE (NOT (a.k < 3)) END = 1)" {
		t.Errorf("input mutated: %v", e)
	}
	if _, ok := renameColumn(expr.NewBinary(expr.OpEq, opaqueExpr{k}, expr.IntLit(1)), "k", "fk"); ok {
		t.Error("an unknown node type was passed through as if it held no column")
	}
}

// ext is the smallest plan.Extension: it reads column read, adds column
// added, and is row-wise or opaque as told.
type ext struct {
	child       plan.Node
	read, added string
	rowWise     bool
}

func (e *ext) Schema() *types.Schema {
	return e.child.Schema().Concat(types.NewSchema(types.Column{Name: e.added, Type: types.Float}))
}
func (e *ext) Children() []plan.Node       { return []plan.Node{e.child} }
func (e *ext) SetChild(_ int, n plan.Node) { e.child = n }
func (e *ext) String() string              { return "ext" }
func (e *ext) Reads() []string             { return []string{e.read} }
func (e *ext) Adds() []string              { return []string{e.added} }
func (e *ext) RowWise() bool               { return e.rowWise }
func (e *ext) Clone() plan.Node            { c := *e; return &c }

// TestExtensionContract: the rules know an operator they were not written
// for by its contract alone. Below a row-wise one go the conjuncts that
// read nothing it adds (only when asked to cross), and the columns
// required above minus the added plus the read; an opaque one stops
// filters and requires its whole input.
func TestExtensionContract(t *testing.T) {
	cat := hospitalCatalog(t)
	o := &Optimizer{Catalog: cat, AssumeRI: true}
	build := func(rowWise bool) plan.Node {
		join := bindQ(t, cat, `SELECT * FROM patient_info AS pi JOIN blood_tests AS bt ON pi.id = bt.id`)
		where := expr.And([]expr.Expr{
			expr.NewBinary(expr.OpGt, &expr.Column{Name: "age"}, expr.IntLit(30)),
			expr.NewBinary(expr.OpGt, &expr.Column{Name: "score"}, expr.FloatLit(0.5)),
			expr.NewBinary(expr.OpEq, &expr.Param{Name: "on"}, expr.IntLit(1)),
		})
		root, err := plan.NewProject(
			&plan.Filter{Child: &ext{child: join, read: "bp", added: "score", rowWise: rowWise}, Pred: where},
			[]expr.Expr{&expr.Column{Name: "id"}, &expr.Column{Name: "score"}}, []string{"id", "score"})
		if err != nil {
			t.Fatal(err)
		}
		return root
	}
	optimize := func(root plan.Node, cross bool) (string, bool) {
		t.Helper()
		crossed := false
		if cross {
			var err error
			if root, crossed, _, err = o.PushFilters(root); err != nil {
				t.Fatal(err)
			}
		}
		root, _, err := o.Optimize(root)
		if err != nil {
			t.Fatal(err)
		}
		return plan.Explain(root), crossed
	}

	got, crossed := optimize(build(true), true)
	want := "Project(id AS id, score AS score)\n" +
		"  Filter((score > 0.5))\n" +
		"    ext\n" +
		"      Join(id = id)\n" +
		"        Filter(((age > 30) AND (@on = 1)))\n" +
		"          Scan(patient_info, cols=[id,age])\n" +
		"        Scan(blood_tests)\n"
	if !crossed || got != want {
		t.Errorf("row-wise, crossing (crossed=%v):\n%s\nwant:\n%s", crossed, got, want)
	}

	// The same operator without the crossing rule: the filter stays whole
	// above it, pruning still sees through it.
	got, _ = optimize(build(true), false)
	if !strings.HasPrefix(got, "Project(id AS id, score AS score)\n  Filter((((age > 30) AND (score > 0.5)) AND (@on = 1)))\n    ext\n      Join(id = id)\n        Scan(patient_info, cols=[id,age])") {
		t.Errorf("row-wise, not crossing:\n%s", got)
	}

	got, crossed = optimize(build(false), true)
	if crossed || !strings.HasPrefix(got, "Project(id AS id, score AS score)\n  Filter((((age > 30) AND (score > 0.5)) AND (@on = 1)))\n    ext\n      Join(id = id)\n        Scan(patient_info)\n        Scan(blood_tests)") {
		t.Errorf("opaque (crossed=%v):\n%s", crossed, got)
	}
}

// TestProjectOutputsNothingReadsArePruned: a derived table's unread
// outputs go, and with them the columns only they needed; the query's own
// select list is untouched.
func TestProjectOutputsNothingReadsArePruned(t *testing.T) {
	cat := hospitalCatalog(t)
	p := bindQ(t, cat, `SELECT t.a FROM (SELECT pi.age AS a, pi.gender AS g, pi.pregnant + 1 AS p1 FROM patient_info AS pi) AS t WHERE t.g = 1`)
	opt, _, err := (&Optimizer{Catalog: cat}).Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	want := "Project(a AS a)\n  Filter((g = 1))\n    Project(age AS a, gender AS g)\n      Scan(patient_info, cols=[age,gender])\n"
	if got := plan.Explain(opt); got != want {
		t.Errorf("plan:\n%s\nwant:\n%s", got, want)
	}
	if opt.Schema().Len() != 1 {
		t.Errorf("schema = %v", opt.Schema())
	}
}
