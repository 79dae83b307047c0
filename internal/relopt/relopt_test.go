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
	opt, err := o.Optimize(p)
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
	opt, err := o.Optimize(p)
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
	opt, err := o.Optimize(p)
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
	opt2, err := o2.Optimize(p2)
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
	opt, err := o.Optimize(root)
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
	opt, err := o.Optimize(p)
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
