package plan

import (
	"strings"
	"testing"

	"raven/internal/expr"
	"raven/internal/sql"
	"raven/internal/storage"
	"raven/internal/types"
)

// testCatalog builds the hospital-shaped catalog from the paper's running
// example.
func testCatalog(t *testing.T) *storage.Catalog {
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
	for i := 0; i < 10; i++ {
		if err := pi.AppendRow(int64(i), float64(20+i), int64(i%2), int64(i%2)); err != nil {
			t.Fatal(err)
		}
		if err := bt.AppendRow(int64(i), float64(100+i*5)); err != nil {
			t.Fatal(err)
		}
		if err := pt.AppendRow(int64(i), float64(120+i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tb := range []*storage.Table{pi, bt, pt} {
		if err := cat.AddTable(tb); err != nil {
			t.Fatal(err)
		}
		cat.SetUniqueKey(tb.Name, "id")
	}
	return cat
}

func bind(t *testing.T, cat *storage.Catalog, q string) Node {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBinder(cat)
	b.Vars["model"] = "duration_of_stay"
	p, err := b.BindSelect(st.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBindSimpleSelect(t *testing.T) {
	cat := testCatalog(t)
	p := bind(t, cat, "SELECT id, age FROM patient_info WHERE age > 25")
	proj, ok := p.(*Project)
	if !ok {
		t.Fatalf("root = %T", p)
	}
	if proj.Schema().Len() != 2 || proj.Schema().Columns[1].Name != "age" {
		t.Errorf("schema = %v", proj.Schema())
	}
	if _, ok := proj.Child.(*Filter); !ok {
		t.Errorf("child = %T, want Filter", proj.Child)
	}
}

func TestBindStar(t *testing.T) {
	cat := testCatalog(t)
	p := bind(t, cat, "SELECT * FROM patient_info")
	if _, ok := p.(*Scan); !ok {
		t.Fatalf("SELECT * should bind to bare scan, got %T", p)
	}
	if p.Schema().Len() != 4 {
		t.Errorf("schema = %v", p.Schema())
	}
}

func TestBindJoinsDropDuplicateKey(t *testing.T) {
	cat := testCatalog(t)
	p := bind(t, cat, `SELECT * FROM patient_info AS pi JOIN blood_tests AS bt ON pi.id = bt.id`)
	j, ok := p.(*Join)
	if !ok {
		t.Fatalf("root = %T", p)
	}
	// id appears once: 4 left cols + 1 right col (bp)
	if j.Schema().Len() != 5 {
		t.Errorf("join schema = %v", j.Schema())
	}
	if j.Schema().IndexOf("bp") < 0 {
		t.Error("bp missing from join output")
	}
}

func TestBindPredictQuery(t *testing.T) {
	cat := testCatalog(t)
	q := `
WITH data AS (
  SELECT * FROM patient_info AS pi
  JOIN blood_tests AS bt ON pi.id = bt.id
  JOIN prenatal_tests AS pt ON bt.id = pt.id
)
SELECT d.id, p.length_of_stay
FROM PREDICT(MODEL = @model, DATA = data AS d)
WITH (length_of_stay FLOAT) AS p
WHERE d.pregnant = 1 AND p.length_of_stay > 7`
	p := bind(t, cat, q)
	// Project <- Filter <- Predict <- Join <- ...
	proj := p.(*Project)
	f := proj.Child.(*Filter)
	pr := f.Child.(*Predict)
	if pr.ModelName != "duration_of_stay" {
		t.Errorf("model = %q", pr.ModelName)
	}
	if pr.Schema().IndexOf("length_of_stay") < 0 {
		t.Error("prediction column missing")
	}
	if _, ok := pr.Child.(*Join); !ok {
		t.Errorf("predict child = %T", pr.Child)
	}
	s := Explain(p)
	if !strings.Contains(s, "Predict(model=duration_of_stay)") {
		t.Errorf("explain:\n%s", s)
	}
}

func TestBindAggregates(t *testing.T) {
	cat := testCatalog(t)
	p := bind(t, cat, "SELECT pregnant, COUNT(*) AS n, AVG(age) AS avg_age FROM patient_info GROUP BY pregnant")
	a, ok := p.(*Aggregate)
	if !ok {
		t.Fatalf("root = %T", p)
	}
	if len(a.Aggs) != 2 || a.Aggs[0].Func != AggCount || a.Aggs[1].Func != AggAvg {
		t.Errorf("aggs = %+v", a.Aggs)
	}
	if a.Schema().Columns[1].Type != types.Int {
		t.Error("COUNT should be INT")
	}
	if a.Schema().Columns[2].Name != "avg_age" {
		t.Errorf("schema = %v", a.Schema())
	}
}

func TestBindOrderLimitDistinct(t *testing.T) {
	cat := testCatalog(t)
	p := bind(t, cat, "SELECT DISTINCT pregnant FROM patient_info ORDER BY pregnant DESC LIMIT 5")
	l, ok := p.(*Limit)
	if !ok {
		t.Fatalf("root = %T", p)
	}
	s, ok := l.Child.(*Sort)
	if !ok || !s.Keys[0].Desc {
		t.Fatalf("limit child = %T", l.Child)
	}
	if _, ok := s.Child.(*Distinct); !ok {
		t.Fatalf("sort child = %T", s.Child)
	}
}

func TestBindErrors(t *testing.T) {
	cat := testCatalog(t)
	b := NewBinder(cat)
	bad := []string{
		"SELECT nope FROM patient_info",
		"SELECT * FROM missing_table",
		"SELECT id FROM patient_info WHERE age > 'x'",
		"SELECT p.s FROM PREDICT(MODEL=@undeclared, DATA=patient_info AS d) WITH (s FLOAT) AS p",
		"SELECT age, COUNT(*) FROM patient_info GROUP BY pregnant",
		"SELECT id FROM patient_info ORDER BY nope",
		"SELECT SUM(*) FROM patient_info",
	}
	for _, q := range bad {
		st, err := sql.Parse(q)
		if err != nil {
			continue // parse-level failure also acceptable
		}
		if _, err := b.BindSelect(st.(*sql.SelectStmt)); err == nil {
			t.Errorf("BindSelect(%q) should fail", q)
		}
	}
}

func TestBindCTEVisibility(t *testing.T) {
	cat := testCatalog(t)
	p := bind(t, cat, `WITH young AS (SELECT * FROM patient_info WHERE age < 25),
		young2 AS (SELECT id FROM young)
		SELECT id FROM young2`)
	if p == nil {
		t.Fatal("nil plan")
	}
	// CTE should not leak into a later statement
	b := NewBinder(cat)
	st, _ := sql.Parse("SELECT * FROM young")
	if _, err := b.BindSelect(st.(*sql.SelectStmt)); err == nil {
		t.Error("CTE leaked out of statement scope")
	}
}

func TestScanSetCols(t *testing.T) {
	cat := testCatalog(t)
	tb, _ := cat.Table("patient_info")
	s := NewScan(tb)
	if err := s.SetCols([]string{"age", "id"}); err != nil {
		t.Fatal(err)
	}
	if s.Schema().Len() != 2 || s.Schema().Columns[0].Name != "age" {
		t.Errorf("schema = %v", s.Schema())
	}
	if err := s.SetCols([]string{"nope"}); err == nil {
		t.Error("bad column should fail")
	}
}

func TestAggregateParallelizable(t *testing.T) {
	cat := testCatalog(t)
	tb, _ := cat.Table("patient_info")
	agg, err := NewAggregate(NewScan(tb), []string{"pregnant"}, []AggSpec{
		{Func: AggCount, Name: "n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Parallelizable() {
		t.Error("count/sum aggregate must be parallelizable")
	}
	for _, f := range []AggFunc{AggCount, AggSum, AggAvg, AggMin, AggMax} {
		if !f.Mergeable() {
			t.Errorf("%v must be mergeable", aggNames[f])
		}
	}
	if AggFunc(200).Mergeable() {
		t.Error("unknown aggregate function must not claim mergeability")
	}
}

// passThrough is an operator this package does not define.
type passThrough struct{ child Node }

func (p *passThrough) Schema() *types.Schema  { return p.child.Schema() }
func (p *passThrough) Children() []Node       { return []Node{p.child} }
func (p *passThrough) SetChild(_ int, n Node) { p.child = n }
func (p *passThrough) String() string         { return "passThrough" }
func (p *passThrough) Reads() []string        { return nil }
func (p *passThrough) Adds() []string         { return nil }
func (p *passThrough) RowWise() bool          { return true }
func (p *passThrough) Clone() Node            { c := *p; return &c }

// TestBindParamsClonesExtensions: a parameter bound below an operator
// BindParams does not know must reach the result — the operator is cloned
// onto the bound child — and the template must keep its placeholder.
func TestBindParamsClonesExtensions(t *testing.T) {
	cat := testCatalog(t)
	tb, err := cat.Table("patient_info")
	if err != nil {
		t.Fatal(err)
	}
	filter := &Filter{Child: NewScan(tb), Pred: expr.NewBinary(expr.OpEq, &expr.Column{Name: "id"}, &expr.Param{Name: "id"})}
	ext := &passThrough{child: filter}
	tpl := &Limit{Child: ext, N: 1}
	if got := CollectParams(tpl); len(got) != 1 || got[0] != "id" {
		t.Fatalf("params = %v", got)
	}
	bound, err := BindParams(tpl, map[string]string{"id": "7"})
	if err != nil {
		t.Fatal(err)
	}
	if got := Explain(bound); got != "Limit(1)\n  passThrough\n    Filter((id = 7))\n      Scan(patient_info)\n" {
		t.Errorf("bound plan:\n%s", got)
	}
	if ext.child != Node(filter) || Explain(tpl) != "Limit(1)\n  passThrough\n    Filter((id = @id))\n      Scan(patient_info)\n" {
		t.Errorf("template mutated:\n%s", Explain(tpl))
	}
}
