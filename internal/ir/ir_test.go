package ir

import (
	"fmt"
	"strings"
	"testing"

	"raven/internal/ml"
	"raven/internal/plan"
	"raven/internal/storage"
	"raven/internal/types"
)

func smallTable(t *testing.T, name string) *storage.Table {
	t.Helper()
	tb := storage.NewTable(name, types.NewSchema(
		types.Column{Name: "id", Type: types.Int},
		types.Column{Name: "x", Type: types.Float},
	))
	for i := 0; i < 5; i++ {
		if err := tb.AppendRow(int64(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func testPipeline() *ml.Pipeline {
	return &ml.Pipeline{
		Steps:        []ml.Transformer{&ml.StandardScaler{Mean: []float64{0}, Scale: []float64{1}}},
		Final:        &ml.LogisticRegression{W: []float64{1}, B: 0},
		InputColumns: []string{"x"},
	}
}

func resolver(p *ml.Pipeline) PipelineResolver {
	return func(name string) (*ml.Pipeline, error) {
		if name == "m" {
			return p, nil
		}
		return nil, fmt.Errorf("no model %q", name)
	}
}

func TestFromPlanNoPredict(t *testing.T) {
	tb := smallTable(t, "t")
	g, err := FromPlan(plan.NewScan(tb), resolver(testPipeline()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Root.(*plan.Scan); !ok {
		t.Fatalf("root = %T", g.Root)
	}
	if len(g.ModelOps()) != 0 {
		t.Error("phantom model operators")
	}
}

func TestFromPlanExpandsPredict(t *testing.T) {
	tb := smallTable(t, "t")
	pr := plan.NewPredict(plan.NewScan(tb), "m", []types.Column{{Name: "score", Type: types.Float}})
	g, err := FromPlan(pr, resolver(testPipeline()))
	if err != nil {
		t.Fatal(err)
	}
	// The model operator, its one featurizer step riding on it, over the scan.
	mn, ok := g.Root.(*ModelNode)
	if !ok || len(mn.Steps) != 1 {
		t.Fatalf("root:\n%s", g.Explain())
	}
	if categoryOf(mn) != MLD || categoryOf(mn.Child) != RA {
		t.Errorf("categories = %v over %v", categoryOf(mn), categoryOf(mn.Child))
	}
	if mn.OutputCol.Name != "score" || len(mn.InputCols) != 1 || mn.Model != "m" {
		t.Errorf("model node = %+v", mn)
	}
	if _, ok := mn.Child.(*plan.Scan); !ok {
		t.Errorf("model input = %T", mn.Child)
	}
	if got := mn.Schema().Names(); len(got) != 3 || got[2] != "score" {
		t.Errorf("schema = %v", got)
	}
}

// TestFromPlanReplacesPredictInPlace: a PREDICT stays where the binder put
// it — under a limit, under a join, stacked on another — and the relational
// operators around it stay the nodes they were.
func TestFromPlanReplacesPredictInPlace(t *testing.T) {
	tb := smallTable(t, "t")
	score := []types.Column{{Name: "score", Type: types.Float}}
	inner := plan.NewPredict(plan.NewScan(tb), "m", score)
	outer := plan.NewPredict(inner, "m", []types.Column{{Name: "score2", Type: types.Float}})
	join, err := plan.NewJoin(outer, plan.NewScan(smallTable(t, "u")), "id", "id")
	if err != nil {
		t.Fatal(err)
	}
	lim := &plan.Limit{Child: join, N: 3}
	g, err := FromPlan(lim, resolver(testPipeline()))
	if err != nil {
		t.Fatal(err)
	}
	if g.Root != plan.Node(lim) || lim.Child != plan.Node(join) {
		t.Fatalf("relational operators were replaced:\n%s", g.Explain())
	}
	top, ok := join.Left.(*ModelNode)
	if !ok || top.OutputCol.Name != "score2" {
		t.Fatalf("join input = %T:\n%s", join.Left, g.Explain())
	}
	if below, ok := top.Child.(*ModelNode); !ok || below.OutputCol.Name != "score" {
		t.Fatalf("stacked model input = %T", top.Child)
	}
	if len(g.ModelOps()) != 2 {
		t.Errorf("model operators = %d", len(g.ModelOps()))
	}
}

func TestFromPlanUnknownModel(t *testing.T) {
	tb := smallTable(t, "t")
	pr := plan.NewPredict(plan.NewScan(tb), "nope", []types.Column{{Name: "s", Type: types.Float}})
	if _, err := FromPlan(pr, resolver(testPipeline())); err == nil {
		t.Error("unknown model should fail")
	}
}

func TestFromPlanMultiOutputRejected(t *testing.T) {
	tb := smallTable(t, "t")
	pr := plan.NewPredict(plan.NewScan(tb), "m", []types.Column{
		{Name: "a", Type: types.Float}, {Name: "b", Type: types.Float},
	})
	if _, err := FromPlan(pr, resolver(testPipeline())); err == nil {
		t.Error("multi-output PREDICT should fail")
	}
}

func TestExplainAndFind(t *testing.T) {
	tb := smallTable(t, "t")
	pr := plan.NewPredict(plan.NewScan(tb), "m", []types.Column{{Name: "score", Type: types.Float}})
	g, err := FromPlan(pr, resolver(testPipeline()))
	if err != nil {
		t.Fatal(err)
	}
	s := g.Explain()
	if !strings.Contains(s, "MLD") || !strings.Contains(s, "RA") {
		t.Errorf("explain:\n%s", s)
	}
	n := g.Find(func(n Node) bool { _, ok := n.(*ModelNode); return ok })
	if n == nil {
		t.Error("Find failed")
	}
	if g.Find(func(n Node) bool { return false }) != nil {
		t.Error("Find should return nil")
	}
}

func TestCategoryAndEngineStrings(t *testing.T) {
	if RA.String() != "RA" || LA.String() != "LA" || MLD.String() != "MLD" || UDF.String() != "UDF" {
		t.Error("category strings")
	}
	if RA.Engine() != "db" || LA.Engine() != "ml" || MLD.Engine() != "ml" || UDF.Engine() != "ml" {
		t.Error("engine of a category")
	}
}

// TestExplainPrintsTheTree: every operator on its own line under its tag,
// a model's featurizer steps one level below it, in the order they run,
// before its input.
func TestExplainPrintsTheTree(t *testing.T) {
	tb := smallTable(t, "t")
	op := Scorer{Child: plan.NewScan(tb), InputCols: []string{"id", "x"}, OutputCol: types.Column{Name: "s", Type: types.Float}}
	m := &ModelNode{Scorer: op, M: &ml.LogisticRegression{W: []float64{1, 2, 3}}, Steps: []ml.Transformer{
		&ml.StandardScaler{Mean: []float64{0, 0}, Scale: []float64{1, 1}},
		&ml.OneHotEncoder{Cols: []int{0}, Categories: [][]float64{{0, 1}}, InputDim: 2},
	}}
	udf := &UDFNode{Name: "f", Child: m, Out: m.Schema()}
	want := "[RA/db] RA:Limit(3)\n" +
		"  [UDF/ml] UDF:f\n" +
		"    [MLD/ml] MLD:model:logreg -> s\n" +
		"      [MLD/ml] MLD:transform:scaler\n" +
		"      [MLD/ml] MLD:transform:onehot\n" +
		"      [RA/db] RA:Scan(t)\n"
	if got := (&Graph{Root: &plan.Limit{Child: udf, N: 3}}).Explain(); got != want {
		t.Errorf("explain:\n%s\nwant:\n%s", got, want)
	}
}
