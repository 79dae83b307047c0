package codegen

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"raven/internal/exec"
	"raven/internal/expr"
	"raven/internal/ir"
	"raven/internal/ml"
	"raven/internal/nnconv"
	"raven/internal/plan"
	"raven/internal/rt"
	"raven/internal/storage"
	"raven/internal/types"
)

func featureTable(t *testing.T, n int) *storage.Table {
	t.Helper()
	tb := storage.NewTable("t", types.NewSchema(
		types.Column{Name: "id", Type: types.Int},
		types.Column{Name: "a", Type: types.Float},
		types.Column{Name: "b", Type: types.Float},
	))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		if err := tb.AppendRow(int64(i), rng.NormFloat64(), rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func scorer(src ir.Node) ir.Scorer {
	return ir.Scorer{Child: src, Model: "m", InputCols: []string{"a", "b"}, OutputCol: types.Column{Name: "score", Type: types.Float}}
}

func lrModelNode(src ir.Node) *ir.ModelNode {
	return &ir.ModelNode{Scorer: scorer(src), M: &ml.LogisticRegression{W: []float64{1, -1}, B: 0.5}}
}

func collect(t *testing.T, op exec.Operator) *types.Batch {
	t.Helper()
	out, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCompileModelChain(t *testing.T) {
	tb := featureTable(t, 500)
	g := &ir.Graph{Root: lrModelNode(plan.NewScan(tb))}
	for _, mode := range []rt.Mode{rt.ModeInProcess, rt.ModeInProcessNN} {
		op, err := Compile(g, &Config{Mode: mode, Parallelism: 1})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		out := collect(t, op)
		if out.Len() != 500 || out.Schema.IndexOf("score") < 0 {
			t.Fatalf("mode %v: %d rows, schema %v", mode, out.Len(), out.Schema)
		}
		// spot check row 0
		a := out.Col("a").Floats[0]
		b := out.Col("b").Floats[0]
		want := 1 / (1 + math.Exp(-(a - b + 0.5)))
		if math.Abs(out.Col("score").Floats[0]-want) > 1e-9 {
			t.Fatalf("mode %v: score = %v want %v", mode, out.Col("score").Floats[0], want)
		}
	}
}

func TestCompileFilterAboveModel(t *testing.T) {
	tb := featureTable(t, 300)
	g := &ir.Graph{Root: &plan.Filter{
		Child: lrModelNode(plan.NewScan(tb)),
		Pred:  expr.NewBinary(expr.OpGt, &expr.Column{Name: "score"}, expr.FloatLit(0.6)),
	}}
	op, err := Compile(g, &Config{Mode: rt.ModeInProcess, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := collect(t, op)
	for i := 0; i < out.Len(); i++ {
		if out.Col("score").Floats[i] <= 0.6 {
			t.Fatalf("sink filter not applied at row %d", i)
		}
	}
}

func TestCompileLANode(t *testing.T) {
	tb := featureTable(t, 400)
	pipe := &ml.Pipeline{Final: &ml.LogisticRegression{W: []float64{1, -1}, B: 0.5}, InputColumns: []string{"a", "b"}}
	graph, err := nnconv.TranslatePipeline(pipe)
	if err != nil {
		t.Fatal(err)
	}
	la := &ir.LANode{Scorer: scorer(plan.NewScan(tb)), G: graph}
	g := &ir.Graph{Root: la}
	op, err := Compile(g, &Config{Parallelism: 1, CacheKey: "k"})
	if err != nil {
		t.Fatal(err)
	}
	out := collect(t, op)
	if out.Len() != 400 {
		t.Fatalf("rows = %d", out.Len())
	}
}

// TestStackedModelsGetOwnSessions: two different models in one plan,
// compiled to tensor sessions under one caller key, must each score with
// their own session — neither may answer from the other's.
func TestStackedModelsGetOwnSessions(t *testing.T) {
	tb := featureTable(t, 1000)
	inner := lrModelNode(plan.NewScan(tb))
	inner.OutputCol.Name = "s1"
	outer := &ir.ModelNode{Scorer: scorer(inner), M: &ml.LogisticRegression{W: []float64{-2, 0.5}, B: -1}}
	outer.OutputCol.Name = "s2"
	op, err := Compile(&ir.Graph{Root: outer}, &Config{Mode: rt.ModeInProcessNN, Parallelism: 1, CacheKey: "k"})
	if err != nil {
		t.Fatal(err)
	}
	out := collect(t, op)
	if out.Len() != 1000 {
		t.Fatalf("rows = %d", out.Len())
	}
	for _, m := range []*ir.ModelNode{inner, outer} {
		lr := m.M.(*ml.LogisticRegression)
		a, b, s := out.Col("a").Floats, out.Col("b").Floats, out.Col(m.OutputCol.Name).Floats
		for i := range s {
			want := 1 / (1 + math.Exp(-(lr.W[0]*a[i] + lr.W[1]*b[i] + lr.B)))
			if math.Abs(s[i]-want) > 1e-9 {
				t.Fatalf("%s row %d: score %v, want %v from its own model", m.OutputCol.Name, i, s[i], want)
			}
		}
	}
}

func TestCompileUDFNode(t *testing.T) {
	tb := featureTable(t, 100)
	outSchema := types.NewSchema(types.Column{Name: "doubled", Type: types.Float})
	udf := &ir.UDFNode{
		Name: "double_a",
		Out:  outSchema,
		Fn: func(b *types.Batch) (*types.Batch, error) {
			v := types.NewVector(types.Float, b.Len())
			a := b.Col("a")
			for i := range v.Floats {
				v.Floats[i] = a.Floats[i] * 2
			}
			return &types.Batch{Schema: outSchema, Vecs: []*types.Vector{v}}, nil
		},
		Child: plan.NewScan(tb),
	}
	g := &ir.Graph{Root: udf}
	op, err := Compile(g, &Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := collect(t, op)
	if out.Len() != 100 || out.Schema.IndexOf("doubled") != 0 {
		t.Fatalf("udf output = %v", out.Schema)
	}
}

func TestCompileErrors(t *testing.T) {
	// model without input
	mn := lrModelNode(nil)
	if _, err := Compile(&ir.Graph{Root: mn}, &Config{}); err == nil {
		t.Error("model without input should fail")
	}
}

func TestGenerateSQL(t *testing.T) {
	tb := featureTable(t, 10)
	sc := &ml.StandardScaler{Mean: []float64{0, 0}, Scale: []float64{1, 1}}
	mn := lrModelNode(plan.NewScan(tb))
	mn.Steps = []ml.Transformer{sc}
	s := GenerateSQL(&ir.Graph{Root: &plan.Limit{Child: mn, N: 5}})
	want := "--   Limit(5)\n--     PREDICT logreg(a, b) AS score\n--       featurizer " + sc.Kind() + "\n--       Scan(t)\n"
	if !strings.HasSuffix(s, want) {
		t.Errorf("generated SQL:\n%s", s)
	}
}

func TestParallelCompileThroughModel(t *testing.T) {
	tb := featureTable(t, 200000)
	g := &ir.Graph{Root: lrModelNode(plan.NewScan(tb))}
	op, err := Compile(g, &Config{Mode: rt.ModeInProcess, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := op.(*exec.Exchange); !ok {
		t.Fatalf("compiled = %T, want Exchange (model stage inside workers)", op)
	}
	out := collect(t, op)
	if out.Len() != 200000 {
		t.Errorf("rows = %d", out.Len())
	}
}
