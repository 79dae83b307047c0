package rt

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"raven/internal/ml"
	"raven/internal/types"
)

func testPipe() *ml.Pipeline {
	return &ml.Pipeline{
		Steps:        []ml.Transformer{&ml.StandardScaler{Mean: []float64{5, 0}, Scale: []float64{2, 1}}},
		Final:        &ml.LogisticRegression{W: []float64{1, -0.5}, B: 0.2},
		InputColumns: []string{"a", "b"},
	}
}

func testBatch(t *testing.T, n int) *types.Batch {
	t.Helper()
	s := types.NewSchema(
		types.Column{Name: "id", Type: types.Int},
		types.Column{Name: "a", Type: types.Float},
		types.Column{Name: "b", Type: types.Float},
	)
	b := types.NewBatch(s)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		if err := b.AppendRow(int64(i), rng.Float64()*10, rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// expected computes the reference scores directly through the pipeline.
func expected(t *testing.T, b *types.Batch) []float64 {
	t.Helper()
	p := testPipe()
	data, n, err := b.FloatMatrix(p.InputColumns)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Predict(ml.Matrix{Data: data, Rows: n, Cols: 2})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func assertScores(t *testing.T, want []float64, got []*types.Vector) {
	t.Helper()
	if len(got) != 1 {
		t.Fatalf("predictor returned %d vectors", len(got))
	}
	if got[0].Len() != len(want) {
		t.Fatalf("lengths: %d vs %d", got[0].Len(), len(want))
	}
	for i := range want {
		if math.Abs(got[0].Floats[i]-want[i]) > 1e-9 {
			t.Fatalf("score %d: %v vs %v", i, got[0].Floats[i], want[i])
		}
	}
}

func TestPipelinePredictor(t *testing.T) {
	b := testBatch(t, 100)
	p := NewPipelinePredictor(testPipe(), types.Float)
	got, err := p.PredictBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	assertScores(t, expected(t, b), got)
}

func TestNNPredictorMatchesPipeline(t *testing.T) {
	b := testBatch(t, 200)
	r := NewRuntime()
	p, err := r.NNPredictor("key", testPipe(), types.Float)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.PredictBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	assertScores(t, expected(t, b), got)
}

func TestNNPredictorSessionCacheSharing(t *testing.T) {
	r := NewRuntime()
	p1, err := r.NNPredictor("same", testPipe(), types.Float)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r.NNPredictor("same", testPipe(), types.Float)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Session != p2.Session {
		t.Error("sessions with same key should be shared")
	}
	p3, err := r.NNPredictor("", testPipe(), types.Float)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Session == p1.Session {
		t.Error("empty key must bypass the cache")
	}
}

func TestOutOfProcessPredictor(t *testing.T) {
	b := testBatch(t, 50)
	inner := NewPipelinePredictor(testPipe(), types.Float)
	p := &OutOfProcessPredictor{Inner: inner, Startup: 30 * time.Millisecond}
	start := time.Now()
	got, err := p.PredictBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	first := time.Since(start)
	if first < 30*time.Millisecond {
		t.Errorf("startup latency not charged: %v", first)
	}
	assertScores(t, expected(t, b), got)
	// second call: no startup
	start = time.Now()
	if _, err := p.PredictBatch(b); err != nil {
		t.Fatal(err)
	}
	if second := time.Since(start); second > 25*time.Millisecond {
		t.Errorf("startup charged twice: %v", second)
	}
}

func TestContainerPredictor(t *testing.T) {
	b := testBatch(t, 30)
	pred, srv, err := NewContainerPredictor(testPipe(), types.Float)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	got, err := pred.PredictBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	assertScores(t, expected(t, b), got)
}

func TestContainerServerErrors(t *testing.T) {
	// pipeline whose model expects the wrong width yields a 500
	bad := &ml.Pipeline{Final: &ml.LogisticRegression{W: []float64{1, 2, 3}}, InputColumns: []string{"a", "b"}}
	pred, srv, err := NewContainerPredictor(bad, types.Float)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	b := testBatch(t, 5)
	if _, err := pred.PredictBatch(b); err == nil {
		t.Error("width mismatch should surface as container error")
	}
}

func TestFloatVectorConversions(t *testing.T) {
	scores := []float64{0.2, 0.9, 1.6}
	f := floatVector(scores, types.Float)
	if f.Type != types.Float || f.Floats[2] != 1.6 {
		t.Error("float conversion")
	}
	i := floatVector(scores, types.Int)
	if i.Type != types.Int || i.Ints[2] != 1 {
		t.Error("int conversion")
	}
	bo := floatVector(scores, types.Bool)
	if bo.Type != types.Bool || bo.Bools[0] || !bo.Bools[1] {
		t.Error("bool conversion")
	}
}

func TestBatchWireRoundTrip(t *testing.T) {
	b := testBatch(t, 10)
	wire, err := encodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeBatch(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != b.Len() || back.Schema.Len() != b.Schema.Len() {
		t.Fatalf("round trip shape: %d/%d", back.Len(), back.Schema.Len())
	}
	if back.Col("a").Floats[3] != b.Col("a").Floats[3] {
		t.Error("round trip data")
	}
	if _, err := decodeBatch([]byte("junk")); err == nil {
		t.Error("junk should fail decode")
	}
}

func TestPredictorErrorsOnMissingColumn(t *testing.T) {
	s := types.NewSchema(types.Column{Name: "zzz", Type: types.Float})
	b := types.NewBatch(s)
	_ = b.AppendRow(1.0)
	p := NewPipelinePredictor(testPipe(), types.Float)
	if _, err := p.PredictBatch(b); err == nil {
		t.Error("missing input column should fail")
	}
}

func TestModeStrings(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeInProcess: "in-process", ModeInProcessNN: "in-process-nn",
		ModeOutOfProcess: "out-of-process", ModeContainer: "container",
	} {
		if m.String() != want {
			t.Errorf("%d = %q", m, m.String())
		}
	}
}

// TestPipelinePredictorColumnsMatchMatrix: the predictor hands the
// pipeline the batch's own columns — FLOAT as they are, INT, BOOL and
// broadcast ones widened — and the scores must equal, bit for bit, what
// the pipeline computes from the row-major matrix of the same batch: for
// a forest (columns go straight to the tree kernel), for a featurized
// model (gathered back into row-major chunks, several per batch), and
// again when a pooled scratch is reused on a batch of another size.
func TestPipelinePredictorColumnsMatchMatrix(t *testing.T) {
	cols := []string{"f", "i", "b", "c"}
	batch := func(n int) *types.Batch {
		b := types.NewBatch(types.NewSchema(
			types.Column{Name: "f", Type: types.Float},
			types.Column{Name: "i", Type: types.Int},
			types.Column{Name: "b", Type: types.Bool},
		))
		rng := rand.New(rand.NewSource(int64(n)))
		for r := 0; r < n; r++ {
			f := rng.NormFloat64()
			switch r % 37 {
			case 0:
				f = math.NaN()
			case 1:
				f = math.Copysign(0, -1)
			case 2:
				f = math.Inf(-1)
			}
			if err := b.AppendRow(f, int64(rng.Intn(7)-3), rng.Intn(2) == 1); err != nil {
				t.Fatal(err)
			}
		}
		b.Schema = b.Schema.Concat(types.NewSchema(types.Column{Name: "c", Type: types.Float}))
		b.Vecs = append(b.Vecs, types.ConstFloat(0.25, n))
		return b
	}
	leaf := func(v float64) *ml.DecisionTree {
		return &ml.DecisionTree{Feature: []int{-1}, Threshold: []float64{0}, Left: []int{-1}, Right: []int{-1}, Value: []float64{v}, NFeat: 4}
	}
	split := func(f int, thr float64, l, r float64) *ml.DecisionTree {
		return &ml.DecisionTree{Feature: []int{f, -1, -1}, Threshold: []float64{thr, 0, 0}, Left: []int{1, -1, -1}, Right: []int{2, -1, -1}, Value: []float64{0, l, r}, NFeat: 4}
	}
	pipes := map[string]*ml.Pipeline{
		"forest": {InputColumns: cols, Final: &ml.RandomForest{Trees: []*ml.DecisionTree{
			split(0, 0, 0.1, 0.7), split(1, 0, 0.2, 0.9), split(2, 0.5, 0.3, 0.6), split(3, 0.25, 0.4, 0.5), leaf(0.05),
		}}},
		"scaled logreg": {InputColumns: cols,
			Steps: []ml.Transformer{&ml.StandardScaler{Mean: []float64{0.5, 1, 0.5, 0}, Scale: []float64{2, 3, 1, 1}}},
			Final: &ml.LogisticRegression{W: []float64{0.3, -0.2, 0.9, 4}, B: -0.1}},
	}
	for name, pipe := range pipes {
		p := NewPipelinePredictor(pipe, types.Float)
		for _, n := range []int{9000, 0, 1, 65} {
			b := batch(n)
			data, _, err := b.FloatMatrix(cols)
			if err != nil {
				t.Fatal(err)
			}
			want, err := pipe.Predict(ml.Matrix{Data: data, Rows: n, Cols: len(cols)})
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.PredictBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			for r := range want {
				if math.Float64bits(got[0].Floats[r]) != math.Float64bits(want[r]) && !(math.IsNaN(want[r]) && math.IsNaN(got[0].Floats[r])) {
					t.Fatalf("%s, %d rows: row %d scores %v from the columns, %v from the matrix", name, n, r, got[0].Floats[r], want[r])
				}
			}
		}
	}
}
