package bench

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"raven"
	"raven/internal/data"
	"raven/internal/ml"
	"raven/internal/rt"
	"raven/internal/train"
	"raven/internal/types"
)

func wireBatchOf(t *testing.T, n int) *types.Batch {
	t.Helper()
	b := types.NewBatch(types.NewSchema(
		types.Column{Name: "id", Type: types.Int},
		types.Column{Name: "a", Type: types.Float},
		types.Column{Name: "b", Type: types.Float},
	))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		if err := b.AppendRow(int64(i), rng.Float64()*10, rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func TestOutOfProcessPredictor(t *testing.T) {
	b := wireBatchOf(t, 50)
	pipe := &ml.Pipeline{Final: &ml.LogisticRegression{W: []float64{1, -0.5}, B: 0.2}, InputColumns: []string{"a", "b"}}
	inner := rt.NewPipelinePredictor(pipe, types.Float)
	want, err := inner.PredictBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	p := &OutOfProcessPredictor{Inner: inner, Startup: 30 * time.Millisecond, Ctx: context.Background()}
	start := time.Now()
	got, err := p.PredictBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if first := time.Since(start); first < 30*time.Millisecond {
		t.Errorf("startup latency not charged: %v", first)
	}
	for i, w := range want[0].Floats {
		if got[0].Floats[i] != w {
			t.Fatalf("score %d: %v across the boundary, %v in process", i, got[0].Floats[i], w)
		}
	}
	start = time.Now()
	if _, err := p.PredictBatch(b); err != nil {
		t.Fatal(err)
	}
	if second := time.Since(start); second > 25*time.Millisecond {
		t.Errorf("startup charged twice: %v", second)
	}
}

// TestContextInterruptsExternalStartup: a cancelled context interrupts the
// simulated runtime's boot instead of waiting it out.
func TestContextInterruptsExternalStartup(t *testing.T) {
	b := wireBatchOf(t, 50)
	pipe := &ml.Pipeline{Final: &ml.LogisticRegression{W: []float64{1, -0.5}, B: 0.2}, InputColumns: []string{"a", "b"}}
	inner := rt.NewPipelinePredictor(pipe, types.Float)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	slow := &OutOfProcessPredictor{Inner: inner, Startup: 2 * time.Second, Ctx: ctx}
	start := time.Now()
	if _, err := slow.PredictBatch(b); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("cancellation waited out the startup: %v", waited)
	}
}

func TestBatchWireRoundTrip(t *testing.T) {
	b := wireBatchOf(t, 10)
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

// TestExternalScoresMatchKernel: the Raven Ext baseline scores every row
// of the PREDICT's DATA, in order, exactly as the engine's own kernel
// does for the same query with the cross optimizer off.
func TestExternalScoresMatchKernel(t *testing.T) {
	db := raven.MustOpen()
	h, err := data.GenHospital(db.Catalog(), 3000, 2000, 42)
	if err != nil {
		t.Fatal(err)
	}
	tree := train.FitTree(h.TrainX, h.TrainY, train.TreeOptions{MaxDepth: 5, MinLeaf: 10})
	if err := db.StoreModel("m", &ml.Pipeline{Final: tree, InputColumns: h.FeatureCols}); err != nil {
		t.Fatal(err)
	}
	dataSQL := hospitalData(2500)
	res, err := db.QueryWithOptions(`SELECT p.score FROM PREDICT(MODEL='m', DATA=(`+dataSQL+`) AS d) WITH (score FLOAT) AS p`,
		raven.QueryOptions{CrossOptimize: false, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ScoreExternal(context.Background(), db, dataSQL, "m", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Batch.Col("score").Floats
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("external scored %d rows, the kernel %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: external %v, kernel %v", i, got[i], want[i])
		}
	}
}
