package bench

import (
	"math"
	"math/rand"
	"testing"

	"raven/internal/ml"
)

func TestClusteredModelMatchesFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := 8
	n := 400
	sample := make([]float64, n*d)
	for i := 0; i < n; i++ {
		c := float64(i % 4)
		for j := 0; j < d; j++ {
			if j < 3 {
				sample[i*d+j] = c * 10 // constant within cluster, well separated
			} else {
				sample[i*d+j] = rng.NormFloat64()
			}
		}
	}
	sm := ml.Matrix{Data: sample, Rows: n, Cols: d}
	w := make([]float64, d)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	lr := &ml.LogisticRegression{W: w, B: 0.2}
	// An encoder with no categorical columns: clustering of the bare LR.
	cm, err := BuildClusteredEncodedModel(&ml.OneHotEncoder{InputDim: d}, lr, sm, 4, 1e-9, 7)
	if err != nil {
		t.Fatal(err)
	}
	if cm.AvgActiveTerms() >= float64(d) {
		t.Errorf("clustering pinned nothing: avg active terms = %v", cm.AvgActiveTerms())
	}
	want, err := lr.Predict(sm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cm.Predict(sm)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		diff := want[i] - got[i]
		if diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("clustered model diverges at %d: %v vs %v", i, want[i], got[i])
		}
	}
	if cm.K() != 4 {
		t.Errorf("K = %d, want 4", cm.K())
	}
}

func TestClusteredModelWidthMismatch(t *testing.T) {
	lr := &ml.LogisticRegression{W: []float64{1, 2}}
	enc := &ml.OneHotEncoder{InputDim: len(lr.W)}
	if _, err := BuildClusteredEncodedModel(enc, lr, ml.Matrix{Rows: 1, Cols: 3, Data: []float64{1, 2, 3}}, 2, 1e-9, 1); err == nil {
		t.Error("width mismatch should fail")
	}
}

func TestRoutingFeaturesDegenerate(t *testing.T) {
	// single-cluster model has no routing features
	sample := ml.Matrix{Data: []float64{1, 2, 3, 4}, Rows: 2, Cols: 2}
	lr := &ml.LogisticRegression{W: []float64{1, 1}}
	cm, err := BuildClusteredEncodedModel(&ml.OneHotEncoder{InputDim: 2}, lr, sample, 1, 1e-9, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cm.Predict(sample)
	if err != nil || len(p) != 2 {
		t.Fatal(p, err)
	}
	want, _ := lr.Predict(sample)
	for i := range want {
		if math.Abs(want[i]-p[i]) > 1e-12 {
			t.Errorf("k=1 clustered diverges at %d", i)
		}
	}
}

func TestClusteredEncodedModelMatchesPipeline(t *testing.T) {
	// 2 numerics + 2 cats with group structure
	const n, d, groups = 600, 4, 4
	raw := make([]float64, n*d)
	for i := 0; i < n; i++ {
		g := i % groups
		raw[i*d] = float64(i%7) * 0.5
		raw[i*d+1] = float64(i%5) * 0.25
		raw[i*d+2] = float64(g)
		raw[i*d+3] = float64(g % 2)
	}
	rawM := ml.Matrix{Data: raw, Rows: n, Cols: d}
	enc := ml.FitOneHot(rawM, []int{2, 3})
	encd, err := enc.Transform(rawM)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, encd.Cols)
	for j := range w {
		w[j] = 0.1 * float64(j%5)
	}
	lr := &ml.LogisticRegression{W: w, B: -0.3}
	want, err := lr.Predict(encd)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := BuildClusteredEncodedModel(enc, lr, rawM, groups, 1e-9, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cm.Predict(rawM)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-9 {
			t.Fatalf("clustered-encoded diverges at %d: %v vs %v", i, want[i], got[i])
		}
	}
	if cm.K() != groups {
		t.Errorf("K = %d", cm.K())
	}
	if cm.AvgActiveTerms() >= float64(d) {
		t.Errorf("nothing specialized: %v", cm.AvgActiveTerms())
	}
}

func TestClusteredEncodedModelValidation(t *testing.T) {
	enc := &ml.OneHotEncoder{Cols: []int{0}, Categories: [][]float64{{0, 1}}, InputDim: 1}
	lr := &ml.LogisticRegression{W: []float64{1}} // wrong width (encoder yields 2)
	if _, err := BuildClusteredEncodedModel(enc, lr, ml.Matrix{Data: []float64{0, 1}, Rows: 2, Cols: 1}, 2, 1e-9, 1); err == nil {
		t.Error("width mismatch should fail")
	}
}
