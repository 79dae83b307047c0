package train

import (
	"math"
	"math/rand"
	"testing"

	"raven/internal/ml"
)

// synthBinary builds a linearly-separable-ish binary dataset where only the
// first two of d features matter.
func synthBinary(n, d int, seed int64) (ml.Matrix, []float64) {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n*d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := data[i*d : (i+1)*d]
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		z := 2*row[0] - 1.5*row[1] + 0.3*rng.NormFloat64()
		if z > 0 {
			y[i] = 1
		}
	}
	return ml.Matrix{Data: data, Rows: n, Cols: d}, y
}

func accuracy(pred, y []float64) float64 {
	correct := 0
	for i := range pred {
		p := 0.0
		if pred[i] > 0.5 {
			p = 1
		}
		if p == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}

func TestFitTreeLearnsSignal(t *testing.T) {
	x, y := synthBinary(2000, 5, 1)
	tree := FitTree(x, y, TreeOptions{MaxDepth: 6, MinLeaf: 10})
	pred, err := tree.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(pred, y); acc < 0.85 {
		t.Errorf("tree training accuracy = %v, want >= 0.85", acc)
	}
	if tree.Depth() > 6 {
		t.Errorf("depth = %d exceeds max", tree.Depth())
	}
	// Informative features should dominate.
	uf := tree.UsedFeatures()
	if len(uf) == 0 || uf[0] != 0 {
		t.Errorf("UsedFeatures = %v", uf)
	}
}

func TestFitTreePureLeaves(t *testing.T) {
	// Constant labels -> single leaf.
	x, _ := synthBinary(100, 3, 2)
	y := make([]float64, 100)
	tree := FitTree(x, y, TreeOptions{})
	if tree.NumNodes() != 1 || !tree.Leaf(0) || tree.Value[0] != 0 {
		t.Errorf("constant-label tree has %d nodes", tree.NumNodes())
	}
}

func TestFitTreeRegression(t *testing.T) {
	// y = step function of x0.
	n := 1000
	data := make([]float64, n)
	y := make([]float64, n)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		data[i] = rng.Float64() * 10
		if data[i] > 5 {
			y[i] = 7
		} else {
			y[i] = 2
		}
	}
	x := ml.Matrix{Data: data, Rows: n, Cols: 1}
	tree := FitTree(x, y, TreeOptions{Regression: true, MaxDepth: 3, MinLeaf: 5})
	pred, _ := tree.Predict(x)
	var mse float64
	for i := range pred {
		d := pred[i] - y[i]
		mse += d * d
	}
	mse /= float64(n)
	if mse > 0.01 {
		t.Errorf("regression tree MSE = %v", mse)
	}
}

func TestFitForestBeatsOrMatchesSingleTreeShape(t *testing.T) {
	x, y := synthBinary(1500, 5, 4)
	forest := FitForest(x, y, ForestOptions{NumTrees: 8, Seed: 7, Tree: TreeOptions{MaxDepth: 6, MinLeaf: 10}})
	if len(forest.Trees) != 8 {
		t.Fatalf("NumTrees = %d", len(forest.Trees))
	}
	pred, err := forest.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(pred, y); acc < 0.85 {
		t.Errorf("forest accuracy = %v", acc)
	}
	// Determinism: same seed, same forest.
	forest2 := FitForest(x, y, ForestOptions{NumTrees: 8, Seed: 7, Tree: TreeOptions{MaxDepth: 6, MinLeaf: 10}})
	p2, _ := forest2.Predict(x)
	for i := range pred {
		if pred[i] != p2[i] {
			t.Fatal("forest training is not deterministic for fixed seed")
		}
	}
}

func TestFitLogRegAccuracyAndL1Sparsity(t *testing.T) {
	x, y := synthBinary(3000, 20, 5)
	dense := FitLogReg(x, y, LogRegOptions{Epochs: 15, Seed: 1})
	pred, err := dense.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(pred, y); acc < 0.9 {
		t.Errorf("dense logreg accuracy = %v", acc)
	}
	sparse := FitLogReg(x, y, LogRegOptions{Epochs: 15, Seed: 1, L1: 0.02})
	if sparse.Sparsity() <= dense.Sparsity() {
		t.Errorf("L1 did not increase sparsity: %v vs %v", sparse.Sparsity(), dense.Sparsity())
	}
	// Only 2 features carry signal; strong L1 should zero many of the 18
	// noise features.
	if sparse.Sparsity() < 0.5 {
		t.Errorf("sparsity = %v, want >= 0.5 on 90%% noise features", sparse.Sparsity())
	}
	sp, _ := sparse.Predict(x)
	if acc := accuracy(sp, y); acc < 0.85 {
		t.Errorf("sparse logreg accuracy = %v", acc)
	}
}

func TestAUC(t *testing.T) {
	// Perfect ranking.
	if got := AUC([]float64{0.1, 0.2, 0.8, 0.9}, []float64{0, 0, 1, 1}); got != 1 {
		t.Errorf("perfect AUC = %v", got)
	}
	// Inverted ranking.
	if got := AUC([]float64{0.9, 0.8, 0.2, 0.1}, []float64{0, 0, 1, 1}); got != 0 {
		t.Errorf("inverted AUC = %v", got)
	}
	// All ties -> 0.5.
	if got := AUC([]float64{0.5, 0.5, 0.5, 0.5}, []float64{0, 1, 0, 1}); got != 0.5 {
		t.Errorf("tied AUC = %v", got)
	}
	// Degenerate labels -> 0.5.
	if got := AUC([]float64{0.1, 0.9}, []float64{1, 1}); got != 0.5 {
		t.Errorf("single-class AUC = %v", got)
	}
}

func TestFitMLP(t *testing.T) {
	x, y := synthBinary(2000, 4, 6)
	m := FitMLP(x, y, MLPOptions{Hidden: []int{8}, Epochs: 8, LR: 0.05, Seed: 2, Classifier: true})
	pred, err := m.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(pred, y); acc < 0.85 {
		t.Errorf("mlp accuracy = %v", acc)
	}
	if m.Dims[0] != 4 || m.Dims[len(m.Dims)-1] != 1 {
		t.Errorf("dims = %v", m.Dims)
	}
}

func TestFitMLPRegression(t *testing.T) {
	// y = 3*x0, easy regression.
	n := 500
	data := make([]float64, n)
	y := make([]float64, n)
	rng := rand.New(rand.NewSource(9))
	for i := range data {
		data[i] = rng.Float64()
		y[i] = 3 * data[i]
	}
	x := ml.Matrix{Data: data, Rows: n, Cols: 1}
	m := FitMLP(x, y, MLPOptions{Hidden: []int{8}, Epochs: 40, LR: 0.05, Seed: 3})
	pred, _ := m.Predict(x)
	var mse float64
	for i := range pred {
		d := pred[i] - y[i]
		mse += d * d
	}
	mse /= float64(n)
	if mse > 0.05 {
		t.Errorf("mlp regression MSE = %v", mse)
	}
}

func TestKMeansSeparatesClusters(t *testing.T) {
	// Two well-separated blobs.
	n := 400
	data := make([]float64, n*2)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		cx := 0.0
		if i >= n/2 {
			cx = 10
		}
		data[i*2] = cx + rng.NormFloat64()*0.5
		data[i*2+1] = rng.NormFloat64() * 0.5
	}
	x := ml.Matrix{Data: data, Rows: n, Cols: 2}
	km := FitKMeans(x, KMeansOptions{K: 2, Seed: 1})
	if km.K() != 2 {
		t.Fatalf("K = %d", km.K())
	}
	assign := km.Assign(x)
	// All first-half rows in one cluster, second half in the other.
	for i := 1; i < n/2; i++ {
		if assign[i] != assign[0] {
			t.Fatalf("blob 1 split between clusters at %d", i)
		}
	}
	for i := n/2 + 1; i < n; i++ {
		if assign[i] != assign[n/2] {
			t.Fatalf("blob 2 split between clusters at %d", i)
		}
	}
	if assign[0] == assign[n/2] {
		t.Fatal("blobs merged")
	}
}

func TestKMeansConstantFeatures(t *testing.T) {
	// Feature 1 is the cluster id itself: constant within each cluster.
	n := 200
	data := make([]float64, n*2)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < n; i++ {
		c := float64(i % 2)
		data[i*2] = c*20 + rng.NormFloat64()*0.1
		data[i*2+1] = c
	}
	x := ml.Matrix{Data: data, Rows: n, Cols: 2}
	km := FitKMeans(x, KMeansOptions{K: 2, Seed: 5})
	assign := km.Assign(x)
	consts := km.ConstantFeatures(x, assign, assign[0], 1e-9)
	v, ok := consts[1]
	if !ok {
		t.Fatalf("feature 1 should be constant in cluster, got %v", consts)
	}
	if v != 0 && v != 1 {
		t.Errorf("constant value = %v", v)
	}
	// Empty cluster id out of range -> empty map.
	if got := km.ConstantFeatures(x, assign, 99, 1e-9); len(got) != 0 {
		t.Errorf("empty cluster consts = %v", got)
	}
}

func TestKMeansMoreClustersThanRows(t *testing.T) {
	x := ml.Matrix{Data: []float64{1, 2, 3}, Rows: 3, Cols: 1}
	km := FitKMeans(x, KMeansOptions{K: 10, Seed: 1})
	if km.K() != 3 {
		t.Errorf("K clamped to %d, want 3", km.K())
	}
}

func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	n := 300
	rng := rand.New(rand.NewSource(17))
	data := make([]float64, n*2)
	for i := range data {
		data[i] = rng.Float64() * 100
	}
	x := ml.Matrix{Data: data, Rows: n, Cols: 2}
	inertia := func(km *KMeans) float64 {
		assign := km.Assign(x)
		var s float64
		for i := 0; i < n; i++ {
			c := assign[i]
			s += sqDist(x.Row(i), km.Centroids.Data[c*2:(c+1)*2])
		}
		return s
	}
	i2 := inertia(FitKMeans(x, KMeansOptions{K: 2, Seed: 3}))
	i8 := inertia(FitKMeans(x, KMeansOptions{K: 8, Seed: 3}))
	if !(i8 < i2) || math.IsNaN(i8) {
		t.Errorf("inertia did not decrease: k=2 %v, k=8 %v", i2, i8)
	}
}
