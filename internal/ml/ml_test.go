package ml

import (
	"math"
	"testing"
	"testing/quick"
)

func mustMatrix(t *testing.T, data []float64, rows, cols int) Matrix {
	t.Helper()
	m, err := NewMatrix(data, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// exampleTree builds the running-example-shaped tree (Fig 1):
//
//	pregnant <= 0 ?  (feature 0)
//	  yes -> age <= 35 ? (feature 1)  2 : 4
//	  no  -> bp <= 140 ? (feature 2)  4 : 7
func exampleTree() *DecisionTree {
	t := &DecisionTree{NFeat: 3}
	root := t.addSplit(0, 0, -1, -1)
	l := t.addSplit(1, 35, -1, -1)
	ll := t.addLeaf(2)
	lr := t.addLeaf(4)
	t.Left[l], t.Right[l] = ll, lr
	r := t.addSplit(2, 140, -1, -1)
	rl := t.addLeaf(4)
	rr := t.addLeaf(7)
	t.Left[r], t.Right[r] = rl, rr
	t.Left[root], t.Right[root] = l, r
	return t
}

func TestTreePredict(t *testing.T) {
	tr := exampleTree()
	in := mustMatrix(t, []float64{
		0, 30, 100, // not pregnant(<=0), young -> 2
		0, 40, 100, // not pregnant, old -> 4
		1, 99, 120, // pregnant, bp low -> 4
		1, 99, 150, // pregnant, bp high -> 7
	}, 4, 3)
	got, err := tr.Predict(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 4, 4, 7}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("pred[%d] = %v, want %v", i, got[i], w)
		}
	}
	if _, err := tr.Predict(mustMatrix(t, []float64{1}, 1, 1)); err == nil {
		t.Error("width mismatch should fail")
	}
}

func TestTreePruneEquality(t *testing.T) {
	tr := exampleTree()
	// pregnant = 1 kills the left branch (pregnant<=0).
	pruned := tr.Prune(Constraints{0: Point(1)})
	if pruned.NumNodes() >= tr.NumNodes() {
		t.Fatalf("prune did not shrink: %d -> %d nodes", tr.NumNodes(), pruned.NumNodes())
	}
	// Pruned tree must agree with original on all pregnant=1 inputs.
	in := mustMatrix(t, []float64{1, 20, 100, 1, 50, 180}, 2, 3)
	a, _ := tr.Predict(in)
	b, _ := pruned.Predict(in)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("pruned tree diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// The gender/age feature of the dead branch is gone.
	for _, f := range pruned.UsedFeatures() {
		if f == 1 {
			t.Error("feature 1 (dead branch) still used after pruning")
		}
	}
}

func TestTreePruneRange(t *testing.T) {
	tr := exampleTree()
	// bp > 140 (derived predicate) removes the bp test on the right.
	pruned := tr.Prune(Constraints{2: {Lo: 140.0000001, Hi: math.Inf(1)}})
	in := mustMatrix(t, []float64{1, 20, 150, 0, 20, 141}, 2, 3)
	a, _ := tr.Predict(in)
	b, _ := pruned.Predict(in)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("range-pruned diverges at %d", i)
		}
	}
	if pruned.NumNodes() >= tr.NumNodes() {
		t.Error("range prune did not shrink tree")
	}
}

func TestTreePruneNestedSameFeature(t *testing.T) {
	// x0 <= 10 ? (x0 <= 5 ? 1 : 2) : 3 with constraint x0 in [6,8]:
	// outer goes left, inner goes right -> constant 2.
	tr := &DecisionTree{NFeat: 1}
	root := tr.addSplit(0, 10, -1, -1)
	inner := tr.addSplit(0, 5, -1, -1)
	a := tr.addLeaf(1)
	b := tr.addLeaf(2)
	tr.Left[inner], tr.Right[inner] = a, b
	c := tr.addLeaf(3)
	tr.Left[root], tr.Right[root] = inner, c
	pruned := tr.Prune(Constraints{0: {Lo: 6, Hi: 8}})
	if pruned.NumNodes() != 1 || !pruned.Leaf(0) || pruned.Value[0] != 2 {
		t.Fatalf("expected single leaf 2, got %d nodes", pruned.NumNodes())
	}
}

// Property: for random trees and random constraint-satisfying inputs,
// pruned trees agree with the original.
func TestTreePrunePreservesSemantics(t *testing.T) {
	f := func(seed int64) bool {
		r := newRng(seed)
		tr := randomTree(r, 5, 4)
		c := Constraints{0: Point(1)}
		pruned := tr.Prune(c)
		for trial := 0; trial < 20; trial++ {
			row := make([]float64, 5)
			row[0] = 1
			for j := 1; j < 5; j++ {
				row[j] = r.next() * 100
			}
			in := Matrix{Data: row, Rows: 1, Cols: 5}
			a, err1 := tr.Predict(in)
			b, err2 := pruned.Predict(in)
			if err1 != nil || err2 != nil || a[0] != b[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

type rng struct{ s uint64 }

func newRng(seed int64) *rng {
	u := uint64(seed)
	if u == 0 {
		u = 0x9e3779b97f4a7c15
	}
	return &rng{s: u}
}

func (r *rng) next() float64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return float64(r.s%10000)/10000 - 0.5
}

func randomTree(r *rng, nfeat, depth int) *DecisionTree {
	t := &DecisionTree{NFeat: nfeat}
	var build func(d int) int
	build = func(d int) int {
		if d == 0 || r.next() < -0.3 {
			return t.addLeaf(float64(int(r.next()*10) % 5))
		}
		f := int(math.Abs(r.next()*100)) % nfeat
		thr := r.next() * 50
		self := t.addSplit(f, thr, -1, -1)
		l := build(d - 1)
		rr := build(d - 1)
		t.Left[self], t.Right[self] = l, rr
		return self
	}
	build(depth) // preorder: the root is node 0
	return t
}

func TestTreeRemapFeatures(t *testing.T) {
	tr := exampleTree()
	remapped, err := tr.RemapFeatures(map[int]int{0: 0, 1: 1, 2: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	in := mustMatrix(t, []float64{1, 99, 150}, 1, 3)
	a, _ := tr.Predict(in)
	b, _ := remapped.Predict(in)
	if a[0] != b[0] {
		t.Error("identity remap changed predictions")
	}
	if _, err := tr.RemapFeatures(map[int]int{0: 0}, 1); err == nil {
		t.Error("remap dropping used feature should fail")
	}
}

func TestTreeDepthAndUsedFeatures(t *testing.T) {
	tr := exampleTree()
	if tr.Depth() != 2 {
		t.Errorf("Depth = %d", tr.Depth())
	}
	uf := tr.UsedFeatures()
	if len(uf) != 3 || uf[0] != 0 || uf[2] != 2 {
		t.Errorf("UsedFeatures = %v", uf)
	}
}

func TestForestPredictIsTreeAverage(t *testing.T) {
	f := &RandomForest{Trees: []*DecisionTree{exampleTree(), exampleTree()}}
	in := mustMatrix(t, []float64{1, 99, 150}, 1, 3)
	p, err := f.Predict(in)
	if err != nil {
		t.Fatal(err)
	}
	if p[0] != 7 {
		t.Errorf("forest of identical trees = %v, want 7", p[0])
	}
	if f.NumFeatures() != 3 {
		t.Errorf("NumFeatures = %d", f.NumFeatures())
	}
	pruned := f.Prune(Constraints{0: Point(1)})
	pp, _ := pruned.Predict(in)
	if pp[0] != 7 {
		t.Errorf("pruned forest = %v", pp[0])
	}
	empty := &RandomForest{}
	if _, err := empty.Predict(in); err == nil {
		t.Error("empty forest should fail")
	}
}

func TestLinearAndLogisticRegression(t *testing.T) {
	lr := &LinearRegression{W: []float64{2, 0, -1}, B: 0.5}
	in := mustMatrix(t, []float64{1, 9, 2}, 1, 3)
	p, err := lr.Predict(in)
	if err != nil || p[0] != 2*1-1*2+0.5 {
		t.Errorf("linreg = %v, err %v", p, err)
	}
	if uf := lr.UsedFeatures(); len(uf) != 2 || uf[0] != 0 || uf[1] != 2 {
		t.Errorf("linreg UsedFeatures = %v", uf)
	}

	lg := &LogisticRegression{W: []float64{0, 0, 0}, B: 0}
	p2, err := lg.Predict(in)
	if err != nil || p2[0] != 0.5 {
		t.Errorf("logreg zero = %v, err %v", p2, err)
	}
	if _, err := lg.Predict(mustMatrix(t, []float64{1}, 1, 1)); err == nil {
		t.Error("width mismatch should fail")
	}
}

func TestLogRegSparsityCompactPin(t *testing.T) {
	lg := &LogisticRegression{W: []float64{1, 0, 0, 2, 0}, B: 0.1}
	if s := lg.Sparsity(); s != 0.6 {
		t.Errorf("Sparsity = %v", s)
	}
	compact, kept := lg.Compact()
	if len(kept) != 2 || kept[0] != 0 || kept[1] != 3 {
		t.Fatalf("kept = %v", kept)
	}
	in5 := mustMatrix(t, []float64{1, 9, 9, 2, 9}, 1, 5)
	in2 := mustMatrix(t, []float64{1, 2}, 1, 2)
	a, _ := lg.Predict(in5)
	b, _ := compact.Predict(in2)
	if math.Abs(a[0]-b[0]) > 1e-12 {
		t.Errorf("compact diverges: %v vs %v", a[0], b[0])
	}

	pinned, kept2 := lg.PinFeatures(map[int]float64{0: 1})
	if len(kept2) != 4 {
		t.Fatalf("kept after pin = %v", kept2)
	}
	in4 := mustMatrix(t, []float64{9, 9, 2, 9}, 1, 4)
	c, _ := pinned.Predict(in4)
	if math.Abs(a[0]-c[0]) > 1e-12 {
		t.Errorf("pinned diverges: %v vs %v", a[0], c[0])
	}
}

func TestMLPPredict(t *testing.T) {
	// 2-2-1 network, hand-checkable: hidden = relu(x·W1+b1), out = hidden·W2+b2.
	m := &MLP{
		Dims:    []int{2, 2, 1},
		Weights: [][]float64{{1, -1, 0, 1}, {1, 1}},
		Biases:  [][]float64{{0, 0}, {0.5}},
	}
	in := mustMatrix(t, []float64{1, 2}, 1, 2)
	// hidden = relu([1*1+2*0, 1*-1+2*1]) = [1, 1]; out = 1+1+0.5 = 2.5
	p, err := m.Predict(in)
	if err != nil || p[0] != 2.5 {
		t.Fatalf("mlp = %v, err %v", p, err)
	}
	m.Classifier = true
	p2, _ := m.Predict(in)
	want := 1 / (1 + math.Exp(-2.5))
	if math.Abs(p2[0]-want) > 1e-12 {
		t.Errorf("classifier mlp = %v, want %v", p2[0], want)
	}
	if uf := m.UsedFeatures(); len(uf) != 2 {
		t.Errorf("UsedFeatures = %v", uf)
	}
}

func TestScaler(t *testing.T) {
	in := mustMatrix(t, []float64{0, 10, 2, 10, 4, 10}, 3, 2)
	s := FitScaler(in)
	if s.Mean[0] != 2 || s.Mean[1] != 10 {
		t.Errorf("Mean = %v", s.Mean)
	}
	if s.Scale[1] != 1 {
		t.Error("constant column should get scale 1")
	}
	out, err := s.Transform(in)
	if err != nil {
		t.Fatal(err)
	}
	// column 0: values (0,2,4), std = sqrt(8/3)
	want := -2 / math.Sqrt(8.0/3.0)
	if math.Abs(out.At(0, 0)-want) > 1e-12 {
		t.Errorf("scaled = %v, want %v", out.At(0, 0), want)
	}
	if out.At(1, 1) != 0 {
		t.Error("constant column should center to 0")
	}
	if _, err := s.Transform(mustMatrix(t, []float64{1}, 1, 1)); err == nil {
		t.Error("width mismatch should fail")
	}
	if d, _ := s.OutputDim(2); d != 2 {
		t.Error("scaler OutputDim")
	}
}

func TestOneHotEncoder(t *testing.T) {
	// columns: [num, cat]; cat values 5, 7.
	in := mustMatrix(t, []float64{1.5, 5, 2.5, 7, 3.5, 5}, 3, 2)
	e := FitOneHot(in, []int{1})
	if len(e.Categories[0]) != 2 || e.Categories[0][0] != 5 || e.Categories[0][1] != 7 {
		t.Fatalf("Categories = %v", e.Categories)
	}
	out, err := e.Transform(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cols != 3 {
		t.Fatalf("out width = %d", out.Cols)
	}
	// row 0: [1.5, 1, 0]; row 1: [2.5, 0, 1]
	if out.At(0, 0) != 1.5 || out.At(0, 1) != 1 || out.At(0, 2) != 0 {
		t.Errorf("row0 = %v", out.Row(0))
	}
	if out.At(1, 1) != 0 || out.At(1, 2) != 1 {
		t.Errorf("row1 = %v", out.Row(1))
	}
	// unknown category -> all-zero block
	u := mustMatrix(t, []float64{9, 999}, 1, 2)
	ou, _ := e.Transform(u)
	if ou.At(0, 1) != 0 || ou.At(0, 2) != 0 {
		t.Errorf("unknown category row = %v", ou.Row(0))
	}

	idx, err := e.OutputIndexOfCategory(2, 1, 7)
	if err != nil || idx != 2 {
		t.Errorf("OutputIndexOfCategory = %d, %v", idx, err)
	}
	lo, hi, err := e.IndicatorRange(2, 1)
	if err != nil || lo != 1 || hi != 3 {
		t.Errorf("IndicatorRange = [%d,%d), %v", lo, hi, err)
	}
	p, err := e.PassthroughOutputIndex(0)
	if err != nil || p != 0 {
		t.Errorf("PassthroughOutputIndex = %d, %v", p, err)
	}
	if _, err := e.OutputIndexOfCategory(2, 0, 5); err == nil {
		t.Error("non-categorical column should fail")
	}
	if _, err := e.OutputIndexOfCategory(2, 1, 42); err == nil {
		t.Error("unknown category should fail")
	}
}

func TestColumnSelectAndUnion(t *testing.T) {
	in := mustMatrix(t, []float64{1, 2, 3, 4, 5, 6}, 2, 3)
	cs := &ColumnSelect{Indices: []int{2, 0}}
	out, err := cs.Transform(in)
	if err != nil || out.At(0, 0) != 3 || out.At(1, 1) != 4 {
		t.Errorf("select = %v, err %v", out, err)
	}
	if _, err := (&ColumnSelect{Indices: []int{9}}).Transform(in); err == nil {
		t.Error("oob select should fail")
	}

	u := &FeatureUnion{Parts: []Transformer{cs, &ColumnSelect{Indices: []int{1}}}}
	uo, err := u.Transform(in)
	if err != nil || uo.Cols != 3 {
		t.Fatalf("union = %v, err %v", uo, err)
	}
	if uo.At(0, 2) != 2 {
		t.Errorf("union row0 = %v", uo.Row(0))
	}
	if d, _ := u.OutputDim(3); d != 3 {
		t.Error("union OutputDim")
	}
}

func TestPipelinePredictAndValidate(t *testing.T) {
	// scale 1 column then logistic regression.
	scaler := &StandardScaler{Mean: []float64{10}, Scale: []float64{2}}
	lg := &LogisticRegression{W: []float64{1}, B: 0}
	p := &Pipeline{Steps: []Transformer{scaler}, Final: lg, InputColumns: []string{"x"}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	in := mustMatrix(t, []float64{12}, 1, 1)
	got, err := p.Predict(in)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (1 + math.Exp(-1.0)) // (12-10)/2 = 1
	if math.Abs(got[0]-want) > 1e-12 {
		t.Errorf("pipeline = %v, want %v", got[0], want)
	}

	bad := &Pipeline{Steps: nil, Final: &LogisticRegression{W: []float64{1, 1}}, InputColumns: []string{"x"}}
	if err := bad.Validate(); err == nil {
		t.Error("width-mismatched pipeline should fail validation")
	}
	if err := (&Pipeline{}).Validate(); err == nil {
		t.Error("pipeline without model should fail validation")
	}
}

func TestPipelineMarshalRoundTrip(t *testing.T) {
	in := mustMatrix(t, []float64{1.5, 5, 2.5, 7, 3.5, 5}, 3, 2)
	enc := FitOneHot(in, []int{1})
	p := &Pipeline{
		Steps:        []Transformer{enc, &StandardScaler{Mean: []float64{0, 0, 0}, Scale: []float64{1, 1, 1}}},
		Final:        exampleTree(),
		InputColumns: []string{"num", "cat"},
	}
	data, err := Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Predict(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.Predict(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("round trip diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if len(q.InputColumns) != 2 {
		t.Errorf("InputColumns = %v", q.InputColumns)
	}
	if _, err := Marshal(&Pipeline{}); err == nil {
		t.Error("marshal of model-less pipeline should fail")
	}
	if _, err := Unmarshal([]byte("garbage")); err == nil {
		t.Error("unmarshal of garbage should fail")
	}
}

func TestNewMatrixValidation(t *testing.T) {
	if _, err := NewMatrix([]float64{1, 2, 3}, 2, 2); err == nil {
		t.Error("bad dims should fail")
	}
}
