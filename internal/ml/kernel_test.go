package ml

import (
	"fmt"
	"math"
	"testing"
)

// refScore is the traversal the kernel replaced, kept as the oracle: per
// tree, follow Left/Right from the root to a leaf; a forest sums in tree
// order from 0 and scales by 1/len once.
func refScore(trees []*DecisionTree, forest bool, row []float64) float64 {
	leaf := func(t *DecisionTree) float64 {
		n := 0
		for !t.Leaf(n) {
			if row[t.Feature[n]] <= t.Threshold[n] {
				n = t.Left[n]
			} else {
				n = t.Right[n]
			}
		}
		return t.Value[n]
	}
	if !forest {
		return leaf(trees[0])
	}
	s := 0.0
	for _, t := range trees {
		s += leaf(t)
	}
	return s * (1 / float64(len(trees)))
}

// byteSrc deals out the bytes of a fuzz input (or of a seeded stream),
// then zeros, so every input builds something.
type byteSrc struct {
	b []byte
	i int
}

func (s *byteSrc) next() byte {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return s.b[s.i-1]
}

// specials are the values a comparison treats differently from ordinary
// ones; thresholds and features both draw from them.
var specials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1, -1, 0.5, math.MaxFloat64, math.SmallestNonzeroFloat64}

func (s *byteSrc) float() float64 {
	b := s.next()
	if int(b) < len(specials) {
		return specials[b]
	}
	return (float64(b) - 128) / 16
}

// tree builds a tree of at most maxDepth from src: a byte below leafBias
// ends a branch early, so low biases give full trees and high ones
// unbalanced ones.
func (s *byteSrc) tree(nfeat, maxDepth int, leafBias byte) *DecisionTree {
	t := &DecisionTree{NFeat: nfeat}
	var build func(d int) int
	build = func(d int) int {
		if d == 0 || nfeat == 0 || s.next() < leafBias {
			return t.addLeaf(s.float())
		}
		self := t.addSplit(int(s.next())%nfeat, s.float(), -1, -1)
		l := build(d - 1)
		r := build(d - 1)
		t.Left[self], t.Right[self] = l, r
		return self
	}
	build(maxDepth)
	return t
}

func seededBytes(seed uint64, n int) *byteSrc {
	b := make([]byte, n)
	for i := range b {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		b[i] = byte(seed >> 32)
	}
	return &byteSrc{b: b}
}

// checkKernel scores rows×nfeat values from src through both public entry
// points of a pipeline holding the model — Predict on the row-major matrix
// and PredictColumns on one slice per column — and requires each score to
// equal the reference walker's bit for bit.
func checkKernel(t testing.TB, label string, trees []*DecisionTree, forest bool, rows int, src *byteSrc) {
	t.Helper()
	nfeat := trees[0].NFeat
	in := Matrix{Data: make([]float64, rows*nfeat), Rows: rows, Cols: nfeat}
	for i := range in.Data {
		in.Data[i] = src.float()
	}
	cols := make([][]float64, nfeat)
	for f := range cols {
		cols[f] = make([]float64, rows)
		for r := range cols[f] {
			cols[f][r] = in.At(r, f)
		}
	}
	m := &Pipeline{Final: trees[0]}
	if forest {
		m.Final = &RandomForest{Trees: trees}
	}
	byMatrix, err := m.Predict(in)
	if err != nil {
		t.Fatalf("%s: Predict: %v", label, err)
	}
	byColumn := make([]float64, rows)
	if err := m.PredictColumns(cols, byColumn, &PredictScratch{}); err != nil {
		t.Fatalf("%s: PredictColumns: %v", label, err)
	}
	// Same bits, -0 and +0 apart; NaN scores (NaN or opposite-infinity
	// leaves) only have to be NaN, since which payload an addition keeps is
	// the instruction's operand order, not arithmetic.
	same := func(got, want float64) bool {
		return math.Float64bits(got) == math.Float64bits(want) || (got != got && want != want)
	}
	for r := 0; r < rows; r++ {
		want := refScore(trees, forest, in.Row(r))
		if !same(byMatrix[r], want) {
			t.Fatalf("%s: row %d of %d, matrix layout: %x, reference %x", label, r, rows, math.Float64bits(byMatrix[r]), math.Float64bits(want))
		}
		if !same(byColumn[r], want) {
			t.Fatalf("%s: row %d of %d, column layout: %x, reference %x", label, r, rows, math.Float64bits(byColumn[r]), math.Float64bits(want))
		}
	}
}

func TestForestKernelBitIdentical(t *testing.T) {
	src := seededBytes(7, 1<<20)
	const nfeat = 6
	var mixed []*DecisionTree
	for i := 0; i < 5; i++ {
		mixed = append(mixed, src.tree(nfeat, 0, 0), src.tree(nfeat, 1, 0), src.tree(nfeat, 12, 90), src.tree(nfeat, 5, 20))
	}
	pruned := (&RandomForest{Trees: mixed}).Prune(Constraints{0: Point(1), 3: {Lo: -2, Hi: 0.25}}).Trees
	var remapped []*DecisionTree
	for _, tr := range mixed {
		// Reverse the feature order into a wider matrix.
		rt, err := tr.RemapFeatures(map[int]int{0: 7, 1: 6, 2: 5, 3: 4, 4: 3, 5: 2}, 8)
		if err != nil {
			t.Fatal(err)
		}
		remapped = append(remapped, rt)
	}
	leafOnly := []*DecisionTree{src.tree(0, 0, 0), src.tree(0, 0, 0)}
	shapes := map[string][]*DecisionTree{"mixed": mixed, "pruned": pruned, "remapped": remapped, "zero-features": leafOnly}
	for name, trees := range shapes {
		for _, rows := range []int{0, 1, 3, 63, 64, 65, 1000} {
			checkKernel(t, name+" forest", trees, true, rows, src)
			for i, tr := range trees[:min(4, len(trees))] {
				checkKernel(t, fmt.Sprintf("%s tree %d", name, i), []*DecisionTree{tr}, false, rows, src)
			}
		}
	}
}

// TestKernelRejectsCorruptTrees: models arrive from outside (POST /model),
// so links the walk cannot follow must come back as errors, not as a
// panic, a hang or a stack overflow.
func TestKernelRejectsCorruptTrees(t *testing.T) {
	corrupt := map[string]func(*DecisionTree){
		"child out of range":   func(tr *DecisionTree) { tr.Right[0] = len(tr.Feature) },
		"negative child":       func(tr *DecisionTree) { tr.Left[0] = -1 },
		"feature out of range": func(tr *DecisionTree) { tr.Feature[0] = tr.NFeat },
		"cycle":                func(tr *DecisionTree) { tr.Left[1] = 0 },
		"ragged arrays":        func(tr *DecisionTree) { tr.Value = tr.Value[:1] },
		"no nodes":             func(tr *DecisionTree) { *tr = DecisionTree{NFeat: 3} },
	}
	in := Matrix{Data: make([]float64, 6), Rows: 2, Cols: 3}
	for name, breakIt := range corrupt {
		tr := exampleTree()
		breakIt(tr)
		if _, err := tr.Predict(in); err == nil {
			t.Errorf("%s: tree scored", name)
		}
		if _, err := (&RandomForest{Trees: []*DecisionTree{exampleTree(), tr}}).Predict(in); err == nil {
			t.Errorf("%s: forest scored", name)
		}
	}
	narrow := &DecisionTree{NFeat: 2}
	narrow.addLeaf(1)
	if _, err := (&RandomForest{Trees: []*DecisionTree{exampleTree(), narrow}}).Predict(in); err == nil {
		t.Error("forest of trees with different widths scored")
	}
}

// FuzzForestKernel builds a small forest and matrix from the input bytes
// and holds the kernel to the reference walker; the first byte picks the
// shape.
func FuzzForestKernel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x23, 200, 1, 0, 200, 2, 3, 0, 0, 0, 9, 9})
	f.Add(seededBytes(3, 400).b)
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSrc{b: data}
		shape := src.next()
		nfeat, ntrees, rows := int(shape&3), 1+int(shape>>2&3), int(src.next())%70
		trees := make([]*DecisionTree, ntrees)
		for i := range trees {
			trees[i] = src.tree(nfeat, int(shape>>4&7), src.next())
		}
		checkKernel(t, "fuzz", trees, shape>>7 == 1, rows, src)
	})
}

func benchmarkForestKernel(b *testing.B, nfeat int) {
	const rows = 4096
	src := seededBytes(11, 1<<20)
	f := &RandomForest{}
	for i := 0; i < 16; i++ {
		f.Trees = append(f.Trees, src.tree(nfeat, 8, 0))
	}
	in := Matrix{Data: make([]float64, rows*nfeat), Rows: rows, Cols: nfeat}
	cols := make([][]float64, nfeat)
	for c := range cols {
		cols[c] = make([]float64, rows)
		for r := range cols[c] {
			cols[c][r] = (float64(src.next()) - 128) / 16
			in.Data[r*nfeat+c] = cols[c][r]
		}
	}
	out, sc := make([]float64, rows), &PredictScratch{}
	run := func(name string, score func() error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := score(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
	run("columns", func() error { return (&Pipeline{Final: f}).PredictColumns(cols, out, sc) })
	run("matrix", func() error { return f.PredictInto(in, out, sc) })
}

// The benchmark's two forest shapes: 16 trees of depth 8 over the 9
// hospital features and over the 64 flight features.
func BenchmarkForestKernelHospital9(b *testing.B) { benchmarkForestKernel(b, 9) }
func BenchmarkForestKernelFlights64(b *testing.B) { benchmarkForestKernel(b, 64) }
