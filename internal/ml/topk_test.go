package ml

import (
	"cmp"
	"math"
	"slices"
	"testing"
)

// finiteLeaves sets every leaf of trees to one of 17 tenths in [-0.8,
// 0.8]: few values, so scores tie often, and none but 0 exact in binary,
// so sums round.
func finiteLeaves(trees []*DecisionTree, src *byteSrc) {
	for _, t := range trees {
		for i := range t.Value {
			if t.Leaf(i) {
				t.Value[i] = float64(int(src.next()%17)-8) / 10
			}
		}
	}
}

// checkTopK scores the rows of cols in calls of at most per rows, all
// under one TopK, the last call first when rev (as a parallel plan's
// workers may), and holds the survivors to the full kernel: every
// survivor's score equals kernel.score's bit for bit, and the k best rows
// under (score, row) order all survive. A forest the bound cannot cover
// must keep every row. It returns the survivor count.
func checkTopK(t testing.TB, f *RandomForest, cols [][]float64, n, per, k int, desc, rev bool) int {
	t.Helper()
	kern, err := f.kernel()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	if err := kern.score(cols, want, &PredictScratch{}); err != nil {
		t.Fatal(err)
	}
	tk, p, sc := NewTopK(k, desc), &Pipeline{Final: f}, &PredictScratch{}
	kept := make([]bool, n)
	survivors := 0
	for c := 0; c*per < n; c++ {
		lo := c * per
		if rev {
			lo = (n-1)/per*per - lo
		}
		hi := min(lo+per, n)
		part := make([][]float64, len(cols))
		for c := range cols {
			part[c] = cols[c][lo:hi]
		}
		keep, out, err := p.PredictColumnsTopK(part, hi-lo, tk, nil, nil, sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(keep) != len(out) || !slices.IsSorted(keep) {
			t.Fatalf("rows %d..%d: %d rows for %d scores, sorted %v", lo, hi, len(keep), len(out), slices.IsSorted(keep))
		}
		for i, r := range keep {
			if math.Float64bits(out[i]) != math.Float64bits(want[lo+r]) && !(out[i] != out[i] && want[lo+r] != want[lo+r]) {
				t.Fatalf("row %d: score %x, kernel %x", lo+r, math.Float64bits(out[i]), math.Float64bits(want[lo+r]))
			}
			kept[lo+r] = true
		}
		survivors += len(keep)
	}
	if !kern.bounded {
		if survivors != n {
			t.Fatalf("unbounded forest kept %d of %d rows", survivors, n)
		}
		return survivors
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sgn := 1.0
	if !desc {
		sgn = -1
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(sgn*want[b], sgn*want[a]), cmp.Compare(a, b))
	})
	for _, r := range order[:min(k, n)] {
		if !kept[r] {
			t.Fatalf("row %d (score %v) is among the %d best but was dropped", r, want[r], k)
		}
	}
	return survivors
}

// FuzzForestTopK draws a forest, rows, k, a direction and a call size from
// the input bytes and holds the bounded walk to the full kernel. The call
// size byte's top bit repeats the rows 16 times and multiplies the call
// size by 16, so calls cross scoreTopK's blocks. The checked-in corpus
// (testdata/fuzz/FuzzForestTopK) has three trees whose best rows tie at θ
// by the dozen, seven trees (1/7 is inexact) scored ascending in calls of
// 13 rows, and a forest whose k-th row a bound without kernel.hi's slack
// drops: its sum rounds above the bound's.
func FuzzForestTopK(f *testing.F) {
	f.Add([]byte{})
	f.Add(seededBytes(5, 600).b)
	f.Add(append([]byte{0x24, 0x97, 0x0a, 0xe0}, seededBytes(9, 200).b...)) // 2416 rows in calls of 1552
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSrc{b: data}
		shape, sizes := src.next(), src.next()
		nfeat, ntrees, depth := 1+int(shape&3), 2+int(shape>>2&7), int(shape>>5&7)
		rows, k, per := int(sizes)%200, int(src.next())%210, src.next()
		repeat := 1 + 15*int(per>>7)
		trees := make([]*DecisionTree, ntrees)
		for i := range trees {
			trees[i] = src.tree(nfeat, depth, src.next())
		}
		if src.next()&7 != 0 { // mostly finite leaves; the rest keep src's specials
			finiteLeaves(trees, src)
		}
		cols := make([][]float64, nfeat)
		for c := range cols {
			cols[c] = make([]float64, rows*repeat)
			for r := range rows {
				cols[c][r] = src.float()
			}
			for r := rows; r < len(cols[c]); r++ {
				cols[c][r] = cols[c][r-rows]
			}
		}
		checkTopK(t, &RandomForest{Trees: trees}, cols, rows*repeat, (1+int(per&0x7f)%97)*repeat, k, sizes&1 == 1, sizes&2 == 2)
	})
}

// TestForestTopKPrunes: on a forest shaped like the benchmark's, the bound
// must leave most rows unfinished, or the exactness checks above prove
// nothing about it.
func TestForestTopKPrunes(t *testing.T) {
	f, cols := probabilityForest(20_000)
	for _, desc := range []bool{true, false} {
		if kept := checkTopK(t, f, cols, 20_000, 4096, 100, desc, !desc); kept > 2_000 {
			t.Errorf("desc %v: %d of 20000 rows kept for k = 100", desc, kept)
		}
	}
}

// probabilityForest is benchmarkForestKernel's 16-tree depth-8 forest over
// 9 features, its leaves redrawn as probabilities in [0, 1] (a NaN leaf
// leaves nothing to bound), and rows of features.
func probabilityForest(rows int) (*RandomForest, [][]float64) {
	src := seededBytes(11, 1<<20)
	f := &RandomForest{}
	for i := 0; i < 16; i++ {
		f.Trees = append(f.Trees, src.tree(9, 8, 0))
	}
	for _, t := range f.Trees {
		for i := range t.Value {
			if t.Leaf(i) {
				t.Value[i] = float64(src.next()) / 255
			}
		}
	}
	cols := make([][]float64, 9)
	for c := range cols {
		cols[c] = make([]float64, rows)
		for r := range cols[c] {
			cols[c][r] = (float64(src.next()) - 128) / 16
		}
	}
	return f, cols
}
