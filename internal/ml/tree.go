package ml

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// DecisionTree is a fitted binary decision tree in array form (the layout
// scikit-learn uses). Internal node i tests Feature[i] <= Threshold[i]:
// true goes to Left[i], false to Right[i]. Leaves have Feature[i] == -1 and
// predict Value[i] (class-1 probability for classifiers, mean for
// regressors). Node 0 is the root.
type DecisionTree struct {
	Feature   []int
	Threshold []float64
	Left      []int
	Right     []int
	Value     []float64
	NFeat     int

	kern atomic.Pointer[kernel] // compiled on first Predict; see kernel.go
}

// Leaf reports whether node i is a leaf.
func (t *DecisionTree) Leaf(i int) bool { return t.Feature[i] < 0 }

// NumNodes returns the node count.
func (t *DecisionTree) NumNodes() int { return len(t.Feature) }

// Depth returns the maximum root-to-leaf depth, or -1 when the child
// links loop back on themselves (a corrupt model).
func (t *DecisionTree) Depth() int {
	if t.NumNodes() == 0 {
		return 0
	}
	const onPath = -1
	memo := make([]int, t.NumNodes()) // 0 unvisited, onPath, or depth below + 1
	var walk func(i int) int
	walk = func(i int) int {
		switch {
		case t.Leaf(i):
			return 0
		case memo[i] != 0:
			return memo[i] - 1 // onPath comes out negative: a cycle
		}
		memo[i] = onPath
		l, r := walk(t.Left[i]), walk(t.Right[i])
		if l < 0 || r < 0 {
			return -1
		}
		memo[i] = max(l, r) + 2
		return max(l, r) + 1
	}
	return walk(0)
}

// NumFeatures implements Model.
func (t *DecisionTree) NumFeatures() int { return t.NFeat }

// Kind implements Model.
func (t *DecisionTree) Kind() string { return "tree" }

func (t *DecisionTree) kernel() (*kernel, error) {
	return cachedKernel(&t.kern, []*DecisionTree{t}, false)
}

// Predict implements Model.
func (t *DecisionTree) Predict(in Matrix) ([]float64, error) { return predictAlloc(t, in) }

// PredictInto implements ModelInto.
func (t *DecisionTree) PredictInto(in Matrix, out []float64, sc *PredictScratch) error {
	return scoreMatrix(t, in, out, sc)
}

// UsedFeatures implements Model.
func (t *DecisionTree) UsedFeatures() []int { return usedFeatures([]*DecisionTree{t}) }

// usedFeatures returns the sorted set of features the trees split on.
func usedFeatures(trees []*DecisionTree) []int {
	seen := make(map[int]bool)
	for _, t := range trees {
		for _, f := range t.Feature {
			if f >= 0 {
				seen[f] = true
			}
		}
	}
	out := make([]int, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Ints(out)
	return out
}

// Interval is a closed range of feature values known to hold at scoring
// time (derived from query predicates or data statistics).
type Interval struct {
	Lo, Hi float64
}

// Point builds the degenerate interval [v, v] for equality predicates.
func Point(v float64) Interval { return Interval{Lo: v, Hi: v} }

// FullInterval covers all reals.
func FullInterval() Interval { return Interval{Lo: math.Inf(-1), Hi: math.Inf(1)} }

// Constraints maps feature ordinal to its known interval.
type Constraints map[int]Interval

// Prune returns a new tree with branches unreachable under the constraints
// removed — the paper's predicate-based model pruning (§4.1): a filter
// pregnant=1 makes the pregnant<=0 branch dead, so it is cut and the tree
// gets cheaper to evaluate (29% in the paper's example).
func (t *DecisionTree) Prune(c Constraints) *DecisionTree {
	nt := &DecisionTree{NFeat: t.NFeat}
	buildWith(t, nt, 0, c) // preorder: the surviving root is node 0
	return nt
}

func tighten(c Constraints, f int, thr float64, left bool) Constraints {
	out := make(Constraints, len(c)+1)
	for k, v := range c {
		out[k] = v
	}
	iv, ok := out[f]
	if !ok {
		iv = FullInterval()
	}
	if left && thr < iv.Hi {
		iv.Hi = thr
	}
	if !left && thr >= iv.Lo {
		// going right means x > thr; approximate open bound with nextafter
		iv.Lo = math.Nextafter(thr, math.Inf(1))
	}
	out[f] = iv
	return out
}

func buildWith(src, dst *DecisionTree, i int, c Constraints) int {
	if src.Leaf(i) {
		return dst.addLeaf(src.Value[i])
	}
	f, thr := src.Feature[i], src.Threshold[i]
	if iv, ok := c[f]; ok {
		if iv.Hi <= thr {
			return buildWith(src, dst, src.Left[i], c)
		}
		if iv.Lo > thr {
			return buildWith(src, dst, src.Right[i], c)
		}
	}
	self := dst.addSplit(f, thr, -1, -1)
	l := buildWith(src, dst, src.Left[i], tighten(c, f, thr, true))
	r := buildWith(src, dst, src.Right[i], tighten(c, f, thr, false))
	dst.Left[self], dst.Right[self] = l, r // after the appends below moved the arrays
	return self
}

func (t *DecisionTree) addLeaf(v float64) int {
	t.Feature = append(t.Feature, -1)
	t.Threshold = append(t.Threshold, 0)
	t.Left = append(t.Left, -1)
	t.Right = append(t.Right, -1)
	t.Value = append(t.Value, v)
	return len(t.Feature) - 1
}

func (t *DecisionTree) addSplit(f int, thr float64, l, r int) int {
	t.Feature = append(t.Feature, f)
	t.Threshold = append(t.Threshold, thr)
	t.Left = append(t.Left, l)
	t.Right = append(t.Right, r)
	t.Value = append(t.Value, 0)
	return len(t.Feature) - 1
}

// RemapFeatures renumbers feature ordinals via the given old→new map. Used
// after model-projection pushdown narrows the input matrix. Features absent
// from the map must be unused by the tree.
func (t *DecisionTree) RemapFeatures(remap map[int]int, newDim int) (*DecisionTree, error) {
	nt := &DecisionTree{
		Feature:   make([]int, len(t.Feature)),
		Threshold: append([]float64(nil), t.Threshold...),
		Left:      append([]int(nil), t.Left...),
		Right:     append([]int(nil), t.Right...),
		Value:     append([]float64(nil), t.Value...),
		NFeat:     newDim,
	}
	for i, f := range t.Feature {
		if f < 0 {
			nt.Feature[i] = -1
			continue
		}
		nf, ok := remap[f]
		if !ok {
			return nil, fmt.Errorf("ml: tree uses feature %d which the remap drops", f)
		}
		nt.Feature[i] = nf
	}
	return nt, nil
}

// RandomForest averages an ensemble of trees (bagging). Predict returns the
// mean of tree outputs, i.e. the class-1 probability for classification
// forests built from class-probability leaves.
type RandomForest struct {
	Trees []*DecisionTree

	kern atomic.Pointer[kernel] // compiled on first Predict; see kernel.go
}

// NumFeatures implements Model.
func (f *RandomForest) NumFeatures() int {
	if len(f.Trees) == 0 {
		return 0
	}
	return f.Trees[0].NFeat
}

// Kind implements Model.
func (f *RandomForest) Kind() string { return "forest" }

func (f *RandomForest) kernel() (*kernel, error) { return cachedKernel(&f.kern, f.Trees, true) }

// Predict implements Model.
func (f *RandomForest) Predict(in Matrix) ([]float64, error) { return predictAlloc(f, in) }

// PredictInto implements ModelInto.
func (f *RandomForest) PredictInto(in Matrix, out []float64, sc *PredictScratch) error {
	return scoreMatrix(f, in, out, sc)
}

// UsedFeatures implements Model.
func (f *RandomForest) UsedFeatures() []int { return usedFeatures(f.Trees) }

// FiniteLeaves reports whether the forest compiles and its leaves, and the
// sum of each tree's largest leaf magnitude, are finite: what a bound on
// its score (TopK) needs.
func (f *RandomForest) FiniteLeaves() bool {
	k, err := f.kernel()
	return err == nil && k.bounded
}

// Prune applies predicate-based pruning to every tree in the forest.
func (f *RandomForest) Prune(c Constraints) *RandomForest {
	out := &RandomForest{Trees: make([]*DecisionTree, len(f.Trees))}
	for i, t := range f.Trees {
		out.Trees[i] = t.Prune(c)
	}
	return out
}
