package ml

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// kernel is a tree ensemble compiled for scoring: every tree's nodes in
// one packed array, walked a tile of rows at a time without a
// data-dependent branch. It is the only tree traversal in the package;
// DecisionTree and RandomForest build theirs on first use and keep it.
type kernel struct {
	nodes []kernelNode
	value []float64 // value[i] is node i's leaf score
	trees []kernelTree
	nfeat int
	used  []uint32 // the features some node splits on: what a tile gathers
	// A row's score is (init + v0 + v1 + ...) * inv over its leaf values in
	// tree order. A forest starts from 0 and scales by 1/len(trees); a lone
	// tree starts from -0, the one float x + y leaves every x unchanged
	// by, bit for bit, so its score is the leaf value itself.
	init, inv float64
	// hi[t] (lo[t]) is at least (at most) what trees t.. can still add to a
	// row's sum: the sum of each one's largest (smallest) leaf, widened by
	// 4·T·ε times the sum of the trees' largest leaf magnitudes — more than
	// twice the rounding the sums being compared can carry. hi[T] = lo[T] =
	// 0: the sum is then exact. bounded is false when a leaf or those sums
	// are not finite, and the top-k walk then scores every row.
	hi, lo  []float64
	bounded bool
}

// kernelNode is one node. A leaf tests feature 0, whatever it holds, and
// both its kids are itself: a walk of any length that reaches it stays.
type kernelNode struct {
	thr  float64
	feat uint32
	kids [2]uint32 // [1] when x <= thr, [0] otherwise (NaN included)
}

type kernelTree struct{ root, depth uint32 }

// compileKernel packs trees, rejecting what the walk could not survive:
// child links or features out of range, and links that loop.
func compileKernel(trees []*DecisionTree, forest bool) (*kernel, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("ml: empty forest")
	}
	k := &kernel{nfeat: trees[0].NFeat, init: math.Copysign(0, -1), inv: 1}
	if forest {
		k.init, k.inv = 0, 1/float64(len(trees))
	}
	k.hi, k.lo = make([]float64, len(trees)+1), make([]float64, len(trees)+1)
	var mag float64
	for ti, t := range trees {
		n, base := len(t.Feature), uint32(len(k.nodes))
		if n == 0 || len(t.Threshold) != n || len(t.Left) != n || len(t.Right) != n || len(t.Value) != n || t.NFeat != k.nfeat {
			return nil, fmt.Errorf("ml: tree %d: no nodes, ragged node arrays or a width other than tree 0's %d", ti, k.nfeat)
		}
		for i, f := range t.Feature {
			self := base + uint32(i)
			nd := kernelNode{kids: [2]uint32{self, self}}
			if f >= 0 {
				l, r := t.Left[i], t.Right[i]
				if f >= t.NFeat || uint(l) >= uint(n) || uint(r) >= uint(n) {
					return nil, fmt.Errorf("ml: tree %d node %d: feature or child out of range", ti, i)
				}
				nd = kernelNode{thr: t.Threshold[i], feat: uint32(f), kids: [2]uint32{base + uint32(r), base + uint32(l)}}
				k.used = append(k.used, uint32(f))
			}
			k.nodes = append(k.nodes, nd)
		}
		depth := t.Depth()
		if depth < 0 {
			return nil, fmt.Errorf("ml: tree %d: child links form a cycle", ti)
		}
		k.value = append(k.value, t.Value...)
		k.trees = append(k.trees, kernelTree{root: base, depth: uint32(depth)})
		hi, lo := math.Inf(-1), math.Inf(1)
		for i, v := range t.Value {
			if t.Leaf(i) {
				hi, lo = max(hi, v), min(lo, v)
			}
		}
		k.hi[ti], k.lo[ti] = hi, lo
		mag += max(math.Abs(hi), math.Abs(lo)) // NaN or +Inf from any non-finite leaf
	}
	slack := 4 * float64(len(trees)) * 0x1p-52 * mag
	for t := len(trees) - 1; t >= 0; t-- {
		k.hi[t] += k.hi[t+1]
		k.lo[t] += k.lo[t+1]
	}
	for t := range trees {
		k.hi[t] += slack
		k.lo[t] -= slack
	}
	k.bounded = !math.IsInf(mag, 0) && !math.IsNaN(mag)
	slices.Sort(k.used)
	k.used = slices.Compact(k.used)
	return k, nil
}

// cachedKernel returns the kernel kept in slot, compiling it on first use.
// Racing first uses each compile the same kernel and one of them stays.
func cachedKernel(slot *atomic.Pointer[kernel], trees []*DecisionTree, forest bool) (*kernel, error) {
	if k := slot.Load(); k != nil {
		return k, nil
	}
	k, err := compileKernel(trees, forest)
	if err == nil {
		slot.Store(k)
	}
	return k, err
}

// b2i compiles to a flag-to-register move, not a branch.
func b2i(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// kernelTile is how many rows are scored against every tree before moving
// on: their features are gathered once into a dense tile that stays in L1
// across the trees.
const kernelTile = 64

// tile returns sc's tile, grown to hold a tile of every feature.
func (k *kernel) tile(sc *PredictScratch) []float64 {
	if cap(sc.tile) < k.nfeat*kernelTile {
		sc.tile = make([]float64, k.nfeat*kernelTile)
	}
	return sc.tile[:k.nfeat*kernelTile]
}

// gather copies rows lo..lo+n-1 of the features some node splits on into
// the tile, feature f at tile[f*kernelTile:].
func (k *kernel) gather(cols [][]float64, stride, lo, n int, tile []float64) {
	for _, f := range k.used {
		c, t := cols[f], tile[int(f)*kernelTile:]
		for j := range n {
			t[j] = c[(lo+j)*stride]
		}
	}
}

// score writes one score per element of out. Feature f of row r is
// cols[f][r*stride]: stride 1 reads one slice per column, stride d the
// columns of a row-major matrix d wide. The layout ends at the gather that
// fills the tile; the walk reads only the tile. Every row of the tile
// takes one step down a tree before any takes the next, for the tree's
// full depth: the steps of a level are independent loads the CPU overlaps,
// and none of them is a branch it could mispredict.
func (k *kernel) score(cols [][]float64, stride int, out []float64, sc *PredictScratch) error {
	if len(cols) != k.nfeat {
		return fmt.Errorf("ml: tree expects %d features, got %d", k.nfeat, len(cols))
	}
	tile, nodes, value := k.tile(sc), k.nodes, k.value
	var cur [kernelTile]uint32
	for lo := 0; lo < len(out); lo += kernelTile {
		acc := out[lo:min(lo+kernelTile, len(out))]
		at := cur[:len(acc)] // the node each row of the tile stands on
		k.gather(cols, stride, lo, len(acc), tile)
		for j := range acc {
			acc[j] = k.init
		}
		for _, t := range k.trees {
			for j := range at {
				at[j] = t.root
			}
			for d := t.depth; d > 0; d-- {
				for j, n := range at {
					nd := &nodes[n]
					at[j] = nd.kids[b2i(tile[int(nd.feat)*kernelTile+j] <= nd.thr)&1]
				}
			}
			for j, n := range at {
				acc[j] += value[n]
			}
		}
	}
	for i := range out {
		out[i] *= k.inv
	}
	return nil
}

// kernelled is DecisionTree and RandomForest: the models that score
// through a kernel.
type kernelled interface{ kernel() (*kernel, error) }

// scoreMatrix scores a row-major matrix through the same walk: column f
// is in.Data[f:] read at stride in.Cols.
func scoreMatrix(m kernelled, in Matrix, out []float64, sc *PredictScratch) error {
	k, err := m.kernel()
	if err != nil {
		return err
	}
	if in.Cols != k.nfeat {
		return fmt.Errorf("ml: tree expects %d features, got %d", k.nfeat, in.Cols)
	}
	if in.Rows == 0 {
		return nil
	}
	return k.score(matrixCols(in, sc), in.Cols, out[:in.Rows], sc)
}

// matrixCols views a row-major matrix as one slice per column, each read
// at stride in.Cols.
func matrixCols(in Matrix, sc *PredictScratch) [][]float64 {
	cols := sc.cols[:0]
	for f := 0; f < in.Cols; f++ {
		cols = append(cols, in.Data[f:])
	}
	sc.cols = cols
	return cols
}
