package ml

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// kernel is a tree ensemble compiled for scoring: every tree's nodes in
// one packed array, walked a block of rows at a time by partitioning the
// block's row numbers node by node, without a data-dependent branch. It
// is the only tree traversal in the package; DecisionTree and
// RandomForest build theirs on first use and keep it.
type kernel struct {
	nodes []kernelNode
	value []float64 // value[i] is node i's leaf score
	roots []uint32  // each tree's root, in tree order
	nfeat int
	used  []uint32 // the features some node splits on: what a block gathers
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
// both its kids are itself: that is how the walk knows it.
type kernelNode struct {
	thr  float64
	feat uint32
	kids [2]uint32 // [1] when x <= thr, [0] otherwise (NaN included)
}

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
		if t.Depth() < 0 {
			return nil, fmt.Errorf("ml: tree %d: child links form a cycle", ti)
		}
		k.value = append(k.value, t.Value...)
		k.roots = append(k.roots, base)
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

// kernelBlock is how many rows the walk partitions at once: their numbers
// fit a uint16, and a block's sums (32 KiB) stay in L1.
const kernelBlock = 4096

// segment is rows lo..hi-1 of partition buffer buf, all standing on node.
type segment struct{ node, lo, hi, buf uint32 }

// walk adds the leaf value a tree gives each row r of live to acc[r],
// reading feature f of row r at x[f][base+r]. It goes depth first from
// root over segments of row numbers: a node moves its segment's rows into
// the other buffer, split by x <= thr, and hands each part to its child; a
// leaf adds its value to its rows' sums. No row steps past its leaf, and a
// step reads one feature value, not a node per row.
func (k *kernel) walk(root uint32, x [][]float64, base int, live []uint16, acc []float64, sc *PredictScratch) {
	bufs := [2][]uint16{sc.part[0][:len(live)], sc.part[1][:len(live)]}
	copy(bufs[0], live)
	stack := append(sc.stack[:0], segment{node: root, hi: uint32(len(live))})
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		src, nd := bufs[s.buf&1][s.lo:s.hi], &k.nodes[s.node]
		if nd.kids[0] == s.node { // a leaf
			v := k.value[s.node]
			for _, r := range src {
				acc[r] += v
			}
			continue
		}
		mid := s.lo + partition(src, bufs[(s.buf^1)&1][s.lo:s.hi], x[nd.feat][base:], nd.thr)
		if mid < s.hi {
			stack = append(stack, segment{nd.kids[0], mid, s.hi, s.buf ^ 1})
		}
		if mid > s.lo {
			stack = append(stack, segment{nd.kids[1], s.lo, mid, s.buf ^ 1})
		}
	}
	sc.stack = stack
}

// partition moves the rows of src into dst, those r with xf[r] <= thr to
// the front and the rest (NaN included) to the back, and returns how many
// went to the front. Each row is written at both ends and the end its
// comparison picks advances, so no branch depends on the data. Inlined
// into walk, the loop's counters spill to the stack.
//
//go:noinline
func partition(src, dst []uint16, xf []float64, thr float64) uint32 {
	i, j := 0, len(dst)-1
	for _, r := range src {
		dst[i], dst[j] = r, r
		le := int(b2i(xf[r] <= thr))
		i += le
		j += le - 1
	}
	return uint32(i)
}

// rows sizes sc's row-number buffers for blocks of n rows and returns the
// live list, holding 0..n-1.
func (sc *PredictScratch) rows(n int) []uint16 {
	for i := range sc.part {
		sc.part[i] = slices.Grow(sc.part[i][:0], n)[:n]
	}
	sc.live = slices.Grow(sc.live[:0], n)[:n]
	for r := range sc.live {
		sc.live[r] = uint16(r)
	}
	return sc.live
}

// score writes one score per element of out; feature f of row r is
// cols[f][r]. Rows are scored a block at a time, one tree after another,
// so each row adds its leaves in tree order.
func (k *kernel) score(cols [][]float64, out []float64, sc *PredictScratch) error {
	if len(cols) != k.nfeat {
		return fmt.Errorf("ml: tree expects %d features, got %d", k.nfeat, len(cols))
	}
	for lo := 0; lo < len(out); lo += kernelBlock {
		acc, live := out[lo:min(lo+kernelBlock, len(out))], sc.rows(min(kernelBlock, len(out)-lo))
		for j := range acc {
			acc[j] = k.init
		}
		for _, root := range k.roots {
			k.walk(root, cols, lo, live, acc, sc)
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

// scoreMatrix scores a row-major matrix through the same walk, gathering
// its rows into columns first, as many rows at a time as keep the
// gathered features within 1 MiB: L2 holds them while every tree walks.
func scoreMatrix(m kernelled, in Matrix, out []float64, sc *PredictScratch) error {
	k, err := m.kernel()
	if err != nil {
		return err
	}
	size := min(kernelBlock, max(64, (1<<20)/(8*max(len(k.used), 1))))
	for lo := 0; lo == 0 || lo < in.Rows; lo += size { // no rows: columns still checks the width
		hi := min(lo+size, in.Rows)
		cols, err := k.columns(Matrix{Data: in.Data[lo*in.Cols : hi*in.Cols], Rows: hi - lo, Cols: in.Cols}, sc)
		if err == nil {
			err = k.score(cols, out[lo:hi], sc)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// columns gathers the features some node splits on from a row-major
// matrix into sc's columns, 64 rows at a time so the rows being read stay
// in L1. Only sc's own memory is left in sc.cols.
func (k *kernel) columns(m Matrix, sc *PredictScratch) ([][]float64, error) {
	if m.Cols != k.nfeat {
		return nil, fmt.Errorf("ml: tree expects %d features, got %d", k.nfeat, m.Cols)
	}
	sc.block = slices.Grow(sc.block[:0], len(k.used)*m.Rows)[:len(k.used)*m.Rows]
	sc.cols = slices.Grow(sc.cols[:0], m.Cols)[:m.Cols]
	for i, f := range k.used {
		sc.cols[f] = sc.block[i*m.Rows : (i+1)*m.Rows]
	}
	for lo := 0; lo < m.Rows; lo += 64 {
		for _, f := range k.used {
			c, x := sc.cols[f][lo:min(lo+64, m.Rows)], m.Data[lo*m.Cols+int(f):]
			for j := range c {
				c[j] = x[j*m.Cols]
			}
		}
	}
	return sc.cols, nil
}
