package ml

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// TopK is one execution's bound on a tree ensemble whose score feeds only
// the first key of ORDER BY score LIMIT k: the threshold algorithm (Fagin,
// Lotem & Naor, PODS 2001) as early exit for an additive ensemble
// (Cambazoglu et al., WSDM 2010). θ is the k-th best score among rows
// already scored and kept, over all the calls that share the TopK; a row
// whose score provably falls strictly below θ is not among the k best
// whatever the later sort keys say, so it is neither finished nor kept.
// Ties at θ are kept. θ only rises, and a TopK must not outlive the
// execution whose rows set it.
type TopK struct {
	k    int
	desc bool
	// theta holds θ's float64 bits as a key: the score when desc, its
	// negation when ascending, so a better row always has a larger key.
	theta atomic.Uint64
}

// NewTopK returns the bound for the k best scores, largest first when
// desc. With k = 0 no row is kept.
func NewTopK(k int, desc bool) *TopK {
	t := &TopK{k: k, desc: desc}
	t.theta.Store(math.Float64bits(math.Inf(-1)))
	return t
}

func (t *TopK) load() float64 { return math.Float64frombits(t.theta.Load()) }

// raise publishes th as θ unless θ is already as high.
func (t *TopK) raise(th float64) {
	for {
		old := t.theta.Load()
		if math.Float64frombits(old) >= th || t.theta.CompareAndSwap(old, math.Float64bits(th)) {
			return
		}
	}
}

// keyHeap is a min-heap of the best keys one call has kept.
type keyHeap []float64

// offer keeps key if it is among the k best offered so far, and returns
// the k-th best once k are held.
func (h *keyHeap) offer(key float64, k int) (float64, bool) {
	s := *h
	switch {
	case len(s) < k:
		s = append(s, key)
		for i := len(s) - 1; i > 0 && s[(i-1)/2] > s[i]; i = (i - 1) / 2 {
			s[i], s[(i-1)/2] = s[(i-1)/2], s[i]
		}
	case key > s[0]:
		s[0] = key
		for i := 0; ; {
			c := 2*i + 1
			if c+1 < len(s) && s[c+1] < s[c] {
				c++
			}
			if c >= len(s) || s[i] <= s[c] {
				break
			}
			s[i], s[c] = s[c], s[i]
			i = c
		}
	}
	*h = s
	return s[0], len(s) == k
}

// PredictColumnsTopK is PredictColumns under tk for n rows: it appends
// the numbers of the rows tk cannot exclude to keep and their scores to
// out, in row order, and each score equals PredictColumns' bit for bit. A
// pipeline whose model is not a tree ensemble with finite leaves keeps
// and scores every row.
func (p *Pipeline) PredictColumnsTopK(cols [][]float64, n int, tk *TopK, keep []int, out []float64, sc *PredictScratch) ([]int, []float64, error) {
	var k *kernel
	if m, ok := p.Final.(kernelled); ok {
		var err error
		if k, err = m.kernel(); err != nil {
			return nil, nil, err
		}
	}
	if k == nil || !k.bounded {
		out = slices.Grow(out, n)[:len(out)+n]
		for r := range n {
			keep = append(keep, r)
		}
		return keep, out, p.PredictColumns(cols, out[len(out)-n:], sc)
	}
	sc.heap = sc.heap[:0]
	if len(p.Steps) == 0 {
		return k.scoreTopK(cols, 1, n, 0, tk, keep, out, sc)
	}
	err := chunks(cols, n, sc, func(lo int, m Matrix) (err error) {
		if m, err = p.featurize(m, sc); err != nil {
			return err
		}
		keep, out, err = k.scoreTopK(matrixCols(m, sc), m.Cols, m.Rows, lo, tk, keep, out, sc)
		return err
	})
	return keep, out, err
}

// scoreTopK is score under tk, one tree at a time: after each tree a row
// stays only while its leaf sum so far plus what the remaining trees can
// add (kernel.hi or lo) may still reach θ. A row that finishes every tree
// summed its leaves in tree order, as score does, so its score is score's
// bit for bit. It appends the kept rows' numbers, counted from base, and
// their scores.
func (k *kernel) scoreTopK(cols [][]float64, stride, n, base int, tk *TopK, keep []int, out []float64, sc *PredictScratch) ([]int, []float64, error) {
	if len(cols) != k.nfeat {
		return nil, nil, fmt.Errorf("ml: tree expects %d features, got %d", k.nfeat, len(cols))
	}
	if tk.k <= 0 {
		return keep, out, nil
	}
	bnd, sgn := k.hi, 1.0
	if !tk.desc {
		bnd, sgn = k.lo, -1
	}
	tile, nodes, value, inv := k.tile(sc), k.nodes, k.value, k.inv
	var (
		at   [kernelTile]uint32
		live [kernelTile]uint8 // the tile rows still in play, ascending
		acc  [kernelTile]float64
	)
	th := tk.load()
	for lo := 0; lo < n; lo += kernelTile {
		m := min(kernelTile, n-lo)
		k.gather(cols, stride, lo, m, tile)
		th = max(th, tk.load())
		act := live[:m]
		for j := range act {
			act[j], acc[j] = uint8(j), k.init
		}
		for ti, t := range k.trees {
			for j := range act {
				at[j] = t.root
			}
			for d := t.depth; d > 0; d-- {
				for j, r := range act {
					nd := &nodes[at[j]]
					at[j] = nd.kids[b2i(tile[int(nd.feat)*kernelTile+int(r)] <= nd.thr)&1]
				}
			}
			b, w := bnd[ti+1], 0
			for j, r := range act {
				a := acc[r] + value[at[j]]
				acc[r] = a
				if sgn*((a+b)*inv) >= th {
					act[w] = r
					w++
				}
			}
			if act = act[:w]; w == 0 {
				break
			}
		}
		for _, r := range act {
			s := acc[r] * inv
			keep, out = append(keep, base+lo+int(r)), append(out, s)
			if kth, full := sc.heap.offer(sgn*s, tk.k); full {
				th = max(th, kth)
			}
		}
		tk.raise(th)
	}
	return keep, out, nil
}
