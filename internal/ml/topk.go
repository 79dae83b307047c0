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
		return k.scoreTopK(cols, n, 0, tk, keep, out, sc)
	}
	err := chunks(cols, n, sc, func(lo int, m Matrix) (err error) {
		if m, err = p.featurize(m, sc); err != nil {
			return err
		}
		x, err := k.columns(m, sc)
		if err == nil {
			keep, out, err = k.scoreTopK(x, m.Rows, lo, tk, keep, out, sc)
		}
		return err
	})
	return keep, out, err
}

// topKBlock is scoreTopK's block, smaller than score's because θ rises
// only between blocks: on TestForestTopKPrunes' forest, 4,096-row blocks
// keep 4,511 of 20,000 rows and 1,024-row ones 1,655; 512 keeps fewer but
// runs BenchmarkForestTopK/bound slower.
const topKBlock = 1024

// scoreTopK is score under tk: after each tree, a row stays live only
// while its leaf sum so far plus what the remaining trees can add
// (kernel.hi or lo) may still reach θ, and the next tree walks only the
// live rows. A row that finishes every tree summed its leaves in tree
// order, as score does, so its score is score's bit for bit. It appends
// the kept rows' numbers, counted from base, and their scores.
func (k *kernel) scoreTopK(cols [][]float64, n, base int, tk *TopK, keep []int, out []float64, sc *PredictScratch) ([]int, []float64, error) {
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
	inv, th := k.inv, tk.load()
	sc.acc = slices.Grow(sc.acc[:0], topKBlock)[:topKBlock]
	for lo := 0; lo < n; lo += topKBlock {
		m := min(topKBlock, n-lo)
		th = max(th, tk.load())
		live, acc := sc.rows(m), sc.acc[:m] // live stays ascending
		for j := range acc {
			acc[j] = k.init
		}
		for ti, root := range k.roots {
			k.walk(root, cols, lo, live, acc, sc)
			b, w := bnd[ti+1], 0
			for _, r := range live {
				if sgn*((acc[r]+b)*inv) >= th {
					live[w] = r
					w++
				}
			}
			if live = live[:w]; w == 0 {
				break
			}
		}
		for _, r := range live {
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
