package bench

import (
	"fmt"
	"math"
	"sort"

	"raven/internal/ml"
	"raven/internal/train"
)

// routingFeatures picks the r features with the largest spread across
// centroids — enough to discriminate clusters at a fraction of a full
// d-dimensional distance computation.
func routingFeatures(km *train.KMeans, r int) []int {
	k, d := km.Centroids.Rows, km.Centroids.Cols
	if k <= 1 || d == 0 {
		return nil
	}
	type fv struct {
		f int
		v float64
	}
	spread := make([]fv, d)
	for j := 0; j < d; j++ {
		mean := 0.0
		for c := 0; c < k; c++ {
			mean += km.Centroids.At(c, j)
		}
		mean /= float64(k)
		v := 0.0
		for c := 0; c < k; c++ {
			dv := km.Centroids.At(c, j) - mean
			v += dv * dv
		}
		spread[j] = fv{j, v}
	}
	sort.Slice(spread, func(a, b int) bool { return spread[a].v > spread[b].v })
	if r > d {
		r = d
	}
	out := make([]int, r)
	for i := 0; i < r; i++ {
		out[i] = spread[i].f
	}
	sort.Ints(out)
	return out
}

// ClusteredEncodedModel implements the paper's model clustering (§4.1)
// for the one-hot-encode + logistic-regression pipeline, the flight-delay
// shape of Fig 2(b); an encoder with no categorical columns makes it
// clustering of a bare logistic regression. k-means partitions the data
// offline, and each row routes to its cluster's precompiled scorer.
// Specialization happens in *raw* space: categorical columns that
// are constant within a cluster contribute a fixed weight folded into the
// cluster model's bias, so the specialized scorer neither encodes nor
// multiplies them. Non-constant categorical columns score through a
// category→weight lookup, skipping indicator materialization entirely —
// the precompiled form of "dropping features from the model".
type ClusteredEncodedModel struct {
	Enc      *ml.OneHotEncoder
	Fallback *ml.LogisticRegression // over the encoded space
	KM       *train.KMeans          // over the raw space
	// RouteFeats: raw feature ordinals used for centroid routing (the
	// fallback when RouteMap misses).
	RouteFeats []int
	// RouteCol/RouteMap: O(1) routing on the strongest clustering column —
	// rows are assigned by the value of that column, precomputed from the
	// sample (the practical "which precompiled model applies" lookup).
	RouteCol int
	RouteMap map[float64]int
	Specs    []EncSpec
	// catIndex[ci] maps a raw category value to its ordinal within
	// Enc.Categories[ci].
	catIndex []map[float64]int
}

// EncSpec is one cluster's precompiled scorer.
type EncSpec struct {
	Bias float64
	// PassCols/PassW: non-constant passthrough (numeric) columns.
	PassCols []int
	PassW    []float64
	// CatCols: non-constant categorical columns (index into Enc.Cols);
	// CatW[i][k] is the weight of category k of that column.
	CatCols []int
	CatW    [][]float64
}

// BuildClusteredEncodedModel clusters a raw-space sample and precompiles a
// specialized scorer per cluster.
func BuildClusteredEncodedModel(enc *ml.OneHotEncoder, lr *ml.LogisticRegression, rawSample ml.Matrix, k int, eps float64, seed int64) (*ClusteredEncodedModel, error) {
	inDim := enc.InputDim
	if inDim == 0 {
		inDim = rawSample.Cols
	}
	if rawSample.Cols != inDim {
		return nil, fmt.Errorf("xopt: raw sample width %d != encoder input %d", rawSample.Cols, inDim)
	}
	if d, err := enc.OutputDim(inDim); err != nil || d != len(lr.W) {
		return nil, fmt.Errorf("xopt: encoder output width does not match model (%v)", err)
	}
	km := train.FitKMeans(rawSample, train.KMeansOptions{K: k, Seed: seed})
	assign := km.Assign(rawSample)
	cm := &ClusteredEncodedModel{Enc: enc, Fallback: lr, KM: km, RouteFeats: routingFeatures(km, 3)}
	// Value-based routing: pick the single strongest routing feature and
	// learn value -> cluster from the sample (majority vote).
	if len(cm.RouteFeats) > 0 {
		best := cm.RouteFeats[0]
		bestSpread := -1.0
		for _, f := range cm.RouteFeats {
			mean, v := 0.0, 0.0
			for c := 0; c < km.K(); c++ {
				mean += km.Centroids.At(c, f)
			}
			mean /= float64(km.K())
			for c := 0; c < km.K(); c++ {
				dv := km.Centroids.At(c, f) - mean
				v += dv * dv
			}
			if v > bestSpread {
				best, bestSpread = f, v
			}
		}
		cm.RouteCol = best
		counts := make(map[float64]map[int]int)
		for i := 0; i < rawSample.Rows; i++ {
			v := rawSample.At(i, best)
			if counts[v] == nil {
				counts[v] = make(map[int]int)
			}
			counts[v][assign[i]]++
		}
		if len(counts) <= 4096 { // value-routable column
			cm.RouteMap = make(map[float64]int, len(counts))
			for v, byCluster := range counts {
				bc, bn := 0, -1
				for c, n := range byCluster {
					if n > bn {
						bc, bn = c, n
					}
				}
				cm.RouteMap[v] = bc
			}
		}
	}
	cm.catIndex = make([]map[float64]int, len(enc.Cols))
	for ci, cats := range enc.Categories {
		m := make(map[float64]int, len(cats))
		for j, v := range cats {
			m[v] = j
		}
		cm.catIndex[ci] = m
	}
	isCat := make(map[int]int, len(enc.Cols)) // raw col -> ci
	for ci, c := range enc.Cols {
		isCat[c] = ci
	}
	for c := 0; c < km.K(); c++ {
		consts := km.ConstantFeatures(rawSample, assign, c, eps)
		spec := EncSpec{Bias: lr.B}
		for raw := 0; raw < inDim; raw++ {
			if ci, ok := isCat[raw]; ok {
				lo, _, err := enc.IndicatorRange(inDim, raw)
				if err != nil {
					return nil, err
				}
				if v, constant := consts[raw]; constant {
					// fold the lit indicator's weight into the bias
					if j, known := cm.catIndex[ci][v]; known {
						spec.Bias += lr.W[lo+j]
					}
					continue
				}
				w := make([]float64, len(enc.Categories[ci]))
				copy(w, lr.W[lo:lo+len(w)])
				spec.CatCols = append(spec.CatCols, ci)
				spec.CatW = append(spec.CatW, w)
				continue
			}
			out, err := enc.PassthroughOutputIndex(raw)
			if err != nil {
				return nil, err
			}
			if v, constant := consts[raw]; constant {
				spec.Bias += lr.W[out] * v
				continue
			}
			spec.PassCols = append(spec.PassCols, raw)
			spec.PassW = append(spec.PassW, lr.W[out])
		}
		cm.Specs = append(cm.Specs, spec)
	}
	return cm, nil
}

// K returns the cluster count.
func (c *ClusteredEncodedModel) K() int { return c.KM.K() }

// AvgActiveTerms reports the mean number of per-row scoring terms across
// cluster scorers (numeric madds + categorical lookups) — the cost driver.
func (c *ClusteredEncodedModel) AvgActiveTerms() float64 {
	if len(c.Specs) == 0 {
		return 0
	}
	total := 0
	for _, s := range c.Specs {
		total += len(s.PassCols) + len(s.CatCols)
	}
	return float64(total) / float64(len(c.Specs))
}

// Predict scores raw rows: route, then evaluate the cluster's precompiled
// scorer (numeric madds + one weight lookup per live categorical column).
func (c *ClusteredEncodedModel) Predict(raw ml.Matrix) ([]float64, error) {
	inDim := c.Enc.InputDim
	if inDim == 0 {
		inDim = raw.Cols
	}
	if raw.Cols != inDim {
		return nil, fmt.Errorf("xopt: clustered-encoded model expects %d raw columns, got %d", inDim, raw.Cols)
	}
	out := make([]float64, raw.Rows)
	k := c.KM.Centroids.Rows
	d := c.KM.Centroids.Cols
	for i := 0; i < raw.Rows; i++ {
		row := raw.Row(i)
		best, routed := -1, false
		if c.RouteMap != nil {
			if cl, ok := c.RouteMap[row[c.RouteCol]]; ok {
				best, routed = cl, true
			}
		}
		if !routed {
			bd := 0.0
			for cl := 0; cl < k; cl++ {
				cent := c.KM.Centroids.Data[cl*d : (cl+1)*d]
				s := 0.0
				for _, f := range c.RouteFeats {
					dv := row[f] - cent[f]
					s += dv * dv
				}
				if cl == 0 || s < bd {
					best, bd = cl, s
				}
			}
		}
		spec := &c.Specs[best]
		z := spec.Bias
		for j, col := range spec.PassCols {
			z += spec.PassW[j] * row[col]
		}
		for j, ci := range spec.CatCols {
			if idx, ok := c.catIndex[ci][row[c.Enc.Cols[ci]]]; ok {
				z += spec.CatW[j][idx]
			}
		}
		out[i] = 1 / (1 + math.Exp(-z))
	}
	return out, nil
}
