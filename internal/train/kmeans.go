package train

import (
	"math"
	"math/rand"

	"raven/internal/ml"
)

// KMeans is a fitted Lloyd's-algorithm clustering, the offline step of the
// paper's model-clustering optimization (§4.1): data is partitioned so each
// cluster has (near-)constant values on some features, and a specialized
// model is precompiled per cluster.
type KMeans struct {
	Centroids ml.Matrix // k × d
}

// KMeansOptions configures fitting.
type KMeansOptions struct {
	K        int
	MaxIters int
	Seed     int64
}

// FitKMeans runs Lloyd's algorithm with k-means++-style seeding.
func FitKMeans(x ml.Matrix, opts KMeansOptions) *KMeans {
	if opts.K <= 0 {
		opts.K = 2
	}
	if opts.MaxIters == 0 {
		opts.MaxIters = 25
	}
	if x.Rows == 0 {
		return &KMeans{Centroids: ml.Matrix{Rows: 0, Cols: x.Cols}}
	}
	k := opts.K
	if k > x.Rows {
		k = x.Rows
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	d := x.Cols
	cents := make([]float64, k*d)

	// k-means++ seeding: first centroid uniform, then proportional to
	// squared distance from the nearest chosen centroid.
	first := rng.Intn(x.Rows)
	copy(cents[:d], x.Row(first))
	dist2 := make([]float64, x.Rows)
	for i := range dist2 {
		dist2[i] = sqDist(x.Row(i), cents[:d])
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, v := range dist2 {
			total += v
		}
		pick := 0
		if total > 0 {
			r := rng.Float64() * total
			for i, v := range dist2 {
				r -= v
				if r <= 0 {
					pick = i
					break
				}
			}
		} else {
			pick = rng.Intn(x.Rows)
		}
		copy(cents[c*d:(c+1)*d], x.Row(pick))
		for i := range dist2 {
			if nd := sqDist(x.Row(i), cents[c*d:(c+1)*d]); nd < dist2[i] {
				dist2[i] = nd
			}
		}
	}

	assign := make([]int, x.Rows)
	for iter := 0; iter < opts.MaxIters; iter++ {
		changed := false
		for i := 0; i < x.Rows; i++ {
			best, bd := 0, math.Inf(1)
			row := x.Row(i)
			for c := 0; c < k; c++ {
				if dd := sqDist(row, cents[c*d:(c+1)*d]); dd < bd {
					best, bd = c, dd
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		counts := make([]int, k)
		next := make([]float64, k*d)
		for i := 0; i < x.Rows; i++ {
			c := assign[i]
			counts[c]++
			row := x.Row(i)
			crow := next[c*d : (c+1)*d]
			for j, v := range row {
				crow[j] += v
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// re-seed empty cluster at a random point
				copy(next[c*d:(c+1)*d], x.Row(rng.Intn(x.Rows)))
				continue
			}
			inv := 1 / float64(counts[c])
			crow := next[c*d : (c+1)*d]
			for j := range crow {
				crow[j] *= inv
			}
		}
		cents = next
	}
	return &KMeans{Centroids: ml.Matrix{Data: cents, Rows: k, Cols: d}}
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// K returns the number of clusters.
func (m *KMeans) K() int { return m.Centroids.Rows }

// Assign returns the nearest-centroid index for each row.
func (m *KMeans) Assign(x ml.Matrix) []int {
	out := make([]int, x.Rows)
	k, d := m.Centroids.Rows, m.Centroids.Cols
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		best, bd := 0, math.Inf(1)
		for c := 0; c < k; c++ {
			if dd := sqDist(row, m.Centroids.Data[c*d:(c+1)*d]); dd < bd {
				best, bd = c, dd
			}
		}
		out[i] = best
	}
	return out
}

// ConstantFeatures inspects the rows assigned to cluster c and returns the
// features whose values are (within eps) constant across the cluster,
// mapped to that constant. Those features can be pinned when compiling the
// per-cluster model.
func (m *KMeans) ConstantFeatures(x ml.Matrix, assign []int, c int, eps float64) map[int]float64 {
	d := x.Cols
	mins := make([]float64, d)
	maxs := make([]float64, d)
	for j := range mins {
		mins[j] = math.Inf(1)
		maxs[j] = math.Inf(-1)
	}
	count := 0
	for i := 0; i < x.Rows; i++ {
		if assign[i] != c {
			continue
		}
		count++
		row := x.Row(i)
		for j, v := range row {
			if v < mins[j] {
				mins[j] = v
			}
			if v > maxs[j] {
				maxs[j] = v
			}
		}
	}
	out := make(map[int]float64)
	if count == 0 {
		return out
	}
	for j := 0; j < d; j++ {
		if maxs[j]-mins[j] <= eps {
			out[j] = (maxs[j] + mins[j]) / 2
		}
	}
	return out
}
