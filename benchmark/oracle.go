package main

import (
	"fmt"
	"math"
)

// maxCols is the widest result any shape returns.
const maxCols = 4

// fingerprint condenses a numeric result set: the row count, each
// column's sum, and a second sum per column that makes the fingerprint
// sensitive to which values (and, for ordered shapes, which positions)
// were returned — the sum of squares for unordered results, the
// position-weighted sum for ordered ones. Sums, not hashes, because a
// parallel aggregate may add the same numbers in another order and
// differ in the last bits.
type fingerprint struct {
	rows    int
	ordered bool
	sum     [maxCols]float64
	sum2    [maxCols]float64
}

// add folds value v of column col of the current row (rows already
// counted before it: fp.rows) into the fingerprint.
func (fp *fingerprint) add(col int, v float64) {
	if col >= maxCols {
		return
	}
	fp.sum[col] += v
	if fp.ordered {
		fp.sum2[col] += float64(fp.rows+1) * v
	} else {
		fp.sum2[col] += v * v
	}
}

func (fp *fingerprint) endRow() { fp.rows++ }

func closeTo(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))+1e-12
}

// matches reports whether got equals the reference within relative
// tolerance tol on every sum.
func (fp *fingerprint) matches(got *fingerprint, tol float64) bool {
	if fp.rows != got.rows {
		return false
	}
	for c := 0; c < maxCols; c++ {
		if !closeTo(fp.sum[c], got.sum[c], tol) || !closeTo(fp.sum2[c], got.sum2[c], tol) {
			return false
		}
	}
	return true
}

func (fp *fingerprint) String() string {
	return fmt.Sprintf("rows=%d sum=%v sum2=%v", fp.rows, fp.sum, fp.sum2)
}

// Tolerances. Exact results still go through sums, so they get the
// summation-order allowance; only shapes the cross optimizer translates
// to a tensor graph get the paper's "approximate" allowance.
const (
	tolExact = 1e-9
	tolNN    = 1e-6
)

// prefix holds prefix sums of a per-row value and its square, so the
// expected fingerprint of any id range is two subtractions.
type prefix struct {
	s, s2 []float64
}

func newPrefix(vals []float64) prefix {
	p := prefix{s: make([]float64, len(vals)+1), s2: make([]float64, len(vals)+1)}
	for i, v := range vals {
		p.s[i+1] = p.s[i] + v
		p.s2[i+1] = p.s2[i] + v*v
	}
	return p
}

func (p prefix) sum(lo, hi int) float64  { return p.s[hi] - p.s[lo] }
func (p prefix) sum2(lo, hi int) float64 { return p.s2[hi] - p.s2[lo] }

// idSum and idSum2 are the sums of i and i*i over lo <= i < hi.
func idSum(lo, hi int) float64 {
	a, b := float64(lo), float64(hi)
	return (b*(b-1) - a*(a-1)) / 2
}

func idSum2(lo, hi int) float64 {
	f := func(n float64) float64 { return (n - 1) * n * (2*n - 1) / 6 }
	return f(float64(hi)) - f(float64(lo))
}
