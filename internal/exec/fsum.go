package exec

import "math"

// exactFloatSum accumulates float64 values exactly. It keeps the running
// total as a Shewchuk expansion: a list of non-overlapping partials in
// increasing magnitude whose exact (real-number) sum equals the sum of
// every value added so far. Round returns that exact value correctly
// rounded to the nearest float64.
//
// Because the expansion represents the exact sum, the rounded result is a
// function of the value set alone — independent of the order values were
// added in and of how the input was split across partial accumulators.
// That property is what lets two-phase parallel aggregation promise
// byte-identical SUM/AVG results for any DOP and any morsel decomposition:
// floating-point addition is not associative, so naive per-worker partial
// sums would differ from one DOP to the next in the low bits.
//
// Boundary: the invariance guarantee holds as long as every accumulator's
// running total stays within float64 range (|sum| <= MaxFloat64 ≈
// 1.8e308). If a partial's total overflows, that accumulator saturates to
// ±Inf — deterministic for a given decomposition, but a different split
// of the same rows might avoid the overflow, so at that extreme the
// result can depend on DOP. Removing this caveat would need an
// exponent-extended superaccumulator, which the engine's workloads
// (bounded ML features and measures) do not justify.
//
// The zero value is an empty sum, ready to use.
type exactFloatSum struct {
	// partials is the expansion: non-overlapping, sorted by increasing
	// magnitude, exact sum of everything accumulated.
	partials []float64
	// special accumulates non-finite inputs (and overflow residue), which
	// the expansion arithmetic cannot represent. IEEE addition of infs and
	// NaNs is order-insensitive for our purposes: any NaN poisons the
	// result and opposing infinities combine to NaN.
	special float64
}

// Add folds x into the sum exactly. If this accumulator's running total
// leaves float64 range the sum saturates to ±Inf (IEEE semantics,
// matching what naive accumulation would return); see the type comment
// for the order-invariance boundary that implies.
func (s *exactFloatSum) Add(x float64) {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		s.special += x
		return
	}
	// Grow-expansion (Shewchuk): carry x up through the partials with
	// exact two-sum steps, keeping every non-zero rounding error.
	out := s.partials[:0]
	for _, y := range s.partials {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		if math.IsInf(hi, 0) {
			// Overflow: lo would be garbage (Inf-Inf = NaN) — latch the
			// saturated value instead of corrupting the expansion.
			s.special += hi
			s.partials = s.partials[:0]
			return
		}
		lo := y - (hi - x)
		if lo != 0 {
			out = append(out, lo)
		}
		x = hi
	}
	s.partials = append(out, x)
}

// Merge folds another accumulator into s. The partials of o sum exactly to
// o's value, so adding them one by one preserves exactness.
func (s *exactFloatSum) Merge(o *exactFloatSum) {
	for _, p := range o.partials {
		s.Add(p)
	}
	if o.special != 0 { // NaN != 0, so this covers NaN too
		s.special += o.special
	}
}

// Round returns the accumulated sum correctly rounded to float64 (the
// algorithm of Python's math.fsum tail), or the special value if any
// non-finite input was seen.
func (s *exactFloatSum) Round() float64 {
	if s.special != 0 { // NaN != 0, so a NaN special is returned too
		return s.special
	}
	n := len(s.partials)
	if n == 0 {
		return 0
	}
	hi := s.partials[n-1]
	var lo float64
	i := n - 1
	for i > 0 {
		x := hi
		y := s.partials[i-1]
		i--
		hi = x + y
		yr := hi - x
		lo = y - yr
		if lo != 0 {
			break
		}
	}
	// Round-half-even correction: if the discarded tail would flip the
	// rounding of hi, apply it. Mirrors CPython's fsum.
	if i > 0 && ((lo < 0 && s.partials[i-1] < 0) || (lo > 0 && s.partials[i-1] > 0)) {
		y := lo * 2
		x := hi + y
		if yr := x - hi; y == yr {
			hi = x
		}
	}
	return hi
}
