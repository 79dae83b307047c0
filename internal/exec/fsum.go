package exec

import (
	"math"
	"math/bits"
)

// exactFloatSum accumulates float64 values exactly: a small
// superaccumulator (Neal, "Fast exact summation using small and large
// superaccumulators", 2015). Every finite float64 is an integer multiple
// of 2^-1074, so the running total is kept as that integer, in 32-bit
// limbs held in int64s. Add puts a value's 53-bit mantissa into the three
// limbs at its exponent's position: O(1), no rounding, and no allocation
// once the window of limbs covers that position. A limb's spare bits
// absorb carryBudget adds before carries are normalized.
//
// Because the total is exact, Round — the total correctly rounded, half
// to even — is a function of the values alone: not of the order they
// were added in, nor of how they were split across accumulators merged
// later, nor of whether a running total would have passed MaxFloat64 on
// the way. That is what lets two-phase parallel aggregation promise
// bit-identical SUM/AVG for any DOP and morsel size: floating-point
// addition is not associative, so naive per-worker partial sums would
// differ from one DOP to the next in the low bits.
//
// Limbs exist only for the span of exponents seen: six held inline,
// which a sum over values of similar magnitude never leaves, so it
// allocates nothing; a wider span moves to a window on the heap grown on
// demand. The zero value is an empty sum, ready to use.
type exactFloatSum struct {
	// Limb k of the window counts units of 2^(32*(lo+k)-1074). Every limb
	// but the top one takes adds; the top one only takes carries, so it is
	// bounded by the number of values added.
	small [6]int64
	limbs []int64 // the window once the span outgrows small; nil before
	// special accumulates non-finite inputs, which the limbs cannot
	// represent. IEEE addition of infs and NaNs is order-insensitive for
	// our purposes: any NaN poisons the result and opposing infinities
	// combine to NaN.
	special float64
	pending int32 // adds and merges since the last normalization
	lo      int16
	seen    uint8 // sawNegZero|sawOther: the sign of an exact zero
}

const (
	sawNegZero = 1 << iota // a −0 was added
	sawOther               // a value other than −0 was added
	// carryBudget bounds the adds between normalizations: a normalized
	// limb is below 2^32 and each add puts less than 2^32 more into it,
	// so no limb passes 2^62, nor 2^63 where two such sums merge.
	carryBudget = 1 << 29
)

// window returns the limbs, from lo up.
func (s *exactFloatSum) window() []int64 {
	if s.limbs == nil {
		return s.small[:]
	}
	return s.limbs
}

// Add folds x into the sum exactly.
func (s *exactFloatSum) Add(x float64) {
	b := math.Float64bits(x)
	pos, mant := int(b>>52&0x7FF), b&(1<<52-1)
	switch {
	case pos == 0x7FF:
		s.special += x
		return
	case pos == 0 && mant == 0:
		s.seen |= sawOther >> (b >> 63) // −0 sets sawNegZero
		return
	case pos > 0:
		mant |= 1 << 52
		pos-- // x is mant × 2^(pos-1074); a subnormal's pos is 0
	}
	k, r := pos>>5, uint(pos&31)
	w, i := s.window(), k-int(s.lo)
	if i < 0 || i+3 >= len(w) {
		w, i = s.cover(k, k+3)
	}
	s.seen |= sawOther
	v0, v1, v2 := int64(mant<<r&0xFFFFFFFF), int64(mant>>(32-r)&0xFFFFFFFF), int64(mant>>(64-r))
	l := w[i : i+3]
	if b>>63 != 0 {
		l[0], l[1], l[2] = l[0]-v0, l[1]-v1, l[2]-v2
	} else {
		l[0], l[1], l[2] = l[0]+v0, l[1]+v1, l[2]+v2
	}
	if s.pending++; s.pending >= carryBudget {
		normalize(w)
		s.pending = 0
	}
}

// cover widens the window to hold limbs k0..k1 and returns it with k0's
// index. The first span placed is centred in small; any later one that
// does not fit moves the window to the heap.
func (s *exactFloatSum) cover(k0, k1 int) ([]int64, int) {
	empty := s.limbs == nil && s.seen&sawOther == 0
	if empty && k1-k0 < len(s.small) {
		s.lo = int16(k0 - (len(s.small)-1-(k1-k0))/2)
		return s.small[:], k0 - int(s.lo)
	}
	lo, hi, old := k0, k1+1, s.window()
	if !empty {
		lo, hi = min(lo, int(s.lo)), max(hi, int(s.lo)+len(old))
	}
	w := make([]int64, hi-lo)
	if !empty {
		copy(w[int(s.lo)-lo:], old)
	}
	s.limbs, s.lo = w, int16(lo)
	return w, k0 - lo
}

// normalize carries every limb but the top one into [0, 2^32), leaving
// the value unchanged; the top limb keeps the sign.
func normalize(l []int64) {
	var c int64
	for i, x := range l[:len(l)-1] {
		x += c
		l[i], c = x&(1<<32-1), x>>32
	}
	l[len(l)-1] += c
}

// Merge folds another accumulator into s by adding limbs.
func (s *exactFloatSum) Merge(o *exactFloatSum) {
	s.special += o.special
	if o.seen&sawOther != 0 {
		ol := o.window()
		w, i := s.window(), int(o.lo)-int(s.lo)
		if i < 0 || i+len(ol) > len(w) {
			w, i = s.cover(int(o.lo), int(o.lo)+len(ol)-1)
		}
		for k, l := range ol {
			w[i+k] += l
		}
		if s.pending += o.pending + 1; s.pending >= carryBudget {
			normalize(w)
			s.pending = 0
		}
	}
	s.seen |= o.seen
}

// Round returns the exact sum correctly rounded to float64, half to even
// (±Inf past MaxFloat64), or the special value if any non-finite input
// was seen. An exact zero is −0 only if every value added was −0.
func (s *exactFloatSum) Round() float64 {
	if s.special != 0 { // NaN != 0, so a NaN special is returned too
		return s.special
	}
	// Normalizing in place leaves the sum unchanged; only a negative sum
	// is copied, to take its magnitude.
	m := s.window()
	normalize(m)
	neg := m[len(m)-1] < 0
	if neg {
		var buf [8]int64 // a wider window is copied to the heap
		m = append(buf[:0], m...)
		for i := range m {
			m[i] = -m[i]
		}
		normalize(m)
	}
	h := len(m) - 1
	for h >= 0 && m[h] == 0 {
		h--
	}
	if h < 0 {
		if s.seen == sawNegZero {
			return math.Copysign(0, -1)
		}
		return 0
	}
	lo := int(s.lo)
	// Below 2^53 units the sum is exact: a subnormal or the least binade,
	// whose bits are the sum itself. Above, keep the 53 bits under the
	// leading one, the bit under them deciding the rounding; sh<<52 +
	// mantissa (hidden bit included) is the float's bits, and a mantissa
	// rounded up to 2^53 carries into the exponent.
	var f uint64
	if sh := 32*(lo+h) + bits.Len64(uint64(m[h])) - 53; sh <= 0 {
		f = field(m, lo, 0, 53)
	} else {
		g := field(m, lo, sh-1, 54)
		if f = g >> 1; g&1 == 1 && (f&1 == 1 || below(m, lo, sh-1)) {
			f++
		}
		f = min(uint64(sh)<<52+f, 0x7FF<<52)
	}
	if neg {
		f |= 1 << 63
	}
	return math.Float64frombits(f)
}

// field returns n < 64 bits of the magnitude m (limbs from lo) from bit
// pos up (limbs wholly under pos's are normalized, so add nothing).
func field(m []int64, lo, pos, n int) uint64 {
	var v uint64
	for k := max(pos>>5-lo, 0); k < len(m) && 32*(lo+k)-pos < 64; k++ {
		if at := 32*(lo+k) - pos; at >= 0 {
			v |= uint64(m[k]) << at
		} else {
			v |= uint64(m[k]) >> -at
		}
	}
	return v & (1<<n - 1)
}

// below reports whether any bit of the magnitude m under bit pos is set.
func below(m []int64, lo, pos int) bool {
	for k := 0; k < len(m) && 32*(lo+k) < pos; k++ {
		if d := pos - 32*(lo+k); m[k] != 0 && (d >= 64 || uint64(m[k])<<(64-d) != 0) {
			return true
		}
	}
	return false
}
