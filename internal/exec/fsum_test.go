package exec

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand/v2"
	"strconv"
	"testing"
)

// exactRound is the oracle for exactFloatSum: the math/big sum of the
// finite values rounded half-even to float64, IEEE's answer when a NaN or
// an infinity is among them, and −0 for an exact zero only when every
// value was −0.
func exactRound(vals []float64) float64 {
	sum := new(big.Float).SetPrec(2400) // 2^-1074 to 2^1034, exactly
	var nan, posInf, negInf bool
	allNegZero := len(vals) > 0
	for _, x := range vals {
		switch {
		case math.IsNaN(x):
			nan = true
		case math.IsInf(x, 1):
			posInf = true
		case math.IsInf(x, -1):
			negInf = true
		default:
			sum.Add(sum, new(big.Float).SetFloat64(x))
		}
		allNegZero = allNegZero && x == 0 && math.Signbit(x)
	}
	switch {
	case nan || posInf && negInf:
		return math.NaN()
	case posInf:
		return math.Inf(1)
	case negInf:
		return math.Inf(-1)
	case sum.Sign() == 0 && allNegZero:
		return math.Copysign(0, -1)
	case sum.Sign() == 0:
		return 0
	}
	f, _ := sum.Float64()
	return f
}

func sameFloat(a, b float64) bool {
	return math.IsNaN(a) && math.IsNaN(b) || math.Float64bits(a) == math.Float64bits(b)
}

// fuzzFloat decodes one value: kind picks ±0, a subnormal, ±MaxFloat64, a
// NaN with a payload, ±Inf, any bits at all, a mantissa near 1 with its
// exponent within ±63, or the previous value negated (cancellation).
func fuzzFloat(kind byte, u uint64, prev float64) float64 {
	sign := u >> 63 << 63
	switch kind % 8 {
	case 0:
		return math.Float64frombits(sign)
	case 1:
		return math.Float64frombits(sign | u&(1<<52-1))
	case 2:
		return math.Copysign(math.MaxFloat64, float64(int64(u)))
	case 3:
		return math.Float64frombits(sign | 0x7FF<<52 | (u|1)&(1<<52-1))
	case 4:
		return math.Inf(int(int64(u)>>63) | 1)
	case 5:
		return math.Float64frombits(u)
	case 6:
		return math.Float64frombits(sign | uint64(1023+int(int8(u>>48))%64)<<52 | u&(1<<48-1))
	}
	return -prev
}

// FuzzExactSum splits a float64 sequence into 1–8 partial sums, merges
// them in a random order, and requires Round to equal exactRound bit for
// bit. Byte 0 is the number of partials (1 + mod 8), byte 1 seeds the
// merge order, and each value is 9 bytes: a kind (fuzzFloat's, low 3
// bits; the partial it goes to, the rest) and 8 bytes of payload.
func FuzzExactSum(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		parts := make([]*exactFloatSum, 1+int(data[0]%8))
		for p := range parts {
			parts[p] = new(exactFloatSum)
		}
		var vals []float64
		prev := 1.0
		for rest := data[2:]; len(rest) >= 9; rest = rest[9:] {
			x := fuzzFloat(rest[0], binary.LittleEndian.Uint64(rest[1:9]), prev)
			parts[int(rest[0]>>3)%len(parts)].Add(x)
			vals, prev = append(vals, x), x
		}
		rng := rand.New(rand.NewPCG(uint64(data[1]), 0))
		for len(parts) > 1 {
			i, j := rng.IntN(len(parts)), rng.IntN(len(parts)-1)
			if j >= i {
				j++
			}
			if rng.IntN(2) == 0 {
				parts[j].Round() // normalizes in place: the sum must not change
			}
			parts[i].Merge(parts[j])
			parts = append(parts[:j], parts[j+1:]...)
		}
		if got, want := parts[0].Round(), exactRound(vals); !sameFloat(got, want) {
			t.Fatalf("sum of %v = %v (%#x), want %v (%#x)", vals, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// TestExactSumCarryBudget fills limbs to the edge of their carry budget —
// the state carryBudget-1 adds of a mantissa of all ones, placed to fill
// one whole limb, would leave — and checks that the add and the merge
// that cross the budget normalize and keep the sum exact.
func TestExactSumCarryBudget(t *testing.T) {
	x := math.Float64frombits(1036<<52 | 1<<52 - 1) // bits 11..63 of limbs 32 and 33
	atEdge := func(x float64) *exactFloatSum {
		s := new(exactFloatSum)
		s.Add(x)
		w := s.window()
		for i := range w {
			w[i] *= carryBudget - 1
		}
		s.pending = carryBudget - 1
		return s
	}
	times := func(x float64, n int64) float64 {
		return exactRound([]float64{x * float64(n)}) // exact: n < 2^30 and x has room below MaxFloat64
	}
	for _, x := range []float64{x, -x} {
		s := atEdge(x)
		if l := s.window()[33-s.lo]; l != (1<<32-1)*(carryBudget-1) && l != -(1<<32-1)*(carryBudget-1) {
			t.Fatalf("limb 33 = %#x: x does not fill a whole limb", l)
		}
		if got, want := s.Round(), times(x, carryBudget-1); got != want {
			t.Fatalf("at the edge: %v, want %v", got, want)
		}
		s.Add(x)
		if s.pending != 0 {
			t.Fatalf("pending = %d after the budget's last add: not normalized", s.pending)
		}
		for _, l := range s.window()[:len(s.window())-1] {
			if l < 0 || l >= 1<<32 {
				t.Fatalf("limb %#x outside [0, 2^32) after normalization", l)
			}
		}
		if got, want := s.Round(), times(x, carryBudget); got != want {
			t.Fatalf("across the budget: %v, want %v", got, want)
		}
		a, b := atEdge(x), atEdge(x)
		a.Merge(b)
		if got, want := a.Round(), times(x, 2*(carryBudget-1)); got != want || a.pending != 0 {
			t.Fatalf("two sums at the edge merged: %v (pending %d), want %v", got, a.pending, want)
		}
	}
}

// BenchmarkExactSumSmall adds n values of mixed magnitude to a fresh sum
// and rounds it: the cost of a no-key SUM over a small morsel.
func BenchmarkExactSumSmall(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 0))
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = rng.Float64() * 1000
		if i%4 == 3 {
			xs[i] = -rng.Float64()
		}
	}
	for _, n := range []int{1, 4, 16, 64} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			var out float64
			for range b.N {
				var s exactFloatSum
				for _, x := range xs[:n] {
					s.Add(x)
				}
				out += s.Round()
			}
			sinkFloat = out
		})
	}
}

var sinkFloat float64
