package types

import (
	"math/rand"
	"testing"
)

// Data-plane micro-benchmarks (run via `make bench-micro`). The
// interesting number is allocs/op: the bulk append, gather-into and pool
// paths must be allocation-free in steady state, because they sit inside
// every morsel of every query.

func benchFloatVector(n int) *Vector {
	rng := rand.New(rand.NewSource(7))
	v := NewVector(Float, 0)
	for i := 0; i < n; i++ {
		v.Floats = append(v.Floats, rng.NormFloat64())
	}
	v.SetLen(n)
	return v
}

func BenchmarkAppendFloatsBulk(b *testing.B) {
	src := benchFloatVector(DefaultBatchSize)
	dst := NewVector(Float, 0)
	dst.Grow(DefaultBatchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Reset()
		dst.AppendFloats(src.Floats)
	}
}

// BenchmarkAppendBoxedReference is the per-row boxed path the bulk ops
// replaced; kept as the comparison point for AppendFloatsBulk.
func BenchmarkAppendBoxedReference(b *testing.B) {
	src := benchFloatVector(DefaultBatchSize)
	dst := NewVector(Float, 0)
	dst.Grow(DefaultBatchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Reset()
		for j := range src.Floats {
			_ = dst.Append(src.Floats[j])
		}
	}
}

func BenchmarkGatherInto(b *testing.B) {
	src := benchFloatVector(DefaultBatchSize)
	sel := make([]int, DefaultBatchSize/2)
	for i := range sel {
		sel[i] = i * 2
	}
	dst := NewVector(Float, 0)
	dst.Grow(len(sel))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Reset()
		src.GatherInto(dst, sel)
	}
}

func BenchmarkSliceInto(b *testing.B) {
	src := benchFloatVector(DefaultBatchSize)
	var dst Vector
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.SliceInto(&dst, 128, 128+1024)
	}
}

func BenchmarkVectorPoolGetPut(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := GetVector(Float, DefaultBatchSize)
		PutVector(v)
	}
}

func BenchmarkBatchPoolGetPut(b *testing.B) {
	s := NewSchema(
		Column{Name: "a", Type: Float},
		Column{Name: "b", Type: Int},
		Column{Name: "c", Type: String},
	)
	p := NewBatchPool(s)
	// Prime capacity so the loop measures steady-state reuse.
	bt := p.Get()
	bt.Grow(DefaultBatchSize)
	p.Put(bt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Put(p.Get())
	}
}

func BenchmarkWidenInto(b *testing.B) {
	v := NewVector(Int, DefaultBatchSize)
	for i := range v.Ints {
		v.Ints[i] = int64(i)
	}
	out := make([]float64, DefaultBatchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.WidenInto(out, 1)
	}
}
