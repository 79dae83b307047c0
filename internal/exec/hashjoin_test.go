package exec

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"raven/internal/plan"
	"raven/internal/storage"
	"raven/internal/types"
)

// sameBits asserts got equals want bit for bit: schema, row count, NULLs
// and every value — a FLOAT by its bits, so −0 is not +0 and a NaN's
// payload counts.
func sameBits(t testing.TB, label string, want, got *types.Batch) {
	t.Helper()
	if w, g := want.Schema.String(), got.Schema.String(); w != g {
		t.Fatalf("%s: schema %s, want %s", label, g, w)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), want.Len())
	}
	for c, wv := range want.Vecs {
		gv := got.Vecs[c]
		for i := 0; i < want.Len(); i++ {
			same := wv.IsNull(i) == gv.IsNull(i)
			if same && !wv.IsNull(i) {
				switch wv.Type {
				case types.Float:
					same = math.Float64bits(wv.FloatAt(i)) == math.Float64bits(gv.FloatAt(i))
				case types.Int:
					same = wv.IntAt(i) == gv.IntAt(i)
				case types.Bool:
					same = wv.BoolAt(i) == gv.BoolAt(i)
				default:
					same = wv.StringAt(i) == gv.StringAt(i)
				}
			}
			if !same {
				t.Fatalf("%s: col %s row %d: got %v, want %v", label, want.Schema.Columns[c].Name, i, gv.Value(i), wv.Value(i))
			}
		}
	}
}

// keyTable loads keys as column k of a two-column table (k, payload), the
// payload being the row number. It appends one batch, null bitmap and all.
func keyTable(t testing.TB, name, payload string, keys *types.Vector) *storage.Table {
	t.Helper()
	rows := types.NewVector(types.Int, keys.Len())
	for i := range rows.Ints {
		rows.Ints[i] = int64(i)
	}
	schema := types.NewSchema(types.Column{Name: "k", Type: keys.Type}, types.Column{Name: payload, Type: types.Int})
	tb := storage.NewTable(name, schema)
	if err := tb.AppendBatch(&types.Batch{Schema: schema, Vecs: []*types.Vector{keys, rows}}); err != nil {
		t.Fatal(err)
	}
	return tb
}

func ints(ks ...int64) *types.Vector     { return &types.Vector{Type: types.Int, Ints: ks} }
func floats(ks ...float64) *types.Vector { return &types.Vector{Type: types.Float, Floats: ks} }
func bools(ks ...bool) *types.Vector     { return &types.Vector{Type: types.Bool, Bools: ks} }
func strs(ks ...string) *types.Vector    { return &types.Vector{Type: types.String, Strings: ks} }
func intsOf(n int, k func(i int) int64) *types.Vector {
	v := types.NewVector(types.Int, n)
	for i := range v.Ints {
		v.Ints[i] = k(i)
	}
	return v
}

// withNulls marks rows of v NULL; their value slots keep the key.
func withNulls(v *types.Vector, rows ...int) *types.Vector {
	for _, i := range rows {
		v.SetNull(i)
	}
	return v
}

// onePartition returns n distinct keys, made by key(0), key(1), ..., that
// fall in partition 0 at every partition count up to 256: the top eight
// bits of their mixed codes are zero.
func onePartition(n int, key func(i int) *types.Vector) []*types.Vector {
	var out []*types.Vector
	for i := 0; len(out) < n; i++ {
		if k := key(i); uint64(keyCode(k, 0))*fibMix>>56 == 0 {
			out = append(out, k)
		}
	}
	return out
}

func concat(vs ...*types.Vector) *types.Vector {
	out := &types.Vector{Type: vs[0].Type}
	for _, v := range vs {
		if err := out.AppendVector(v); err != nil {
			panic(err)
		}
	}
	return out
}

// joinCase is one row of the differential join matrix: the probe and
// build key columns, and the rows the reference join returns for them.
type joinCase struct {
	name        string
	left, right *types.Vector
	want        int
}

func joinMatrix() []joinCase {
	const maxI, minI = math.MaxInt64, math.MinInt64
	nan := func(payload uint64) float64 { return math.Float64frombits(0x7FF8000000000000 | payload) }
	negZero, inf := math.Copysign(0, -1), math.Inf(1)
	shared := onePartition(300, func(i int) *types.Vector { return strs(fmt.Sprintf("k%d", i)) })
	reversed := make([]*types.Vector, len(shared))
	for i, k := range shared {
		reversed[len(shared)-1-i] = k
	}
	partial := ints()
	for i := int64(5000); i < 15000; i++ {
		partial.Ints = append(partial.Ints, i)
		if i%3 == 0 {
			partial.Ints = append(partial.Ints, i)
		}
	}
	grp := func(n, mod, step int) *types.Vector {
		v := strs()
		for i := 0; i < n; i += step {
			v.Strings = append(v.Strings, fmt.Sprintf("g%d", i%mod))
		}
		return v
	}
	return []joinCase{
		{"int 1:1 dense", intsOf(10000, func(i int) int64 { return int64(i) }), intsOf(10000, func(i int) int64 { return int64(9999 - i) }), 10000},
		{"int partial coverage with duplicates", intsOf(20000, func(i int) int64 { return int64(i) }), partial, 13333},
		{"int one key 10K chain", intsOf(100, func(i int) int64 { return int64(i % 50) }), intsOf(10000, func(int) int64 { return 7 }), 20000},
		{"int near 2^63", ints(maxI, maxI-1, minI, minI+1, 0, -1, maxI), ints(minI, maxI, minI+1, minI, 1<<62, -1), 6},
		{"int NULL keys", withNulls(ints(7, 7, 8, 9), 0), withNulls(ints(7, 8, 9, 10), 2), 2},
		{"float zeros NaNs infinities", floats(0, negZero, 3.5, nan(1), nan(2), inf, -inf, 1.25), floats(negZero, 3.5, nan(1), nan(3), inf, inf, -inf, 0), 8},
		{"signed zero float keys", floats(0, negZero, 3.5), floats(negZero, 3.5), 3},
		{"bool", bools(true, false, true, false, true), bools(false, true, true), 8},
		{"string keys", grp(5000, 97, 1), grp(97, 1000, 2), 2526},
		{"varchar one partition and empty string", concat(append(shared, strs("", ""))...), concat(append(append(reversed, shared[:10]...), strs(""))...), 312},
		{"varchar NULL keys", withNulls(strs("x", "x", "y", ""), 0, 3), withNulls(strs("x", "", "y", "z"), 1, 2), 1},
		{"empty build", intsOf(100, func(i int) int64 { return int64(i) }), ints(), 0},
		{"empty probe", ints(), intsOf(100, func(i int) int64 { return int64(i) }), 0},
		{"no matches", intsOf(1000, func(i int) int64 { return int64(i) }), intsOf(1000, func(i int) int64 { return int64(1000 + i) }), 0},
		{"one-row build", intsOf(10000, func(i int) int64 { return int64(i) }), ints(42), 1},
		{"key types differ", intsOf(100, func(i int) int64 { return int64(i) }), floats(0, 1, 2, 3), 0},
	}
}

// referenceJoin runs the serial map-based oracle over left ⋈ right on k.
func referenceJoin(t *testing.T, left, right *storage.Table) *types.Batch {
	t.Helper()
	ref, err := NewHashJoin(scanPipe(t, left, nil), scanPipe(t, right, nil), "k", "k")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(ref)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestParallelJoinMatrix compares the compiled join with the serial
// reference bit for bit, for every key type and edge case of joinMatrix,
// at DOP {1, 2, 8} × morsel size {default, 1000}.
func TestParallelJoinMatrix(t *testing.T) {
	for _, tc := range joinMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			left, right := keyTable(t, "l", "a", tc.left), keyTable(t, "r", "w", tc.right)
			want := referenceJoin(t, left, right)
			if want.Len() != tc.want {
				t.Fatalf("reference: %d rows, want %d", want.Len(), tc.want)
			}
			j, err := plan.NewJoin(plan.NewScan(left), plan.NewScan(right), "k", "k")
			if err != nil {
				t.Fatal(err)
			}
			for _, dop := range []int{1, 2, 8} {
				for _, morsel := range []int{0, 1000} {
					got := compileCollect(t, j, &Env{Parallelism: dop, ParallelThresholdRows: 1, MorselSize: morsel})
					sameBits(t, fmt.Sprintf("dop=%d morsel=%d", dop, morsel), want, got)
				}
			}
		})
	}
}

// TestJoinTableAtLoadBound fills one partition to half its slots, the
// most a build ever loads one, then finds every present key's row and
// misses 1,000 absent keys that hash into the same partition.
func TestJoinTableAtLoadBound(t *testing.T) {
	for _, key := range []func(i int) *types.Vector{
		func(i int) *types.Vector { return ints(int64(i) * 7919) },
		func(i int) *types.Vector { return strs(fmt.Sprintf("k%d", i)) },
	} {
		keys := onePartition(2048, key)
		present, absent := concat(keys[:1024]...), concat(keys[1024:2024]...)
		src, err := NewTableMorselSource(keyTable(t, "r", "w", present), nil, 512)
		if err != nil {
			t.Fatal(err)
		}
		jb, err := buildJoinTables(src, 1, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		full := 0
		for _, s := range jb.parts[0] {
			if s.head != 0 {
				full++
			}
		}
		if len(jb.parts[0]) != 2048 || full != 1024 {
			t.Fatalf("%v: partition 0 has %d of %d slots full, want 1024 of 2048", present.Type, full, len(jb.parts[0]))
		}
		for p := 1; p < len(jb.parts); p++ {
			if jb.parts[p] != nil {
				t.Fatalf("%v: partition %d has no rows but %d slots", present.Type, p, len(jb.parts[p]))
			}
		}
		for i := 0; i < present.Len(); i++ {
			if r := jb.slot(keyCode(present, i), present, i).head; r != int32(i+1) || jb.next[i] != 0 {
				t.Fatalf("%v: key %v found at row %d (next %d), want row %d alone", present.Type, present.Value(i), r-1, jb.next[i], i)
			}
		}
		for i := 0; i < absent.Len(); i++ {
			if r := jb.slot(keyCode(absent, i), absent, i).head; r != 0 {
				t.Fatalf("%v: absent key %v found at row %d", present.Type, absent.Value(i), r-1)
			}
			// A hashed key is confirmed against its slot's build row, so
			// an absent key under a present key's hash — a collision — is
			// still absent.
			if r := jb.slot(keyCode(present, i), absent, i).head; present.Type != types.Int && r != 0 {
				t.Fatalf("%v: absent key %v under %v's hash found at row %d", present.Type, absent.Value(i), present.Value(i), r-1)
			}
		}
	}
}

// fuzzKey decodes one fuzz byte into row i of a key column of type typ.
// A byte from 0xF0 up is NULL, with the key of its low four bits left in
// the value slot; small bytes are each type's awkward values.
func fuzzKey(v *types.Vector, b byte) {
	null := b >= 0xF0
	if null {
		b &= 0x0F
	}
	switch v.Type {
	case types.Int:
		special := []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1, 0, -1}
		k := int64(b % 32)
		if int(b) < len(special) {
			k = special[b]
		}
		v.Ints = append(v.Ints, k)
	case types.Float:
		special := []float64{math.Float64frombits(0x7FF8000000000000), math.Float64frombits(0x7FF8000000000001),
			math.Float64frombits(0xFFF8000000000002), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
		k := float64(b%32) / 2
		if int(b) < len(special) {
			k = special[b]
		}
		v.Floats = append(v.Floats, k)
	case types.Bool:
		v.Bools = append(v.Bools, b&1 == 1)
	default:
		special := []string{"", "ab", "ba", "aa"}
		k := fmt.Sprintf("s%d", b%32)
		if int(b) < len(special) {
			k = special[b]
		}
		v.Strings = append(v.Strings, k)
	}
	if null {
		v.SetNull(v.Len() - 1)
	}
}

// FuzzHashJoin decodes its input into a key type, a DOP, a morsel size
// and the probe and build keys, and requires the compiled join to return
// the serial reference's rows bit for bit. Byte 0 is the type (bits 0–1),
// the DOP (1, 2 or 8 by bits 2–3) and the morsel size (1 + bits 4–7);
// bytes 1 and 2 the probe and build row counts (mod 64); the rest the
// keys, probe side first (see fuzzKey).
func FuzzHashJoin(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		typ := []types.DataType{types.Int, types.Float, types.Bool, types.String}[at(0)&3]
		dop := []int{1, 2, 8, 8}[at(0)>>2&3]
		morsel := 1 + int(at(0)>>4)
		left, right := &types.Vector{Type: typ}, &types.Vector{Type: typ}
		nLeft, nRight := int(at(1)%64), int(at(2)%64)
		for i := 0; i < nLeft; i++ {
			fuzzKey(left, at(3+i))
		}
		for i := 0; i < nRight; i++ {
			fuzzKey(right, at(3+nLeft+i))
		}
		lt, rt := keyTable(t, "l", "a", left), keyTable(t, "r", "w", right)
		want := referenceJoin(t, lt, rt)
		j, err := plan.NewJoin(plan.NewScan(lt), plan.NewScan(rt), "k", "k")
		if err != nil {
			t.Fatal(err)
		}
		got := compileCollect(t, j, &Env{Parallelism: dop, ParallelThresholdRows: 1, MorselSize: morsel})
		sameBits(t, fmt.Sprintf("%v dop=%d morsel=%d", typ, dop, morsel), want, got)
	})
}

// BenchmarkParallelHashJoin runs whole joins, build and probe, at the
// sizes the benchmark's shapes join: the hospital tables' 120K-row 1:1
// join, a 2K-row build, a one-row build, and a 20K-row VARCHAR join. DOP
// is GOMAXPROCS (-cpu 2 for the benchmark's two workers).
func BenchmarkParallelHashJoin(b *testing.B) {
	ids := func(n int) *types.Vector { return intsOf(n, func(i int) int64 { return int64(i) }) }
	names := func(n int) *types.Vector {
		v := strs()
		for i := 0; i < n; i++ {
			v.Strings = append(v.Strings, fmt.Sprintf("patient-%06d", i))
		}
		return v
	}
	for _, bc := range []struct {
		name string
		keys *types.Vector
	}{
		{"int_120k", ids(120000)},
		{"int_2k", ids(2000)},
		{"int_1", ids(1)},
		{"varchar_20k", names(20000)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			j, err := plan.NewJoin(plan.NewScan(keyTable(b, "l", "a", bc.keys)), plan.NewScan(keyTable(b, "r", "w", bc.keys)), "k", "k")
			if err != nil {
				b.Fatal(err)
			}
			env := &Env{Parallelism: runtime.GOMAXPROCS(0), ParallelThresholdRows: 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op, err := Compile(j, env)
				if err != nil {
					b.Fatal(err)
				}
				if err := op.Open(); err != nil {
					b.Fatal(err)
				}
				for {
					out, err := op.Next()
					if err != nil {
						b.Fatal(err)
					}
					if out == nil {
						break
					}
				}
				if err := op.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
