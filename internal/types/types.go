// Package types defines the columnar data model shared by the relational
// engine and the ML runtimes: data types, schemas, typed vectors and
// batches. Execution is vectorized: operators exchange Batch values holding
// a fixed number of rows in columnar form.
package types

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// DataType enumerates the column types supported by the engine.
type DataType uint8

const (
	// Unknown is the zero DataType; it is never valid in a bound schema.
	Unknown DataType = iota
	// Float is a 64-bit IEEE float (SQL FLOAT).
	Float
	// Int is a 64-bit signed integer (SQL BIGINT).
	Int
	// Bool is a boolean (SQL BIT).
	Bool
	// String is a variable-length UTF-8 string (SQL VARCHAR).
	String
)

// String implements fmt.Stringer.
func (t DataType) String() string {
	switch t {
	case Float:
		return "FLOAT"
	case Int:
		return "INT"
	case Bool:
		return "BOOL"
	case String:
		return "VARCHAR"
	default:
		return "UNKNOWN"
	}
}

// IsNumeric reports whether t can participate in arithmetic.
func (t DataType) IsNumeric() bool { return t == Float || t == Int }

// Column describes one attribute of a schema.
type Column struct {
	Name string
	Type DataType
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column

	// ordOnce guards the lazily built lowered-name→ordinal map behind
	// IndexOf. Schemas are shared read-only across worker goroutines, so
	// the map is built at most once and then read without locks.
	ordOnce sync.Once
	ord     map[string]int
}

// NewSchema builds a schema from (name, type) pairs.
func NewSchema(cols ...Column) *Schema {
	return &Schema{Columns: cols}
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// ordinals returns the lowered-name→ordinal map, building it on first use.
// On duplicate names the first ordinal wins, matching the linear scan this
// map replaced.
func (s *Schema) ordinals() map[string]int {
	s.ordOnce.Do(func() {
		m := make(map[string]int, len(s.Columns))
		for i, c := range s.Columns {
			k := strings.ToLower(c.Name)
			if _, dup := m[k]; !dup {
				m[k] = i
			}
		}
		s.ord = m
	})
	return s.ord
}

// IndexOf returns the ordinal of the named column, or -1 if absent.
// Lookup is case-insensitive, matching SQL identifier semantics.
func (s *Schema) IndexOf(name string) int {
	m := s.ordinals()
	if i, ok := m[name]; ok {
		return i
	}
	// Identifiers are usually stored and looked up in lower case already;
	// strings.ToLower returns its input unchanged (no allocation) then.
	if i, ok := m[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// Column returns the i-th column descriptor.
func (s *Schema) Column(i int) Column { return s.Columns[i] }

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	cols := make([]Column, len(s.Columns))
	copy(cols, s.Columns)
	return &Schema{Columns: cols}
}

// Project returns a new schema containing the columns at the given ordinals.
func (s *Schema) Project(idx []int) *Schema {
	cols := make([]Column, len(idx))
	for i, j := range idx {
		cols[i] = s.Columns[j]
	}
	return &Schema{Columns: cols}
}

// Concat returns a schema with the columns of s followed by those of other.
func (s *Schema) Concat(other *Schema) *Schema {
	cols := make([]Column, 0, len(s.Columns)+len(other.Columns))
	cols = append(cols, s.Columns...)
	cols = append(cols, other.Columns...)
	return &Schema{Columns: cols}
}

// String renders the schema as "(a FLOAT, b INT)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
	}
	b.WriteByte(')')
	return b.String()
}

// Vector is a typed column of values. Exactly one of the data slices is
// populated, chosen by Type. NULL rows are tracked by a word-packed
// validity bitmap (NullBits); Const marks a broadcast vector carrying one
// physical row that logically repeats.
type Vector struct {
	Type    DataType
	Floats  []float64
	Ints    []int64
	Bools   []bool
	Strings []string
	// NullBits is the packed null mask: bit i (word i>>6, bit i&63) is set
	// when row i is NULL. A nil or short bitmap means the uncovered rows
	// are not NULL. Exported so vectors survive the gob wire used by
	// out-of-process inference.
	NullBits []uint64
	// Const marks a broadcast vector: one physical row that logically
	// repeats Length times. Only expression evaluation produces const
	// vectors; they are densified (see Densify) before reaching code that
	// indexes the data slices directly.
	Const bool
	// Length is the logical row count of a Const vector; unused otherwise.
	Length int

	// pooled marks vectors checked out of the vector pool. PutVector only
	// recycles pooled vectors, so storage-owned or escaped vectors can
	// never be recycled by a stray Put.
	pooled bool
}

// NewVector allocates a vector of the given type with length n.
func NewVector(t DataType, n int) *Vector {
	v := &Vector{Type: t}
	switch t {
	case Float:
		v.Floats = make([]float64, n)
	case Int:
		v.Ints = make([]int64, n)
	case Bool:
		v.Bools = make([]bool, n)
	case String:
		v.Strings = make([]string, n)
	default:
		panic(fmt.Sprintf("types: NewVector of %v", t))
	}
	return v
}

// Len returns the number of logical rows in the vector.
func (v *Vector) Len() int {
	if v.Const {
		return v.Length
	}
	switch v.Type {
	case Float:
		return len(v.Floats)
	case Int:
		return len(v.Ints)
	case Bool:
		return len(v.Bools)
	case String:
		return len(v.Strings)
	default:
		return 0
	}
}

// phys maps a logical row index to a physical one: broadcast vectors hold
// a single physical row.
func (v *Vector) phys(i int) int {
	if v.Const {
		return 0
	}
	return i
}

// IsNull reports whether row i is NULL.
func (v *Vector) IsNull(i int) bool {
	i = v.phys(i)
	w := uint(i) >> 6
	return w < uint(len(v.NullBits)) && v.NullBits[w]&(1<<(uint(i)&63)) != 0
}

// HasNulls reports whether any row of v is NULL.
func (v *Vector) HasNulls() bool {
	n := v.Len()
	if v.Const {
		n = 1
	}
	for w, word := range v.NullBits {
		// Mask bits beyond the logical length: zero-copy slices share
		// whole words with their parent, so trailing bits may belong to
		// rows outside this vector.
		if hi := n - w*64; hi < 64 {
			if hi <= 0 {
				return false
			}
			word &= (1 << uint(hi)) - 1
		}
		if word != 0 {
			return true
		}
	}
	return false
}

// growNulls ensures the bitmap covers at least rows rows, zeroing any
// newly exposed words.
func (v *Vector) growNulls(rows int) {
	w := (rows + 63) >> 6
	if w <= len(v.NullBits) {
		return
	}
	if cap(v.NullBits) >= w {
		old := len(v.NullBits)
		v.NullBits = v.NullBits[:w]
		for i := old; i < w; i++ {
			v.NullBits[i] = 0
		}
		return
	}
	nb := make([]uint64, w)
	copy(nb, v.NullBits)
	v.NullBits = nb
}

// SetNull marks row i as NULL, growing the bitmap lazily.
func (v *Vector) SetNull(i int) {
	i = v.phys(i)
	v.growNulls(i + 1)
	v.NullBits[uint(i)>>6] |= 1 << (uint(i) & 63)
}

// Value returns row i as an interface value (nil when NULL). Intended for
// tests, result rendering and row-at-a-time UDFs, not the hot path.
func (v *Vector) Value(i int) any {
	if v.IsNull(i) {
		return nil
	}
	i = v.phys(i)
	switch v.Type {
	case Float:
		return v.Floats[i]
	case Int:
		return v.Ints[i]
	case Bool:
		return v.Bools[i]
	case String:
		return v.Strings[i]
	default:
		return nil
	}
}

// AsFloat returns row i coerced to float64. Bool maps to 0/1.
func (v *Vector) AsFloat(i int) float64 {
	i = v.phys(i)
	switch v.Type {
	case Float:
		return v.Floats[i]
	case Int:
		return float64(v.Ints[i])
	case Bool:
		if v.Bools[i] {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// WidenInto writes a FLOAT, INT or BOOL vector as float64 to dst[0],
// dst[stride], dst[2*stride], ...: stride 1 fills a column, stride d one
// column of a row-major matrix d wide. Bool maps to 0/1 and a broadcast
// vector repeats its one physical row.
func (v *Vector) WidenInto(dst []float64, stride int) {
	n, step := v.Len(), 1
	if v.Const {
		step = 0
	}
	switch v.Type {
	case Float:
		for i := 0; i < n; i++ {
			dst[i*stride] = v.Floats[i*step]
		}
	case Int:
		for i := 0; i < n; i++ {
			dst[i*stride] = float64(v.Ints[i*step])
		}
	case Bool:
		for i := 0; i < n; i++ {
			dst[i*stride] = 0
			if v.Bools[i*step] {
				dst[i*stride] = 1
			}
		}
	default:
		panic(fmt.Sprintf("types: WidenInto of %v", v.Type))
	}
}

// FloatAt returns row i of a FLOAT vector, resolving broadcast.
func (v *Vector) FloatAt(i int) float64 { return v.Floats[v.phys(i)] }

// IntAt returns row i of an INT vector, resolving broadcast.
func (v *Vector) IntAt(i int) int64 { return v.Ints[v.phys(i)] }

// BoolAt returns row i of a BOOL vector, resolving broadcast.
func (v *Vector) BoolAt(i int) bool { return v.Bools[v.phys(i)] }

// StringAt returns row i of a VARCHAR vector, resolving broadcast.
func (v *Vector) StringAt(i int) string { return v.Strings[v.phys(i)] }

// Append adds a raw Go value to the vector, converting compatible types.
func (v *Vector) Append(val any) error {
	switch v.Type {
	case Float:
		switch x := val.(type) {
		case float64:
			v.Floats = append(v.Floats, x)
		case int64:
			v.Floats = append(v.Floats, float64(x))
		case int:
			v.Floats = append(v.Floats, float64(x))
		default:
			return fmt.Errorf("types: cannot append %T to FLOAT vector", val)
		}
	case Int:
		switch x := val.(type) {
		case int64:
			v.Ints = append(v.Ints, x)
		case int:
			v.Ints = append(v.Ints, int64(x))
		default:
			return fmt.Errorf("types: cannot append %T to INT vector", val)
		}
	case Bool:
		x, ok := val.(bool)
		if !ok {
			return fmt.Errorf("types: cannot append %T to BOOL vector", val)
		}
		v.Bools = append(v.Bools, x)
	case String:
		x, ok := val.(string)
		if !ok {
			return fmt.Errorf("types: cannot append %T to VARCHAR vector", val)
		}
		v.Strings = append(v.Strings, x)
	default:
		return fmt.Errorf("types: append to vector of unknown type")
	}
	// Non-NULL appends need no bitmap update: rows beyond the bitmap read
	// as valid.
	return nil
}

// AppendFloats bulk-appends xs to a FLOAT vector.
func (v *Vector) AppendFloats(xs []float64) { v.Floats = append(v.Floats, xs...) }

// resize returns s with length n, reusing capacity when possible. The
// exposed values are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// SetLen resizes the active data slice to n rows, reusing capacity. The
// exposed values are unspecified and the null mask is cleared; kernels
// call this on pooled outputs they fully overwrite.
func (v *Vector) SetLen(n int) {
	switch v.Type {
	case Float:
		v.Floats = resize(v.Floats, n)
	case Int:
		v.Ints = resize(v.Ints, n)
	case Bool:
		v.Bools = resize(v.Bools, n)
	case String:
		v.Strings = resize(v.Strings, n)
	default:
		panic(fmt.Sprintf("types: SetLen of %v", v.Type))
	}
	v.NullBits = v.NullBits[:0]
	v.Const = false
	v.Length = 0
}

// Reset truncates v to zero rows, keeping allocated capacity (string
// references are retained until overwritten; PutVector clears them).
func (v *Vector) Reset() {
	v.Floats = v.Floats[:0]
	v.Ints = v.Ints[:0]
	v.Bools = v.Bools[:0]
	v.Strings = v.Strings[:0]
	v.NullBits = v.NullBits[:0]
	v.Const = false
	v.Length = 0
}

// MarkConst turns v into a broadcast vector of logical length n. The
// caller must have stored exactly one physical row.
func (v *Vector) MarkConst(n int) {
	v.Const = true
	v.Length = n
}

// Disown clears the pooled mark: the vector is escaping into a result
// batch, so no later Put may ever recycle it.
func (v *Vector) Disown() { v.pooled = false }

// Grow reserves capacity for at least n additional rows in the active
// data slice, so a bulk append loop reallocates at most once.
func (v *Vector) Grow(n int) {
	switch v.Type {
	case Float:
		v.Floats = slices.Grow(v.Floats, n)
	case Int:
		v.Ints = slices.Grow(v.Ints, n)
	case Bool:
		v.Bools = slices.Grow(v.Bools, n)
	case String:
		v.Strings = slices.Grow(v.Strings, n)
	}
}

// sliceNulls extracts the bitmap for rows [lo, hi). Word-aligned slices
// share the parent's words zero-copy; unaligned ones (odd morsel sizes)
// rebuild the mask.
func sliceNulls(bits []uint64, lo, hi int) []uint64 {
	if len(bits) == 0 || hi <= lo {
		return nil
	}
	if lo&63 == 0 {
		w := lo >> 6
		if w >= len(bits) {
			return nil
		}
		end := (hi + 63) >> 6
		if end > len(bits) {
			end = len(bits)
		}
		return bits[w:end]
	}
	var out []uint64
	for i := lo; i < hi; i++ {
		w := uint(i) >> 6
		if w < uint(len(bits)) && bits[w]&(1<<(uint(i)&63)) != 0 {
			if out == nil {
				out = make([]uint64, (hi-lo+63)>>6)
			}
			out[uint(i-lo)>>6] |= 1 << (uint(i-lo) & 63)
		}
	}
	return out
}

// Slice returns a zero-copy view of rows [lo, hi).
func (v *Vector) Slice(lo, hi int) *Vector {
	out := &Vector{}
	v.SliceInto(out, lo, hi)
	return out
}

// SliceInto points dst at rows [lo, hi) of v without copying data,
// reusing dst's header. dst is unpooled afterwards: a view over shared
// storage must never be recycled.
func (v *Vector) SliceInto(dst *Vector, lo, hi int) {
	dst.Type = v.Type
	dst.pooled = false
	dst.Floats, dst.Ints, dst.Bools, dst.Strings = nil, nil, nil, nil
	if v.Const {
		dst.Const = true
		dst.Length = hi - lo
		dst.Floats, dst.Ints, dst.Bools, dst.Strings = v.Floats, v.Ints, v.Bools, v.Strings
		dst.NullBits = v.NullBits
		return
	}
	dst.Const = false
	dst.Length = 0
	switch v.Type {
	case Float:
		dst.Floats = v.Floats[lo:hi]
	case Int:
		dst.Ints = v.Ints[lo:hi]
	case Bool:
		dst.Bools = v.Bools[lo:hi]
	case String:
		dst.Strings = v.Strings[lo:hi]
	}
	dst.NullBits = sliceNulls(v.NullBits, lo, hi)
}

// Gather returns a new vector with rows picked by sel, in order.
func (v *Vector) Gather(sel []int) *Vector {
	out := &Vector{Type: v.Type}
	v.GatherInto(out, sel)
	return out
}

// GatherInto overwrites dst with the rows of v picked by sel, reusing
// dst's capacity. dst must not alias v.
func (v *Vector) GatherInto(dst *Vector, sel []int) {
	dst.Type = v.Type
	dst.Const = false
	dst.Length = 0
	dst.NullBits = dst.NullBits[:0]
	n := len(sel)
	if v.Const {
		// Gathering a broadcast repeats its single physical row.
		rep := *v
		rep.Length = n
		dst.Floats, dst.Ints, dst.Bools, dst.Strings = dst.Floats[:0], dst.Ints[:0], dst.Bools[:0], dst.Strings[:0]
		_ = dst.AppendVector(&rep) // same type: cannot fail
		return
	}
	switch v.Type {
	case Float:
		dst.Floats = resize(dst.Floats, n)
		for i, j := range sel {
			dst.Floats[i] = v.Floats[j]
		}
	case Int:
		dst.Ints = resize(dst.Ints, n)
		for i, j := range sel {
			dst.Ints[i] = v.Ints[j]
		}
	case Bool:
		dst.Bools = resize(dst.Bools, n)
		for i, j := range sel {
			dst.Bools[i] = v.Bools[j]
		}
	case String:
		dst.Strings = resize(dst.Strings, n)
		for i, j := range sel {
			dst.Strings[i] = v.Strings[j]
		}
	}
	if v.HasNulls() {
		for i, j := range sel {
			if v.IsNull(j) {
				dst.SetNull(i)
			}
		}
	}
}

// Densify returns v itself when dense, or a materialized copy of a
// broadcast vector with every logical row filled in.
func (v *Vector) Densify() *Vector {
	if !v.Const {
		return v
	}
	out := &Vector{Type: v.Type}
	out.Grow(v.Length)
	_ = out.AppendVector(v) // same type: cannot fail
	return out
}

// AppendFrom appends row i of src (same type) to v without boxing the
// value — the hot path of streaming merges that interleave rows from
// many source batches.
func (v *Vector) AppendFrom(src *Vector, i int) {
	null := src.IsNull(i)
	i = src.phys(i)
	n := v.Len()
	switch v.Type {
	case Float:
		v.Floats = append(v.Floats, src.Floats[i])
	case Int:
		v.Ints = append(v.Ints, src.Ints[i])
	case Bool:
		v.Bools = append(v.Bools, src.Bools[i])
	case String:
		v.Strings = append(v.Strings, src.Strings[i])
	}
	if null {
		v.SetNull(n)
	}
}

// AppendVector appends all rows of src (same type) to v.
func (v *Vector) AppendVector(src *Vector) error {
	if v.Type != src.Type {
		return fmt.Errorf("types: append %v vector to %v vector", src.Type, v.Type)
	}
	n := v.Len()
	m := src.Len()
	if src.Const {
		switch v.Type {
		case Float:
			x := src.Floats[0]
			for k := 0; k < m; k++ {
				v.Floats = append(v.Floats, x)
			}
		case Int:
			x := src.Ints[0]
			for k := 0; k < m; k++ {
				v.Ints = append(v.Ints, x)
			}
		case Bool:
			x := src.Bools[0]
			for k := 0; k < m; k++ {
				v.Bools = append(v.Bools, x)
			}
		case String:
			x := src.Strings[0]
			for k := 0; k < m; k++ {
				v.Strings = append(v.Strings, x)
			}
		}
		if src.IsNull(0) {
			for k := 0; k < m; k++ {
				v.SetNull(n + k)
			}
		}
		return nil
	}
	switch v.Type {
	case Float:
		v.Floats = append(v.Floats, src.Floats...)
	case Int:
		v.Ints = append(v.Ints, src.Ints...)
	case Bool:
		v.Bools = append(v.Bools, src.Bools...)
	case String:
		v.Strings = append(v.Strings, src.Strings...)
	}
	if src.HasNulls() {
		v.growNulls(n + m)
		for i := 0; i < m; i++ {
			if src.IsNull(i) {
				v.NullBits[uint(n+i)>>6] |= 1 << (uint(n+i) & 63)
			}
		}
	}
	return nil
}

// ConstFloat builds a broadcast FLOAT vector: one physical row repeated n
// times logically.
func ConstFloat(x float64, n int) *Vector {
	return &Vector{Type: Float, Floats: []float64{x}, Const: true, Length: n}
}

// ConstInt builds a broadcast INT vector of logical length n.
func ConstInt(x int64, n int) *Vector {
	return &Vector{Type: Int, Ints: []int64{x}, Const: true, Length: n}
}

// ConstBool builds a broadcast BOOL vector of logical length n.
func ConstBool(x bool, n int) *Vector {
	return &Vector{Type: Bool, Bools: []bool{x}, Const: true, Length: n}
}

// ConstString builds a broadcast VARCHAR vector of logical length n.
func ConstString(x string, n int) *Vector {
	return &Vector{Type: String, Strings: []string{x}, Const: true, Length: n}
}
