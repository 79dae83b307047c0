package segment

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"raven/internal/types"
)

func testSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "f", Type: types.Float},
		types.Column{Name: "i", Type: types.Int},
		types.Column{Name: "b", Type: types.Bool},
		types.Column{Name: "s", Type: types.String},
	)
}

// testBatch builds n rows with NULLs sprinkled over every column.
func testBatch(n int) *types.Batch {
	b := types.NewBatch(testSchema())
	for i := 0; i < n; i++ {
		if err := b.AppendRow(float64(i)*1.5, int64(i*7-3), i%3 == 0, fmt.Sprintf("row-%d", i)); err != nil {
			panic(err)
		}
	}
	for i := 0; i < n; i += 11 {
		b.Vecs[0].SetNull(i)
	}
	for i := 5; i < n; i += 13 {
		b.Vecs[3].SetNull(i)
	}
	return b
}

func batchEqual(t *testing.T, a, b *types.Batch) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("row counts differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		for j := range a.Vecs {
			av, bv := a.Vecs[j].Value(i), b.Vecs[j].Value(i)
			if av != bv {
				t.Fatalf("row %d col %d: %v != %v", i, j, av, bv)
			}
		}
	}
}

func TestWriteOpenRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.seg")
	b := testBatch(300)
	if err := Write(path, b); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Rows() != 300 {
		t.Fatalf("rows = %d", r.Rows())
	}
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	got := types.NewBatch(testSchema())
	for c := range got.Vecs {
		if err := r.ReadColumnRange(c, 0, 300, got.Vecs[c]); err != nil {
			t.Fatal(err)
		}
	}
	batchEqual(t, b, got)
	// Min/max stats recorded for the numeric columns, skipping NULLs:
	// row 0's float is NULL, so the min comes from row 11... the smallest
	// non-NULL float row is row 1 (1.5).
	lo, hi, ok := r.Stats(0)
	if !ok || lo != 1.5 || hi != 299*1.5 {
		t.Fatalf("float stats = %v %v %v", lo, hi, ok)
	}
	if _, _, ok := r.Stats(3); ok {
		t.Fatal("string column reported stats")
	}
}

// TestWriteNonFiniteFloats: a FLOAT column holding NaN or ±Inf seals
// (JSON cannot encode infinite bounds) and reports no stats, since no
// interval bounds what the engine's comparisons see in it.
func TestWriteNonFiniteFloats(t *testing.T) {
	for name, vals := range map[string][]float64{
		"all NaN":   {math.NaN(), math.NaN()},
		"mixed NaN": {1, math.NaN(), 3},
		"+Inf":      {1, math.Inf(1)},
		"-Inf":      {math.Inf(-1), 2},
	} {
		b := types.NewBatch(types.NewSchema(types.Column{Name: "f", Type: types.Float}))
		for _, v := range vals {
			_ = b.AppendRow(v)
		}
		path := filepath.Join(t.TempDir(), "t.seg")
		if err := Write(path, b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r, err := Open(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, _, ok := r.Stats(0); ok {
			t.Errorf("%s: column reported stats", name)
		}
		r.Close()
	}
}

// TestRangeReads checks arbitrary sub-ranges, including ones that are
// not word-aligned in the null bitmap.
func TestRangeReads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.seg")
	b := testBatch(500)
	if err := Write(path, b); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, rng := range [][2]int{{0, 1}, {63, 65}, {100, 300}, {499, 500}, {200, 200}} {
		lo, hi := rng[0], rng[1]
		got := types.NewBatch(testSchema())
		for c := range got.Vecs {
			if err := r.ReadColumnRange(c, lo, hi, got.Vecs[c]); err != nil {
				t.Fatal(err)
			}
		}
		want := b.Slice(lo, hi)
		batchEqual(t, want, got)
	}
}

// BenchmarkReadColumnRange decodes one 4,096-row morsel of each column
// type out of a 16,384-row segment into a reused vector, so allocs/op
// counts the reader's own garbage.
func BenchmarkReadColumnRange(b *testing.B) {
	path := filepath.Join(b.TempDir(), "t.seg")
	if err := Write(path, testBatch(16384)); err != nil {
		b.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	for c, col := range testSchema().Columns {
		b.Run(col.Type.String(), func(b *testing.B) {
			dst := types.NewVector(col.Type, 0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst.Reset()
				lo := (i % 4) * 4096
				if err := r.ReadColumnRange(c, lo, lo+4096, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestCodecRoundtrip(t *testing.T) {
	b := testBatch(200)
	data, err := EncodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(testSchema(), data)
	if err != nil {
		t.Fatal(err)
	}
	batchEqual(t, b, got)
	// Truncations anywhere must error, never panic or misread.
	for cut := 0; cut < len(data); cut += 97 {
		if _, err := DecodeBatch(testSchema(), data[:cut]); err == nil {
			t.Fatalf("truncated payload at %d decoded", cut)
		}
	}
	// A schema mismatch is rejected.
	other := types.NewSchema(types.Column{Name: "x", Type: types.Float})
	if _, err := DecodeBatch(other, data); err == nil {
		t.Fatal("decoded against wrong schema")
	}
}

func TestOpenDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.seg")
	if err := Write(path, testBatch(100)); err != nil {
		t.Fatal(err)
	}
	full, _ := os.ReadFile(path)

	cases := map[string]func([]byte) []byte{
		"truncated":       func(b []byte) []byte { return b[:len(b)/2] },
		"trailer smashed": func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)-1] ^= 0xFF; return c },
		"footer bitflip":  func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)-trailerSize-2] ^= 0x01; return c },
		"too short":       func(b []byte) []byte { return b[:4] },
	}
	for name, mutate := range cases {
		if err := os.WriteFile(path, mutate(full), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path)
		if err == nil {
			r.Close()
			t.Fatalf("%s: Open accepted corrupt file", name)
		}
		var ce *CorruptError
		if !asCorrupt(err, &ce) {
			t.Fatalf("%s: error %v is not a CorruptError", name, err)
		}
	}

	// A bitflip in the data area passes Open (the footer is intact) but
	// fails the streamed Verify.
	c := append([]byte(nil), full...)
	c[len(fileMagic)+5] ^= 0x10
	if err := os.WriteFile(path, c, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Verify(); err == nil {
		t.Fatal("Verify accepted corrupt data")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("Verify error %v does not name the checksum", err)
	}
}

func TestQuarantine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.seg")
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := Quarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("original still present")
	}
	if _, err := os.Stat(q); err != nil {
		t.Fatal("quarantined copy missing")
	}
}

func asCorrupt(err error, target **CorruptError) bool {
	ce, ok := err.(*CorruptError)
	if ok {
		*target = ce
	}
	return ok
}
