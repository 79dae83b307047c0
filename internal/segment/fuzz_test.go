package segment

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"raven/internal/types"
)

// fuzzRows is the row count of the segment FuzzSegmentReader damages.
const fuzzRows = 100

// FuzzSegmentReader overwrites bytes of a valid segment's data area —
// which Open does not checksum, so the file still opens — and reads a
// fuzzed row range of a fuzzed column back. The read must return an
// error or the rows asked for, never panic, and never allocate more
// than twice the column block plus the decoded rows themselves.
func FuzzSegmentReader(f *testing.F) {
	f.Add(true, uint16(0), []byte{0xff}, uint8(0), uint16(0), uint16(fuzzRows))
	f.Add(false, uint16(900), []byte{1, 2, 3, 4}, uint8(1), uint16(10), uint16(90))
	f.Add(true, uint16(2000), []byte{0x80}, uint8(2), uint16(63), uint16(65))
	f.Add(false, uint16(2500), []byte{0xff, 0xff, 0xff, 0xff}, uint8(3), uint16(0), uint16(fuzzRows))
	f.Fuzz(func(t *testing.T, nulls bool, at uint16, patch []byte, col uint8, lo, hi uint16) {
		b := testBatch(fuzzRows)
		if !nulls {
			for _, v := range b.Vecs {
				v.NullBits = nil
			}
		}
		path := filepath.Join(t.TempDir(), "f.seg")
		if err := Write(path, b); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		dataEnd := r.dataEnd
		r.Close()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data := raw[len(fileMagic):dataEnd]
		copy(data[int(at)%len(data):], patch)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err = Open(path); err != nil {
			t.Fatalf("damage to the data area failed Open: %v", err)
		}
		defer r.Close()

		c := int(col) % len(r.ft.Cols)
		l, h := int(lo)%(fuzzRows+2)-1, int(hi)%(fuzzRows+2) // a few out of range
		dst := types.NewVector(types.DataType(r.ft.Cols[c].Type), 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = r.ReadColumnRange(c, l, h, dst)
		runtime.ReadMemStats(&after)
		if err == nil && dst.Len() != h-l {
			t.Fatalf("read [%d,%d) of column %d returned %d rows", l, h, c, dst.Len())
		}
		limit := 2*r.ft.Cols[c].Len + int64(24*max(h-l, 0)) + 4096
		if got := int64(after.TotalAlloc - before.TotalAlloc); got > limit {
			t.Fatalf("read [%d,%d) of column %d allocated %d bytes, column block is %d", l, h, c, got, r.ft.Cols[c].Len)
		}
	})
}
