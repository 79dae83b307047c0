// Package segment implements immutable columnar segment files: when a
// durable table's in-memory tail reaches the configured row count it is
// sealed into one of these, and scans stream it back without ever
// materializing the whole segment — which is what lets a table exceed
// RAM.
//
// File layout:
//
//	[magic "RVNSEG1\x00"]
//	column blocks, back to back (offsets recorded in the footer):
//	    [null words, 8·⌈rows/64⌉ bytes, present only when the column has NULLs]
//	    [data: FLOAT/INT 8·rows LE; BOOL rows bytes;
//	           VARCHAR (rows+1)·u32 cumulative offsets then the blob]
//	[footer JSON]
//	[footerLen u32][footerCRC u32][magic "RVNSFTR1"]
//
// The footer carries per-column offsets, min/max statistics and the row
// count, plus a CRC32C over every byte before it; the trailer carries a
// CRC over the footer itself. Open verifies the trailer and footer —
// cheap, constant-size reads — and Verify streams the data CRC, which
// recovery runs once per segment before trusting it.
package segment

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"

	"raven/internal/types"
)

var (
	fileMagic    = []byte("RVNSEG1\x00")
	trailerMagic = []byte("RVNSFTR1")
	castagnoli   = crc32.MakeTable(crc32.Castagnoli)
)

const trailerSize = 16 // footerLen + footerCRC + trailerMagic

// colMeta locates and summarizes one column block.
type colMeta struct {
	Name  string  `json:"name"`
	Type  uint8   `json:"type"`
	Off   int64   `json:"off"`
	Len   int64   `json:"len"`
	Nulls bool    `json:"nulls,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	// HasStats marks Min/Max as bounds on every non-NULL row: numeric or
	// BOOL, some row non-NULL, none NaN (which the engine's comparisons
	// find equal to anything) or ±Inf (which JSON cannot hold). The key
	// replaces "has_stats", which older writers set over NaN.
	HasStats bool `json:"bounds,omitempty"`
}

type footer struct {
	Rows    int       `json:"rows"`
	Cols    []colMeta `json:"cols"`
	DataCRC uint32    `json:"data_crc"`
}

// CorruptError reports a segment file that failed structural or checksum
// validation; recovery quarantines the file and surfaces the reason.
type CorruptError struct {
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("segment: corrupt segment %s: %s", e.Path, e.Reason)
}

// Write seals a batch into a new segment file at path, fsyncing before
// returning so a logged SEAL record never references a file the disk
// does not yet have. The batch must be fully dense (table tails are).
func Write(path string, b *types.Batch) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	crcW := &crcWriter{w: f}
	if _, err := crcW.Write(fileMagic); err != nil {
		return err
	}
	rows := b.Len()
	ft := footer{Rows: rows}
	for i, v := range b.Vecs {
		v = v.Densify()
		cm := colMeta{
			Name: b.Schema.Columns[i].Name,
			Type: uint8(v.Type),
			Off:  crcW.n,
		}
		block, err := encodeColumn(v, rows)
		if err != nil {
			return fmt.Errorf("segment: column %s: %w", cm.Name, err)
		}
		cm.Nulls = block.nulls != nil
		if _, err := crcW.Write(block.nulls); err != nil {
			return err
		}
		if _, err := crcW.Write(block.data); err != nil {
			return err
		}
		cm.Len = crcW.n - cm.Off
		cm.Min, cm.Max, cm.HasStats = ColumnMinMax(v, rows)
		ft.Cols = append(ft.Cols, cm)
	}
	ft.DataCRC = crcW.crc
	fb, err := json.Marshal(&ft)
	if err != nil {
		return err
	}
	trailer := make([]byte, trailerSize)
	binary.LittleEndian.PutUint32(trailer[0:4], uint32(len(fb)))
	binary.LittleEndian.PutUint32(trailer[4:8], crc32.Checksum(fb, castagnoli))
	copy(trailer[8:], trailerMagic)
	if _, err := f.Write(fb); err != nil {
		return err
	}
	if _, err := f.Write(trailer); err != nil {
		return err
	}
	return f.Sync()
}

// crcWriter tees writes into a running CRC32C and byte count.
type crcWriter struct {
	w   io.Writer
	n   int64
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	c.n += int64(n)
	return n, err
}

// columnBlock is one encoded column: the optional null words followed by
// the type-specific data bytes.
type columnBlock struct {
	nulls []byte
	data  []byte
}

// encodeColumn serializes a dense vector of rows rows. Shared by the
// segment writer and the WAL batch codec so both framings carry the
// same bytes.
func encodeColumn(v *types.Vector, rows int) (*columnBlock, error) {
	if v.Len() != rows {
		return nil, fmt.Errorf("column has %d rows, want %d", v.Len(), rows)
	}
	b := &columnBlock{}
	if v.HasNulls() {
		words := make([]uint64, (rows+63)/64)
		for i := 0; i < rows; i++ {
			if v.IsNull(i) {
				words[i>>6] |= 1 << (uint(i) & 63)
			}
		}
		b.nulls = make([]byte, 8*len(words))
		for i, w := range words {
			binary.LittleEndian.PutUint64(b.nulls[8*i:], w)
		}
	}
	switch v.Type {
	case types.Float:
		b.data = make([]byte, 8*rows)
		for i, x := range v.Floats {
			binary.LittleEndian.PutUint64(b.data[8*i:], math.Float64bits(x))
		}
	case types.Int:
		b.data = make([]byte, 8*rows)
		for i, x := range v.Ints {
			binary.LittleEndian.PutUint64(b.data[8*i:], uint64(x))
		}
	case types.Bool:
		b.data = make([]byte, rows)
		for i, x := range v.Bools {
			if x {
				b.data[i] = 1
			}
		}
	case types.String:
		var blob int
		for _, s := range v.Strings {
			blob += len(s)
		}
		b.data = make([]byte, 4*(rows+1)+blob)
		off := uint32(0)
		for i, s := range v.Strings {
			binary.LittleEndian.PutUint32(b.data[4*i:], off)
			off += uint32(len(s))
		}
		binary.LittleEndian.PutUint32(b.data[4*rows:], off)
		pos := 4 * (rows + 1)
		for _, s := range v.Strings {
			pos += copy(b.data[pos:], s)
		}
	default:
		return nil, fmt.Errorf("unsupported column type %v", v.Type)
	}
	return b, nil
}

// ColumnMinMax computes min/max over non-NULL rows of a numeric column,
// reporting none when a row is NaN or ±Inf (see colMeta.HasStats).
func ColumnMinMax(v *types.Vector, rows int) (lo, hi float64, ok bool) {
	if !v.Type.IsNumeric() && v.Type != types.Bool {
		return 0, 0, false
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < rows; i++ {
		if v.IsNull(i) {
			continue
		}
		x := v.AsFloat(i)
		if x != x { // NaN
			return 0, 0, false
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
		ok = true
	}
	if !ok || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return 0, 0, false
	}
	return lo, hi, true
}

// Reader serves row ranges out of one sealed segment file. Reads go
// through ReadAt, so a Reader is safe for concurrent scans.
type Reader struct {
	path string
	f    *os.File
	ft   footer
	// dataEnd is where the footer begins; Verify checksums [0, dataEnd).
	dataEnd int64
}

// Open validates the trailer and footer of the segment at path and
// returns a reader over it. Structural damage — truncation, a torn or
// overwritten footer, a checksum mismatch — comes back as *CorruptError.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	corrupt := func(reason string) (*Reader, error) {
		f.Close()
		return nil, &CorruptError{Path: path, Reason: reason}
	}
	if st.Size() < int64(len(fileMagic))+trailerSize {
		return corrupt(fmt.Sprintf("file too short (%d bytes)", st.Size()))
	}
	trailer := make([]byte, trailerSize)
	if _, err := f.ReadAt(trailer, st.Size()-trailerSize); err != nil {
		f.Close()
		return nil, err
	}
	if !bytes.Equal(trailer[8:], trailerMagic) {
		return corrupt("bad trailer magic")
	}
	ftLen := int64(binary.LittleEndian.Uint32(trailer[0:4]))
	ftCRC := binary.LittleEndian.Uint32(trailer[4:8])
	dataEnd := st.Size() - trailerSize - ftLen
	if ftLen <= 0 || dataEnd < int64(len(fileMagic)) {
		return corrupt("bad footer length")
	}
	fb := make([]byte, ftLen)
	if _, err := f.ReadAt(fb, dataEnd); err != nil {
		f.Close()
		return nil, err
	}
	if crc32.Checksum(fb, castagnoli) != ftCRC {
		return corrupt("footer checksum mismatch")
	}
	var ft footer
	if err := json.Unmarshal(fb, &ft); err != nil {
		return corrupt("footer unreadable: " + err.Error())
	}
	magic := make([]byte, len(fileMagic))
	if _, err := f.ReadAt(magic, 0); err != nil || !bytes.Equal(magic, fileMagic) {
		return corrupt("bad file magic")
	}
	for _, c := range ft.Cols {
		if c.Off < int64(len(fileMagic)) || c.Off+c.Len > dataEnd {
			return corrupt(fmt.Sprintf("column %s block out of bounds", c.Name))
		}
	}
	return &Reader{path: path, f: f, ft: ft, dataEnd: dataEnd}, nil
}

// Path returns the segment's file path.
func (r *Reader) Path() string { return r.path }

// Rows returns the segment's row count.
func (r *Reader) Rows() int { return r.ft.Rows }

// Stats returns (min, max, true) for a numeric column with at least one
// non-NULL row and no NaN or ±Inf, as recorded at seal time.
func (r *Reader) Stats(col int) (lo, hi float64, ok bool) {
	c := r.ft.Cols[col]
	return c.Min, c.Max, c.HasStats
}

// HasNulls reports whether any row of the column is NULL. Stats skip
// NULL rows, but a NULL row keeps a value slot that filters compare.
func (r *Reader) HasNulls(col int) bool { return r.ft.Cols[col].Nulls }

// Bytes returns the segment file size in bytes.
func (r *Reader) Bytes() int64 { return r.dataEnd + trailerSize }

// Close releases the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// Verify streams the whole data area and checks it against the footer's
// CRC32C. Recovery runs this once per manifest segment before serving
// from it.
func (r *Reader) Verify() error {
	var crc uint32
	buf := make([]byte, 256<<10)
	var off int64
	for off < r.dataEnd {
		n := int64(len(buf))
		if off+n > r.dataEnd {
			n = r.dataEnd - off
		}
		m, err := r.f.ReadAt(buf[:n], off)
		crc = crc32.Update(crc, castagnoli, buf[:m])
		off += int64(m)
		if err != nil && !(err == io.EOF && off == r.dataEnd) {
			return err
		}
	}
	if crc != r.ft.DataCRC {
		return &CorruptError{Path: r.path, Reason: "data checksum mismatch"}
	}
	return nil
}

// ReadColumnRange appends rows [lo, hi) of column col to dst, including
// NULL marks. dst must have the column's type.
func (r *Reader) ReadColumnRange(col, lo, hi int, dst *types.Vector) error {
	if lo < 0 || hi > r.ft.Rows || lo > hi {
		return fmt.Errorf("segment: range [%d,%d) out of %d rows", lo, hi, r.ft.Rows)
	}
	if lo == hi {
		return nil
	}
	cm := r.ft.Cols[col]
	n := hi - lo
	dataOff := cm.Off
	if cm.Nulls {
		dataOff += int64(8 * ((r.ft.Rows + 63) / 64))
	}
	bufp := scratchPool.Get().(*[]byte)
	defer scratchPool.Put(bufp)
	switch typ := types.DataType(cm.Type); typ {
	case types.Float, types.Int, types.Bool:
		w := width(typ)
		raw := scratch(bufp, w*n)
		if _, err := r.f.ReadAt(raw, dataOff+int64(w*lo)); err != nil {
			return err
		}
		decodeFixed(dst, raw, n)
	case types.String:
		// The offsets, then the blob they index, share the buffer; the blob
		// must fit the column block before it is read (Open checks no data).
		blobAt := 4 * (n + 1)
		raw := scratch(bufp, blobAt)
		if _, err := r.f.ReadAt(raw, dataOff+int64(4*lo)); err != nil {
			return err
		}
		first, last := binary.LittleEndian.Uint32(raw), binary.LittleEndian.Uint32(raw[4*n:])
		blobOff := dataOff + int64(4*(r.ft.Rows+1)) + int64(first)
		if last < first || blobOff+int64(last-first) > cm.Off+cm.Len {
			return &CorruptError{Path: r.path, Reason: fmt.Sprintf("column %s: VARCHAR offsets past the column block", cm.Name)}
		}
		raw = scratch(bufp, blobAt+int(last-first))
		if _, err := r.f.ReadAt(raw[blobAt:], blobOff); err != nil {
			return err
		}
		if err := decodeStrings(dst, raw[:blobAt], raw[blobAt:], first, n); err != nil {
			return &CorruptError{Path: r.path, Reason: fmt.Sprintf("column %s: %v", cm.Name, err)}
		}
	default:
		return fmt.Errorf("segment: unsupported column type %v", typ)
	}
	if cm.Nulls {
		// Read only the words covering [lo, hi).
		w0, w1 := lo/64, (hi+63)/64
		raw := scratch(bufp, 8*(w1-w0))
		if _, err := r.f.ReadAt(raw, cm.Off+int64(8*w0)); err != nil {
			return err
		}
		markNulls(dst, raw, lo, hi)
	}
	return nil
}

// scratchPool recycles ReadColumnRange's raw read buffers. A buffer
// belongs to one call, which copies every value out before returning it.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// scratch returns the call's buffer resized to n bytes, keeping the
// bytes it already holds.
func scratch(p *[]byte, n int) []byte {
	if cap(*p) < n {
		grown := make([]byte, n)
		copy(grown, *p)
		*p = grown
	}
	*p = (*p)[:n]
	return *p
}

// Quarantine renames a damaged segment file aside (path + ".quarantined")
// so recovery can proceed loudly without destroying the evidence.
func Quarantine(path string) (string, error) {
	q := path + ".quarantined"
	if err := os.Rename(path, q); err != nil {
		return "", err
	}
	return q, nil
}
