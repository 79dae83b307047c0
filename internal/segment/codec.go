package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"raven/internal/types"
)

// EncodeBatch serializes a batch as a WAL append payload, using the same
// per-column encoding as segment files:
//
//	[rows u32][ncols u16]
//	per column: [type u8][hasNulls u8][null words][data]
//
// Column order and types are the table schema's; DecodeBatch checks them
// against the live schema at replay, so a WAL written against one
// schema cannot silently replay into another.
func EncodeBatch(b *types.Batch) ([]byte, error) {
	rows := b.Len()
	out := make([]byte, 6, 6+16*rows)
	binary.LittleEndian.PutUint32(out[0:4], uint32(rows))
	binary.LittleEndian.PutUint16(out[4:6], uint16(len(b.Vecs)))
	for i, v := range b.Vecs {
		v = v.Densify()
		block, err := encodeColumn(v, rows)
		if err != nil {
			return nil, fmt.Errorf("segment: encode column %s: %w", b.Schema.Columns[i].Name, err)
		}
		hasNulls := byte(0)
		if block.nulls != nil {
			hasNulls = 1
		}
		out = append(out, byte(v.Type), hasNulls)
		out = append(out, block.nulls...)
		out = append(out, block.data...)
	}
	return out, nil
}

// DecodeBatch parses a payload written by EncodeBatch into a fresh batch
// with the given schema.
func DecodeBatch(schema *types.Schema, data []byte) (*types.Batch, error) {
	bad := func(reason string) (*types.Batch, error) {
		return nil, fmt.Errorf("segment: decode batch: %s", reason)
	}
	if len(data) < 6 {
		return bad("payload too short")
	}
	rows := int(binary.LittleEndian.Uint32(data[0:4]))
	ncols := int(binary.LittleEndian.Uint16(data[4:6]))
	if ncols != schema.Len() {
		return bad(fmt.Sprintf("%d columns, schema has %d", ncols, schema.Len()))
	}
	pos := 6
	b := types.NewBatch(schema)
	for c := 0; c < ncols; c++ {
		if pos+2 > len(data) {
			return bad("truncated column header")
		}
		typ := types.DataType(data[pos])
		hasNulls := data[pos+1] != 0
		pos += 2
		if typ != schema.Columns[c].Type {
			return bad(fmt.Sprintf("column %s is %v in payload, %v in schema",
				schema.Columns[c].Name, typ, schema.Columns[c].Type))
		}
		var nulls []byte
		if hasNulls {
			nw := (rows + 63) / 64
			if pos+8*nw > len(data) {
				return bad("truncated null words")
			}
			nulls = data[pos : pos+8*nw]
			pos += 8 * nw
		}
		v := b.Vecs[c]
		switch typ {
		case types.Float, types.Int, types.Bool:
			w := width(typ)
			if pos+w*rows > len(data) {
				return bad(fmt.Sprintf("truncated %v data", typ))
			}
			decodeFixed(v, data[pos:], rows)
			pos += w * rows
		case types.String:
			if pos+4*(rows+1) > len(data) {
				return bad("truncated VARCHAR offsets")
			}
			offs := data[pos : pos+4*(rows+1)]
			pos += 4 * (rows + 1)
			blobLen := int(binary.LittleEndian.Uint32(offs[4*rows:]))
			if pos+blobLen > len(data) {
				return bad("truncated VARCHAR blob")
			}
			if err := decodeStrings(v, offs, data[pos:pos+blobLen], 0, rows); err != nil {
				return bad(err.Error())
			}
			pos += blobLen
		default:
			return bad(fmt.Sprintf("unsupported column type %v", typ))
		}
		if nulls != nil {
			markNulls(v, nulls, 0, rows)
		}
	}
	if pos != len(data) {
		return bad("trailing bytes")
	}
	return b, nil
}

// width is the encoded size of one FLOAT, INT or BOOL value.
func width(t types.DataType) int {
	if t == types.Bool {
		return 1
	}
	return 8
}

// decodeFixed appends the n FLOAT, INT or BOOL values encoded in raw to
// dst, which has their type.
func decodeFixed(dst *types.Vector, raw []byte, n int) {
	le := binary.LittleEndian
	dst.Grow(n)
	switch dst.Type {
	case types.Float:
		for i := 0; i < n; i++ {
			dst.Floats = append(dst.Floats, math.Float64frombits(le.Uint64(raw[8*i:])))
		}
	case types.Int:
		for i := 0; i < n; i++ {
			dst.Ints = append(dst.Ints, int64(le.Uint64(raw[8*i:])))
		}
	case types.Bool:
		for i := 0; i < n; i++ {
			dst.Bools = append(dst.Bools, raw[i] != 0)
		}
	}
}

// decodeStrings appends the n strings that offs — n+1 cumulative u32
// offsets — index into blob, which holds the bytes from offset base on.
// Offsets that decrease or leave blob are refused: trusted, they would
// wrap into a ≈4 GiB length.
func decodeStrings(dst *types.Vector, offs, blob []byte, base uint32, n int) error {
	at := func(i int) uint32 { return binary.LittleEndian.Uint32(offs[4*i:]) }
	for i := 0; i < n; i++ {
		if at(i) > at(i+1) {
			return errors.New("VARCHAR offsets out of order")
		}
	}
	first, last := at(0), at(n)
	if first < base || int64(last-base) > int64(len(blob)) {
		return errors.New("VARCHAR offsets past the blob")
	}
	all := string(blob[first-base : last-base]) // one allocation; rows are substrings
	dst.Grow(n)
	for i := 0; i < n; i++ {
		dst.Strings = append(dst.Strings, all[at(i)-first:at(i+1)-first])
	}
	return nil
}

// markNulls marks NULL each row i of [lo, hi), the last hi-lo rows of
// dst, whose bit is set in words: the little-endian null words from word
// lo/64 on.
func markNulls(dst *types.Vector, words []byte, lo, hi int) {
	base := dst.Len() - (hi - lo)
	for i := lo; i < hi; i++ {
		if binary.LittleEndian.Uint64(words[8*(i/64-lo/64):])&(1<<(uint(i)&63)) != 0 {
			dst.SetNull(base + i - lo)
		}
	}
}
