package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"raven"
	"raven/internal/types"
)

// TestNonFiniteFloatsOverWire: a NaN or ±Inf FLOAT used to end the HTTP
// stream after its header (encoding/json refuses them, and the failed
// Encode read as a client hang-up), losing the finite rows and the
// trailer. They travel as the strings "NaN", "Infinity", "-Infinity".
func TestNonFiniteFloatsOverWire(t *testing.T) {
	c, _, _ := startServer(t, raven.MustOpen(), Options{})
	if _, err := c.QueryContext(context.Background(), QueryRequest{SQL: `CREATE TABLE t (id INT PRIMARY KEY, x FLOAT);
		INSERT INTO t VALUES (1, 0.0), (2, 2.0), (3, 4.0)`}); err != nil {
		t.Fatal(err)
	}
	res, err := c.QueryContext(context.Background(), QueryRequest{SQL: `SELECT t.id, t.x / t.x AS y, 1.0 / t.x AS p, -1.0 / t.x AS m FROM t`})
	if err != nil {
		t.Fatal(err)
	}
	want := "1\tNaN\tInfinity\t-Infinity\n2\t1\t0.5\t-0.5\n3\t1\t0.25\t-0.25\n"
	if got := res.Fingerprint(); got != want || res.Trailer.Rows != 3 {
		t.Fatalf("rows %q (trailer %d), want %q", got, res.Trailer.Rows, want)
	}
}

// jsonOracle is what the stream carried before rows were encoded from
// typed vectors: json.Marshal of the row's boxed values, one line each —
// with the non-finite FLOATs, which it refuses, as their strings.
func jsonOracle(t *testing.T, b *types.Batch) []byte {
	t.Helper()
	var out []byte
	for i := 0; i < b.Len(); i++ {
		row := b.Row(i)
		for k, v := range row {
			switch f, _ := v.(float64); {
			case math.IsNaN(f):
				row[k] = "NaN"
			case math.IsInf(f, 1):
				row[k] = "Infinity"
			case math.IsInf(f, -1):
				row[k] = "-Infinity"
			}
		}
		line, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, line...), '\n')
	}
	return out
}

// FuzzNDJSONRow: two rows of (INT, FLOAT, BOOL, VARCHAR) encode byte for
// byte as jsonOracle does. shape's low 8 bits make cells NULL (bit
// 2*column+row) and bits 8–11 make a column a broadcast vector holding
// its row-0 value (and row-0 NULL bit).
func FuzzNDJSONRow(f *testing.F) {
	f.Add(int64(1), int64(-2), 2.5, 1e-7, true, "plain", "<a&b>", uint16(0))
	f.Add(int64(math.MaxInt64), int64(math.MinInt64), 1e21, 999999999999999999999.0, false, "  ", "\x00\x1f\"\\", uint16(0x0f0f))
	f.Add(int64(0), int64(0), math.Copysign(0, -1), 5e-324, true, "\xff\xfe", "é", uint16(0x00a5))
	f.Fuzz(func(t *testing.T, i0, i1 int64, x0, x1 float64, b bool, s0, s1 string, shape uint16) {
		sch := types.NewSchema(
			types.Column{Name: "i", Type: types.Int}, types.Column{Name: "x", Type: types.Float},
			types.Column{Name: "b", Type: types.Bool}, types.Column{Name: "s", Type: types.String})
		vals := [4][2]any{{i0, i1}, {x0, x1}, {b, !b}, {s0, s1}}
		batch := &types.Batch{Schema: sch, Vecs: make([]*types.Vector, 4)}
		for c, col := range sch.Columns {
			v := types.NewVector(col.Type, 0)
			rows := 2
			if shape>>(8+c)&1 != 0 {
				rows = 1
			}
			for r := 0; r < rows; r++ {
				if err := v.Append(vals[c][r]); err != nil {
					t.Fatal(err)
				}
				if shape>>(2*c+r)&1 != 0 {
					v.SetNull(r)
				}
			}
			if rows == 1 {
				v.MarkConst(2)
			}
			batch.Vecs[c] = v
		}
		var got bytes.Buffer
		if _, err := writeBatch(&got, nil, batch); err != nil {
			t.Fatal(err)
		}
		if want := jsonOracle(t, batch); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("encoded\n%q\nwant\n%q", got.Bytes(), want)
		}
	})
}

// TestWriteBatchWritesPerBatch: one Write per batch while the buffer
// stays under writeAt, one more each time it passes it, and the lines
// are the oracle's either way.
func TestWriteBatchWritesPerBatch(t *testing.T) {
	for _, tc := range []struct {
		rows, width, writes int
	}{{1, 1, 1}, {2000, 1, 1}, {2000, 100, 7}} {
		sch := types.NewSchema(types.Column{Name: "k", Type: types.Int}, types.Column{Name: "s", Type: types.String})
		b := types.NewBatch(sch)
		for i := 0; i < tc.rows; i++ {
			b.AppendRow(int64(i), strings.Repeat("v", tc.width))
		}
		w := &countingWriter{}
		if _, err := writeBatch(w, nil, b); err != nil {
			t.Fatal(err)
		}
		if w.writes != tc.writes || !bytes.Equal(w.Bytes(), jsonOracle(t, b)) {
			t.Errorf("%d rows × %d bytes: %d writes (want %d), oracle match %v",
				tc.rows, tc.width, w.writes, tc.writes, bytes.Equal(w.Bytes(), jsonOracle(t, b)))
		}
	}
}

type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// BenchmarkStreamRows is one 2,000-row (INT, FLOAT) result over a
// loopback HTTP connection, the response body read and discarded.
func BenchmarkStreamRows(b *testing.B) {
	db := raven.MustOpen()
	c, _, hc := startServer(b, db, Options{})
	var ins strings.Builder
	ins.WriteString("CREATE TABLE r (k INT PRIMARY KEY, v FLOAT); INSERT INTO r VALUES ")
	for i := 0; i < 2000; i++ {
		if i > 0 {
			ins.WriteByte(',')
		}
		fmt.Fprintf(&ins, "(%d, %g)", i, float64(i)*1.37+0.001)
	}
	if _, err := c.QueryContext(context.Background(), QueryRequest{SQL: ins.String()}); err != nil {
		b.Fatal(err)
	}
	body := []byte(`{"sql":"SELECT k, v FROM r"}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := hc.Post(c.Base+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || n < 2000*10 {
			b.Fatalf("status %d, %d bytes", resp.StatusCode, n)
		}
	}
}
