package pgwire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"raven"
	"raven/internal/server"
	"raven/internal/storage"
	"raven/internal/types"
)

// writeDataRow is the DataRow writer rows went through before they were
// formatted from typed vectors: one boxed value per column, formatted
// through a heap string. Kept as the oracle for writeRows.
func (c *conn) writeDataRow(vals []any) bool {
	c.buf.start(msgDataRow)
	c.buf.int16(len(vals))
	for _, v := range vals {
		if v == nil {
			c.buf.int32(-1)
			continue
		}
		var s string
		switch x := v.(type) {
		case int64:
			s = strconv.FormatInt(x, 10)
		case float64:
			s = strconv.FormatFloat(x, 'g', -1, 64)
		case bool:
			if x {
				s = "t"
			} else {
				s = "f"
			}
		case string:
			s = x
		default:
			s = fmt.Sprintf("%v", x)
		}
		c.buf.int32(len(s))
		c.buf.bytes([]byte(s))
	}
	return c.buf.finish(c.w) == nil
}

// TestDataRowsMatchOracle: writeRows sends the bytes writeDataRow sent
// for the same values — random INT/FLOAT/BOOL/VARCHAR columns with NULLs
// and broadcast columns, finite FLOATs at the spelling boundaries.
func TestDataRowsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	floats := []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 1234567, 1e21, 1e300,
		-2.5, math.MaxFloat64, 0.1, 1.0 / 3}
	ints := []int64{0, -1, 1234567, math.MaxInt64, math.MinInt64}
	strs := []string{"", "plain", "<a&b>", "tab\there", " ", "\xff\xfe", "é日本"}
	sch := types.NewSchema(
		types.Column{Name: "i", Type: types.Int}, types.Column{Name: "x", Type: types.Float},
		types.Column{Name: "b", Type: types.Bool}, types.Column{Name: "s", Type: types.String})
	for round := 0; round < 50; round++ {
		n := 1 + rng.Intn(300)
		b := types.NewBatch(sch)
		for i := 0; i < n; i++ {
			x := floats[rng.Intn(len(floats))]
			if rng.Intn(2) == 0 {
				x = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			}
			b.AppendRow(ints[rng.Intn(len(ints))]+rng.Int63n(3), x, rng.Intn(2) == 0, strs[rng.Intn(len(strs))])
		}
		for c, v := range b.Vecs {
			for i := 0; i < n; i++ {
				if rng.Intn(5) == 0 {
					v.SetNull(i)
				}
			}
			if rng.Intn(4) == 0 { // broadcast row 0, NULL bit included
				b.Vecs[c] = v.Slice(0, 1)
				b.Vecs[c].MarkConst(n)
			}
		}
		var got, want bytes.Buffer
		gc := &conn{w: bufio.NewWriter(&got)}
		wc := &conn{w: bufio.NewWriter(&want)}
		if !gc.writeRows(b) {
			t.Fatal("writeRows failed")
		}
		for i := 0; i < n; i++ {
			wc.writeDataRow(b.Row(i))
		}
		gc.w.Flush()
		wc.w.Flush()
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("round %d: DataRow bytes differ from writeDataRow's\n got %q\nwant %q", round, got.Bytes(), want.Bytes())
		}
	}
}

// rawTexts runs one simple query and returns each DataRow's values as
// sent, text or "NULL" — below the client's decoding, which would read
// +Inf and Infinity alike.
func rawTexts(t *testing.T, c *Client, q string) [][]string {
	t.Helper()
	c.buf.start(msgQuery)
	c.buf.cstring(q)
	c.buf.finish(c.w)
	var rows [][]string
	for {
		typ, payload, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		switch typ {
		case msgErrorResponse:
			t.Fatal(parsePgError(payload))
		case msgReadyForQuery:
			return rows
		case msgDataRow:
			m := &msgReader{b: payload}
			n, _ := m.int16()
			row := make([]string, n)
			for i := range row {
				ln, _ := m.int32()
				if ln < 0 {
					row[i] = "NULL"
					continue
				}
				v, _ := m.bytes(ln)
				row[i] = string(v)
			}
			rows = append(rows, row)
		}
	}
}

// TestNonFiniteFloatText: NaN and ±Inf go out as postgres' float8 text,
// NaN / Infinity / -Infinity; strconv's 'g' would write +Inf and -Inf.
func TestNonFiniteFloatText(t *testing.T) {
	db, _, addr := newTestServer(t, nil)
	if err := db.ExecContext(context.Background(), `CREATE TABLE t (id INT PRIMARY KEY, x FLOAT);
		INSERT INTO t VALUES (1, 0.0), (2, 4.0)`); err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr, DialOptions{})
	got := rawTexts(t, c, `SELECT t.id, t.x / t.x AS y, 1.0 / t.x AS p, -1.0 / t.x AS m FROM t`)
	want := [][]string{{"1", "NaN", "Infinity", "-Infinity"}, {"2", "1", "0.25", "-0.25"}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows %q, want %q", got, want)
	}
}

// TestMultiBatchResultArrivesWhole: a 60,000-row result, produced by two
// workers over many engine batches (the table is past the 50K-row
// parallel threshold), arrives complete over HTTP, the simple protocol
// and the extended protocol, with the row count the stream reports.
func TestMultiBatchResultArrivesWhole(t *testing.T) {
	const n = 60000
	db, _, addr := newTestServer(t, nil)
	b := types.NewBatch(types.NewSchema(types.Column{Name: "k", Type: types.Int}, types.Column{Name: "v", Type: types.Float}))
	for i := 0; i < n; i++ {
		b.AppendRow(int64(i), float64(i)/7)
	}
	tb := storage.NewTable("big", b.Schema)
	if err := tb.AppendBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := db.Catalog().AddTable(tb); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT k, v FROM big`
	check := func(front string, rows [][]any) {
		t.Helper()
		if len(rows) != n {
			t.Fatalf("%s: %d rows, want %d", front, len(rows), n)
		}
		keys := make([]int, 0, n)
		for _, r := range rows {
			k, v := r[0], r[1]
			if f, ok := k.(float64); ok { // HTTP rows are JSON numbers
				k = int64(f)
			}
			if v != float64(k.(int64))/7 {
				t.Fatalf("%s: row %v", front, r)
			}
			keys = append(keys, int(k.(int64)))
		}
		sort.Ints(keys)
		for i, k := range keys {
			if k != i {
				t.Fatalf("%s: key %d missing or repeated", front, i)
			}
		}
	}

	srv := server.New(db, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-served
	})
	hc := &server.Client{Base: "http://" + ln.Addr().String()}
	// Client.Query fails unless the trailer's rows equal the lines read.
	res, err := hc.QueryContext(context.Background(), server.QueryRequest{SQL: q, Options: &server.QueryOptions{Parallelism: 2}})
	if err != nil {
		t.Fatal(err)
	}
	check("http", res.Rows)

	c := dial(t, addr, DialOptions{Options: "-c raven.dop=2"})
	simple, err := c.SimpleQuery(q)
	if err != nil || len(simple) != 1 {
		t.Fatalf("simple: %v, %d results", err, len(simple))
	}
	ext, err := c.QueryExtended(q)
	if err != nil {
		t.Fatalf("extended: %v", err)
	}
	for front, r := range map[string]*ClientResult{"pg simple": simple[0], "pg extended": ext} {
		if r.Tag != "SELECT "+strconv.Itoa(n) {
			t.Errorf("%s: tag %q", front, r.Tag)
		}
		check(front, r.Rows)
	}
}

// BenchmarkStreamRows is one 2,000-row (INT, FLOAT) simple-protocol
// result over a loopback connection, the frames read and discarded.
func BenchmarkStreamRows(b *testing.B) {
	db, err := raven.Open()
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	s := New(db, nil, Options{})
	go s.Serve(ln)
	defer s.Shutdown(context.Background())
	var ins strings.Builder
	ins.WriteString("CREATE TABLE r (k INT PRIMARY KEY, v FLOAT); INSERT INTO r VALUES ")
	for i := 0; i < 2000; i++ {
		if i > 0 {
			ins.WriteByte(',')
		}
		fmt.Fprintf(&ins, "(%d, %g)", i, float64(i)*1.37+0.001)
	}
	if err := db.ExecContext(context.Background(), ins.String()); err != nil {
		b.Fatal(err)
	}
	c, err := DialClient(context.Background(), ln.Addr().String(), DialOptions{User: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	var hdr [5]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.buf.start(msgQuery)
		c.buf.cstring("SELECT k, v FROM r")
		c.buf.finish(c.w)
		if err := c.w.Flush(); err != nil {
			b.Fatal(err)
		}
		rows := 0
		for hdr[0] != msgReadyForQuery {
			if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
				b.Fatal(err)
			}
			if hdr[0] == msgDataRow {
				rows++
			}
			if _, err := c.r.Discard(int(binary.BigEndian.Uint32(hdr[1:])) - 4); err != nil {
				b.Fatal(err)
			}
		}
		hdr[0] = 0
		if rows != 2000 {
			b.Fatalf("%d rows", rows)
		}
	}
}
