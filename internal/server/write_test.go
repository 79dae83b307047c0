package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"raven"
	"raven/internal/server/reqopt"
)

// countingListener counts the Write calls made on the conns it accepts.
// On a TCP conn one Write is one write syscall.
type countingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, &l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// serveCounting serves h on a loopback countingListener until the test
// ends.
func serveCounting(t testing.TB, h http.Handler) *countingListener {
	t.Helper()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &countingListener{Listener: inner}
	hs := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(l) }()
	t.Cleanup(func() {
		hs.Close()
		<-done
	})
	return l
}

// rawConn is one keep-alive connection with requests written by hand and
// responses parsed by http.ReadResponse, as the serve benchmark's client
// does: a response that is neither sized, chunked nor closed stalls it
// until the deadline.
type rawConn struct {
	nc  net.Conn
	br  *bufio.Reader
	req bytes.Buffer
}

func dialRaw(t testing.TB, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{nc: nc, br: bufio.NewReader(nc)}
}

// do POSTs body to path with the given header name/value pairs and
// returns the response with its whole body.
func (c *rawConn) do(path, body string, hdr ...string) (*http.Response, []byte, error) {
	c.req.Reset()
	fmt.Fprintf(&c.req, "POST %s HTTP/1.1\r\nHost: raven\r\nContent-Type: application/json\r\nContent-Length: %d\r\n", path, len(body))
	for i := 0; i+1 < len(hdr); i += 2 {
		fmt.Fprintf(&c.req, "%s: %s\r\n", hdr[i], hdr[i+1])
	}
	c.req.WriteString("\r\n")
	c.req.WriteString(body)
	c.nc.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.nc.Write(c.req.Bytes()); err != nil {
		return nil, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return nil, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, b, err
}

// cancelAfterFirstRow cancels the context of a request carrying
// X-Test-Cancel once the handler writes its first row line, so the
// query fails between batches, after its status line is committed.
func cancelAfterFirstRow(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Test-Cancel") == "" {
			h.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		h.ServeHTTP(cancelWriter{w, cancel}, r.WithContext(ctx))
	})
}

type cancelWriter struct {
	http.ResponseWriter
	cancel context.CancelFunc
}

func (c cancelWriter) Write(p []byte) (int, error) {
	if len(p) > 0 && p[0] == '[' {
		c.cancel()
	}
	return c.ResponseWriter.Write(p)
}

// TestSmallResultIsOneWrite: a one-batch answer (a prepared cache hit,
// a one-row ad-hoc SELECT, an error) leaves the server in one write,
// sized; a multi-batch result still arrives whole in several, and a
// query failing mid-stream still ends in an error line. Every response
// on the keep-alive connection delimits itself.
func TestSmallResultIsOneWrite(t *testing.T) {
	const tableRows = 5000 // more than one 4,096-row batch
	db := raven.MustOpen(raven.WithResultCache(1 << 20))
	l := serveCounting(t, cancelAfterFirstRow(New(db, Options{}).Handler()))
	rc := dialRaw(t, l.Addr().String())

	// exchange sends one request and returns the response, its body and
	// the server writes it took, failing unless the body is as long as a
	// Content-Length header says.
	exchange := func(path, body string, hdr ...string) (*http.Response, []byte, int64) {
		t.Helper()
		before := l.writes.Load()
		resp, b, err := rc.do(path, body, hdr...)
		if err != nil {
			t.Fatalf("%s %s: %v", path, body, err)
		}
		if resp.ContentLength >= 0 && resp.ContentLength != int64(len(b)) {
			t.Fatalf("%s %s: Content-Length %d, body %d bytes", path, body, resp.ContentLength, len(b))
		}
		return resp, b, l.writes.Load() - before
	}
	// lines splits an NDJSON body, failing unless the status is 200 and
	// the stream ends in a trailer of want rows.
	lines := func(resp *http.Response, b []byte, want int) {
		t.Helper()
		ls := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
		var tr Trailer
		if resp.StatusCode != http.StatusOK || len(ls) != want+2 || json.Unmarshal([]byte(ls[len(ls)-1]), &tr) != nil || tr.Rows != want {
			t.Fatalf("status %d, %d lines ending %q; want %d rows and a trailer", resp.StatusCode, len(ls), ls[len(ls)-1], want)
		}
	}

	var ins strings.Builder
	ins.WriteString("CREATE TABLE r (k INT PRIMARY KEY, v FLOAT); INSERT INTO r VALUES ")
	for i := 0; i < tableRows; i++ {
		if i > 0 {
			ins.WriteByte(',')
		}
		fmt.Fprintf(&ins, "(%d, %g)", i, float64(i)*1.37+0.001)
	}
	if resp, b, _ := exchange("/query", fmt.Sprintf(`{"sql":%q}`, ins.String())); resp.StatusCode != http.StatusOK {
		t.Fatalf("load: %d %s", resp.StatusCode, b)
	}
	resp, b, _ := exchange("/prepare", `{"sql":"SELECT k, v FROM r WHERE k = @k"}`)
	var pr PrepareResponse
	if err := json.Unmarshal(b, &pr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("prepare: %d %s", resp.StatusCode, b)
	}
	point := "/stmt/" + pr.ID + "/query"

	oneWrite := func(what string, status int, path, body string) []byte {
		t.Helper()
		resp, b, writes := exchange(path, body)
		if resp.StatusCode != status || writes != 1 || resp.ContentLength != int64(len(b)) {
			t.Fatalf("%s: status %d in %d writes, Content-Length %d of %d bytes; want %d in 1 write, sized",
				what, resp.StatusCode, writes, resp.ContentLength, len(b), status)
		}
		return b
	}
	// The trailer's timings differ between a miss and its hit; the
	// header and the row must not.
	untimed := func(b []byte) []byte { return b[:bytes.LastIndexByte(b[:len(b)-1], '\n')+1] }
	miss := oneWrite("prepared miss", http.StatusOK, point, `{"params":{"k":"7"}}`)
	hits := db.Stats().ResultCache.Hits
	if hit := oneWrite("prepared hit", http.StatusOK, point, `{"params":{"k":"7"}}`); !bytes.Equal(untimed(hit), untimed(miss)) {
		t.Fatalf("hit %q, miss %q", hit, miss)
	}
	if db.Stats().ResultCache.Hits != hits+1 {
		t.Fatal("the second execution was not a result-cache hit")
	}
	oneWrite("ad-hoc one row", http.StatusOK, "/query", `{"sql":"SELECT k, v FROM r WHERE k = 3"}`)
	oneWrite("unknown statement", http.StatusNotFound, "/stmt/nope/query", `{}`)

	resp, b, writes := exchange("/query", `{"sql":"SELECT k, v FROM r"}`, reqopt.HeaderNoCache, "1")
	lines(resp, b, tableRows)
	if writes < 2 {
		t.Fatalf("%d-row result in %d write", tableRows, writes)
	}

	resp, b, _ = exchange("/query", `{"sql":"SELECT k, v FROM r"}`,
		reqopt.HeaderDOP, "1", reqopt.HeaderNoCache, "1", "X-Test-Cancel", "1")
	ls := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	var el ErrorLine
	if resp.StatusCode != http.StatusOK || len(ls) < 3 || json.Unmarshal([]byte(ls[len(ls)-1]), &el) != nil || el.Error == "" {
		t.Fatalf("mid-stream failure: status %d, %d lines ending %q; want rows then an error line", resp.StatusCode, len(ls), ls[len(ls)-1])
	}

	// Two hundred mixed answers back to back on the one connection.
	for i := 0; i < 200; i++ {
		switch i % 4 {
		case 0:
			oneWrite("prepared point", http.StatusOK, point, fmt.Sprintf(`{"params":{"k":"%d"}}`, i%10))
		case 1:
			resp, b, _ := exchange("/query", `{"sql":"SELECT k, v FROM r WHERE k < 2000"}`)
			lines(resp, b, 2000)
		case 2:
			oneWrite("unknown statement", http.StatusNotFound, "/stmt/nope/query", `{}`)
		case 3:
			oneWrite("bad SQL", http.StatusBadRequest, "/query", `{"sql":"SELECT FROM FROM"}`)
		}
	}
}

// BenchmarkHotPointHTTP is the serve workload's hot_point shape in
// process: a prepared one-row point PREDICT answered from the result
// cache, over one raw keep-alive loopback connection. Beside the time
// it reports the server's write calls per request.
func BenchmarkHotPointHTTP(b *testing.B) {
	db := hospitalDB(b, 2000, 4, raven.WithResultCache(1<<20))
	l := serveCounting(b, New(db, Options{}).Handler())
	rc := dialRaw(b, l.Addr().String())
	point := strings.Replace(testPredict, "d.age > 40", "d.id = @id", 1)
	resp, body, err := rc.do("/prepare", fmt.Sprintf(`{"sql":%q}`, point))
	var pr PrepareResponse
	if err != nil || resp.StatusCode != http.StatusOK || json.Unmarshal(body, &pr) != nil {
		b.Fatalf("prepare: %v %s", err, body)
	}
	path, params := "/stmt/"+pr.ID+"/query", `{"params":{"id":"7"}}`
	if _, _, err := rc.do(path, params); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	w0 := l.writes.Load()
	for i := 0; i < b.N; i++ {
		resp, body, err := rc.do(path, params)
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("%v %s", err, body)
		}
	}
	b.ReportMetric(float64(l.writes.Load()-w0)/float64(b.N), "writes/op")
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/op")
}
