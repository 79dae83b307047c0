package main

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// httpConn is one keep-alive HTTP/1.1 connection to ravenserved or
// ravenrouter, speaking the NDJSON wire protocol. It is the benchmark's
// own client: requests are written by hand and responses parsed with
// the standard library's reader, so the load generator stays cheap and
// can time the first response byte. Not safe for concurrent use — one
// connection is one closed-loop client.
type httpConn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
	req  bytes.Buffer
	body bytes.Buffer

	bytesIn int64         // response bytes read so far
	ttfb    time.Duration // of the last request
}

type countingReader struct {
	r io.Reader
	n *int64
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	*c.n += int64(n)
	return n, err
}

func dialHTTP(addr string) (*httpConn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	h := &httpConn{addr: addr, nc: nc}
	h.br = bufio.NewReaderSize(countingReader{nc, &h.bytesIn}, 64<<10)
	return h, nil
}

func (h *httpConn) close() { h.nc.Close() }

// opTimeout bounds one request; a server that stops answering fails the
// operation instead of hanging the run.
const opTimeout = 30 * time.Second

// do sends one request and returns the status and the whole body. The
// returned slice is valid until the next call.
func (h *httpConn) do(method, path string, body []byte) (int, []byte, error) {
	h.req.Reset()
	fmt.Fprintf(&h.req, "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", method, path, h.addr, len(body))
	h.req.Write(body)
	start := time.Now()
	h.nc.SetDeadline(start.Add(opTimeout))
	if _, err := h.nc.Write(h.req.Bytes()); err != nil {
		return 0, nil, err
	}
	if _, err := h.br.Peek(1); err != nil {
		return 0, nil, err
	}
	h.ttfb = time.Since(start)
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		return 0, nil, err
	}
	h.body.Reset()
	_, err = h.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, h.body.Bytes(), nil
}

// post sends fields as a JSON object and returns the body of a 200
// response; any other status is an error carrying the server's message.
func (h *httpConn) post(path string, fields map[string]string) ([]byte, error) {
	body, _ := json.Marshal(fields)
	status, resp, err := h.do("POST", path, body)
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, status, bytes.TrimSpace(resp))
	}
	return resp, nil
}

// exec runs a side-effect script (DDL/INSERT) through POST /query.
func (h *httpConn) exec(script string) error {
	_, err := h.post("/query", map[string]string{"sql": script})
	return err
}

// storeModel posts a serialized pipeline to POST /model.
func (h *httpConn) storeModel(name string, blob []byte) error {
	_, err := h.post("/model", map[string]string{"name": name, "data": base64.StdEncoding.EncodeToString(blob)})
	return err
}

// prepare registers a statement and returns its server-side id.
func (h *httpConn) prepare(q string) (string, error) {
	resp, err := h.post("/prepare", map[string]string{"sql": q})
	if err != nil {
		return "", err
	}
	var pr struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp, &pr); err != nil || pr.ID == "" {
		return "", fmt.Errorf("prepare: bad response %q", resp)
	}
	return pr.ID, nil
}

// query runs an ad-hoc SELECT through POST /query and fingerprints the rows.
func (h *httpConn) query(q string, fp *fingerprint) error {
	body := strconv.AppendQuote(append(make([]byte, 0, len(q)+16), `{"sql":`...), q)
	body = append(body, '}')
	return h.rows("/query", body, fp)
}

// stmtQuery executes a prepared statement with up to two parameters.
func (h *httpConn) stmtQuery(id string, names [2]string, vals [2]int64, nparams int, fp *fingerprint) error {
	body := append(make([]byte, 0, 64), `{"params":{`...)
	for i := 0; i < nparams; i++ {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, '"')
		body = append(body, names[i]...)
		body = append(body, `":"`...)
		body = strconv.AppendInt(body, vals[i], 10)
		body = append(body, '"')
	}
	body = append(body, "}}"...)
	return h.rows("/stmt/"+id+"/query", body, fp)
}

func (h *httpConn) rows(path string, body []byte, fp *fingerprint) error {
	status, resp, err := h.do("POST", path, body)
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("%s: status %d: %s", path, status, bytes.TrimSpace(resp))
	}
	return parseNDJSON(resp, fp)
}

// parseNDJSON folds a row stream into fp: a header object, one JSON
// array of numbers per row, then a trailer object (or an error object
// if the stream broke mid-way). Rows are parsed by hand; every result
// the benchmark asks for is numeric.
func parseNDJSON(b []byte, fp *fingerprint) error {
	sawTrailer := false
	for len(b) > 0 {
		line := b
		if i := bytes.IndexByte(b, '\n'); i >= 0 {
			line, b = b[:i], b[i+1:]
		} else {
			b = nil
		}
		if len(line) == 0 {
			continue
		}
		switch line[0] {
		case '[':
			if line[len(line)-1] != ']' {
				return fmt.Errorf("ndjson: truncated row %q", line)
			}
			col := 0
			for rest := line[1 : len(line)-1]; len(rest) > 0; col++ {
				field := rest
				if i := bytes.IndexByte(rest, ','); i >= 0 {
					field, rest = rest[:i], rest[i+1:]
				} else {
					rest = nil
				}
				v, err := strconv.ParseFloat(string(field), 64)
				if err != nil {
					return fmt.Errorf("ndjson: non-numeric field %q", field)
				}
				fp.add(col, v)
			}
			fp.endRow()
		case '{':
			if bytes.Contains(line, []byte(`"error"`)) {
				return fmt.Errorf("ndjson: %s", line)
			}
			if bytes.Contains(line, []byte(`"rows"`)) {
				sawTrailer = true
			}
		default:
			return fmt.Errorf("ndjson: unexpected line %q", line)
		}
	}
	if !sawTrailer {
		return fmt.Errorf("ndjson: stream ended without a trailer")
	}
	return nil
}

// getJSON fetches path and decodes the body into a generic tree.
func (h *httpConn) getJSON(path string) (int, map[string]any, error) {
	status, resp, err := h.do("GET", path, nil)
	if err != nil {
		return 0, nil, err
	}
	var out map[string]any
	if err := json.Unmarshal(resp, &out); err != nil {
		return status, nil, fmt.Errorf("GET %s: %w", path, err)
	}
	return status, out, nil
}

// lookupAny walks a path through a decoded JSON tree; ok is false when
// any step is missing.
func lookupAny(tree map[string]any, path ...string) (any, bool) {
	var cur any = tree
	for _, p := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return nil, false
		}
		if cur, ok = m[p]; !ok {
			return nil, false
		}
	}
	return cur, cur != nil
}

// lookup reads the number at path; ok is false when it is missing or
// not a number, which is how a renamed or dropped counter shows up.
func lookup(tree map[string]any, path ...string) (float64, bool) {
	cur, ok := lookupAny(tree, path...)
	if !ok {
		return 0, false
	}
	v, ok := cur.(float64)
	return v, ok
}
