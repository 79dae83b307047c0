package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"raven/internal/server/reqopt"
)

// Client is a minimal Go client for the wire protocol, shared by the
// cluster router's probe/replication paths and the integration tests.
// It is what a driver library for the server would look like. Every method has a
// Context variant; the plain forms use context.Background bounded by
// Timeout.
type Client struct {
	Base string // e.g. "http://127.0.0.1:8080"
	HTTP *http.Client
	// Timeout bounds each request issued by the non-Context methods
	// (and Context methods whose ctx has no deadline). 0 = unbounded.
	Timeout time.Duration
}

// reqCtx derives the per-request context: the caller's ctx, bounded by
// the client Timeout when the ctx carries no deadline of its own.
func (c *Client) reqCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, has := ctx.Deadline(); !has && c.Timeout > 0 {
		return context.WithTimeout(ctx, c.Timeout)
	}
	return context.WithCancel(ctx)
}

// HTTPError is a non-2xx response, carrying the status code so callers
// can distinguish rejection (429) from timeout (504) from drain (503).
type HTTPError struct {
	Status int
	Msg    string
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("http %d: %s", e.Status, e.Msg)
}

// StreamResult is one fully-read NDJSON query response.
type StreamResult struct {
	Columns []string
	Types   []string
	Rows    [][]any
	Trailer Trailer
	// OK is set instead of rows for side-effect-only scripts.
	OK bool
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// postJSON posts body as JSON to path, with hdr's request-option headers
// (reqopt.Headers; hdr may be nil).
func (c *Client) postJSON(ctx context.Context, path string, body any, hdr http.Header) (*http.Response, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	reqopt.CopyHeaders(req.Header, hdr)
	return c.httpClient().Do(req)
}

func readError(resp *http.Response) error {
	var e ErrorLine
	dec := json.NewDecoder(resp.Body)
	if err := dec.Decode(&e); err != nil || e.Error == "" {
		e.Error = resp.Status
	}
	return &HTTPError{Status: resp.StatusCode, Msg: e.Error}
}

// Query posts to /query and reads the whole stream.
func (c *Client) Query(req QueryRequest) (*StreamResult, error) {
	return c.QueryContext(context.Background(), req)
}

// QueryContext is Query under a context.
func (c *Client) QueryContext(ctx context.Context, req QueryRequest) (*StreamResult, error) {
	ctx, cancel := c.reqCtx(ctx)
	defer cancel()
	resp, err := c.postJSON(ctx, "/query", req, nil)
	if err != nil {
		return nil, err
	}
	return readStream(resp)
}

// Exec runs a side-effect-only script (DDL/INSERT, no SELECT) through
// /query, failing if the server streamed rows instead of acknowledging.
func (c *Client) Exec(sql string) error {
	return c.ExecContext(context.Background(), sql)
}

// ExecContext is Exec under a context.
func (c *Client) ExecContext(ctx context.Context, sql string) error {
	res, err := c.QueryContext(ctx, QueryRequest{SQL: sql})
	if err != nil {
		return err
	}
	if !res.OK {
		return fmt.Errorf("exec: script streamed %d rows instead of acknowledging (does it contain a SELECT?)", len(res.Rows))
	}
	return nil
}

// StoreModel stores a serialized pipeline (ml.Marshal bytes) via POST
// /model — the replication path for models.
func (c *Client) StoreModel(ctx context.Context, req ModelRequest) error {
	ctx, cancel := c.reqCtx(ctx)
	defer cancel()
	resp, err := c.postJSON(ctx, "/model", req, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return readError(resp)
	}
	return nil
}

// Prepare posts to /prepare.
func (c *Client) Prepare(req QueryRequest) (*PrepareResponse, error) {
	return c.PrepareContext(context.Background(), req, nil)
}

// PrepareContext is Prepare under a context, sending hdr's
// request-option headers (a proxy forwarding its client's tags).
func (c *Client) PrepareContext(ctx context.Context, req QueryRequest, hdr http.Header) (*PrepareResponse, error) {
	ctx, cancel := c.reqCtx(ctx)
	defer cancel()
	resp, err := c.postJSON(ctx, "/prepare", req, hdr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, readError(resp)
	}
	var pr PrepareResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return nil, err
	}
	return &pr, nil
}

// StmtQuery executes a prepared statement by id.
func (c *Client) StmtQuery(id string, req QueryRequest) (*StreamResult, error) {
	return c.StmtQueryContext(context.Background(), id, req)
}

// StmtQueryContext is StmtQuery under a context.
func (c *Client) StmtQueryContext(ctx context.Context, id string, req QueryRequest) (*StreamResult, error) {
	ctx, cancel := c.reqCtx(ctx)
	defer cancel()
	resp, err := c.postJSON(ctx, "/stmt/"+id+"/query", req, nil)
	if err != nil {
		return nil, err
	}
	return readStream(resp)
}

// CloseStmt deletes a prepared statement.
func (c *Client) CloseStmt(id string) error {
	return c.CloseStmtContext(context.Background(), id)
}

// CloseStmtContext is CloseStmt under a context.
func (c *Client) CloseStmtContext(ctx context.Context, id string) error {
	ctx, cancel := c.reqCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.Base+"/stmt/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return readError(resp)
	}
	return nil
}

// Stats fetches /stats.
func (c *Client) Stats() (*StatsResponse, error) {
	return c.StatsContext(context.Background())
}

// StatsContext is Stats under a context.
func (c *Client) StatsContext(ctx context.Context) (*StatsResponse, error) {
	ctx, cancel := c.reqCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, readError(resp)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Healthz fetches /healthz, returning the reported status string.
func (c *Client) Healthz() (string, error) {
	h, err := c.Health(context.Background())
	if h == nil {
		return "", err
	}
	return h.Status, err
}

// Health fetches /healthz as the full Health probe: status plus the
// catalog version and scheduler load the cluster reconciler reads every
// probe interval. On 503 the parsed Health is returned alongside the
// HTTPError, so a draining replica's probe still carries its signals.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	ctx, cancel := c.reqCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return &h, &HTTPError{Status: resp.StatusCode, Msg: h.Status}
	}
	return &h, nil
}

// CatalogVersion reads the replica's catalog version from its health
// probe (draining replicas still report one).
func (c *Client) CatalogVersion(ctx context.Context) (uint64, error) {
	h, err := c.Health(ctx)
	if h != nil {
		return h.CatalogVersion, nil
	}
	return 0, err
}

// readStream parses an NDJSON query response (or the unary ExecResponse
// / error forms) into a StreamResult.
func readStream(resp *http.Response) (*StreamResult, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, readError(resp)
	}
	res := &StreamResult{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	first := true
	sawTrailer := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if line[0] == '[' {
			var row []any
			if err := json.Unmarshal(line, &row); err != nil {
				return nil, fmt.Errorf("bad row line: %w", err)
			}
			res.Rows = append(res.Rows, row)
			continue
		}
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("bad stream line %q: %w", line, err)
		}
		switch {
		case probe["error"] != nil:
			var e ErrorLine
			json.Unmarshal(line, &e)
			return nil, &HTTPError{Status: resp.StatusCode, Msg: e.Error}
		case first && probe["columns"] != nil:
			var hdr struct {
				Columns []string `json:"columns"`
				Types   []string `json:"types"`
			}
			if err := json.Unmarshal(line, &hdr); err != nil {
				return nil, err
			}
			res.Columns, res.Types = hdr.Columns, hdr.Types
		case probe["ok"] != nil:
			res.OK = true
		case probe["rows"] != nil:
			if err := json.Unmarshal(line, &res.Trailer); err != nil {
				return nil, err
			}
			sawTrailer = true
		default:
			return nil, fmt.Errorf("unexpected stream line %q", line)
		}
		first = false
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawTrailer && !res.OK {
		return nil, fmt.Errorf("stream ended without trailer")
	}
	if sawTrailer && res.Trailer.Rows != len(res.Rows) {
		return nil, fmt.Errorf("trailer says %d rows, stream carried %d", res.Trailer.Rows, len(res.Rows))
	}
	return res, nil
}

// Fingerprint renders the rows deterministically for byte-identical
// comparisons across serial and concurrent executions.
func (r *StreamResult) Fingerprint() string {
	var sb strings.Builder
	for _, row := range r.Rows {
		for j, v := range row {
			if j > 0 {
				sb.WriteByte('\t')
			}
			fmt.Fprintf(&sb, "%v", v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
