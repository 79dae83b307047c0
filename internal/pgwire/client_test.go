package pgwire

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
)

// Client is a minimal hand-rolled Postgres v3 frontend used by the
// conformance tests: the container has no pg driver, and a raw-frame client is what a conformance suite wants
// anyway (it can send malformed sequences a driver never would). It is
// not a general-purpose driver: text format only, no TLS, single
// goroutine.
type Client struct {
	nc  net.Conn
	r   *bufio.Reader
	w   *bufio.Writer
	buf writeBuf

	addr string
	// BackendPID/BackendSecret are the cancellation identity from
	// BackendKeyData.
	BackendPID    uint32
	BackendSecret uint32
	// Params collects ParameterStatus values from startup.
	Params map[string]string
}

// PgError is an ErrorResponse surfaced as a Go error; Code is the
// SQLSTATE the conformance suite asserts on.
type PgError struct {
	Severity string
	Code     string
	Message  string
}

func (e *PgError) Error() string {
	return fmt.Sprintf("pg: %s %s: %s", e.Severity, e.Code, e.Message)
}

// ClientColumn is one RowDescription field as the client saw it.
type ClientColumn struct {
	Name string
	OID  uint32
}

// ClientResult is one statement's outcome: columns, OID-decoded rows
// and the CommandComplete tag.
type ClientResult struct {
	Cols []ClientColumn
	Rows [][]any
	Tag  string
}

// Fingerprint renders rows exactly like server.StreamResult.Fingerprint
// so byte-equivalence between the pg and HTTP paths is a string
// comparison.
func (r *ClientResult) Fingerprint() string {
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

// DialOptions name the startup parameters a connection is made with.
type DialOptions struct {
	User     string
	Database string
	// Options is the PGOPTIONS-style startup string, e.g.
	// "-c raven.priority=5 -c raven.dop=2".
	Options string
}

// DialClient connects and completes startup (trust auth), returning
// once ReadyForQuery arrives.
func DialClient(ctx context.Context, addr string, o DialOptions) (*Client, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		nc:     nc,
		r:      bufio.NewReader(nc),
		w:      bufio.NewWriter(nc),
		addr:   addr,
		Params: make(map[string]string),
	}
	if dl, ok := ctx.Deadline(); ok {
		nc.SetDeadline(dl)
		defer nc.SetDeadline(time.Time{})
	}
	if err := c.startup(o); err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

func (c *Client) startup(o DialOptions) error {
	// Startup packet: length, version, key/value pairs, terminator.
	b := make([]byte, 4)
	b = binary.BigEndian.AppendUint32(b, protoVersion3)
	put := func(k, v string) {
		if v == "" {
			return
		}
		b = append(b, k...)
		b = append(b, 0)
		b = append(b, v...)
		b = append(b, 0)
	}
	put("user", o.User)
	put("database", o.Database)
	put("options", o.Options)
	b = append(b, 0)
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)))
	if _, err := c.nc.Write(b); err != nil {
		return err
	}
	for {
		typ, payload, err := readMessage(c.r)
		if err != nil {
			return err
		}
		m := &msgReader{b: payload}
		switch typ {
		case msgAuth:
			code, err := m.int32()
			if err != nil {
				return err
			}
			if code != 0 {
				return fmt.Errorf("pgwire client: unexpected auth request %d", code)
			}
		case msgParameterStatus:
			k, _ := m.cstring()
			v, _ := m.cstring()
			c.Params[k] = v
		case msgBackendKeyData:
			c.BackendPID, _ = m.uint32()
			c.BackendSecret, _ = m.uint32()
		case msgErrorResponse:
			return parsePgError(payload)
		case msgReadyForQuery:
			return nil
		}
	}
}

// Close sends Terminate and closes the socket.
func (c *Client) Close() error {
	c.buf.start(msgTerminate)
	c.buf.finish(c.w)
	c.w.Flush()
	return c.nc.Close()
}

// Cancel opens a second connection and fires a CancelRequest at this
// client's backend, postgres-style.
func (c *Client) Cancel(ctx context.Context) error {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	var b []byte
	b = binary.BigEndian.AppendUint32(b, 16)
	b = binary.BigEndian.AppendUint32(b, cancelRequest)
	b = binary.BigEndian.AppendUint32(b, c.BackendPID)
	b = binary.BigEndian.AppendUint32(b, c.BackendSecret)
	_, err = nc.Write(b)
	return err
}

func parsePgError(payload []byte) *PgError {
	m := &msgReader{b: payload}
	e := &PgError{}
	for {
		f, err := m.byte()
		if err != nil || f == 0 {
			return e
		}
		v, err := m.cstring()
		if err != nil {
			return e
		}
		switch f {
		case 'S':
			e.Severity = v
		case 'C':
			e.Code = v
		case 'M':
			e.Message = v
		}
	}
}

// decodeText converts a text-format value by its column OID into the
// same Go type the HTTP JSON path yields, so fingerprints line up.
func decodeText(oid uint32, s string) (any, error) {
	switch oid {
	case oidInt8:
		return strconv.ParseInt(s, 10, 64)
	case oidFloat8:
		return strconv.ParseFloat(s, 64)
	case oidBool:
		switch s {
		case "t":
			return true, nil
		case "f":
			return false, nil
		}
		return nil, fmt.Errorf("pgwire client: bad bool %q", s)
	default:
		return s, nil
	}
}

// ---- raw frame senders (exported for the conformance suite) ----

// SendParse sends Parse(name, query) with no declared parameter types.
func (c *Client) SendParse(name, query string) {
	c.buf.start(msgParse)
	c.buf.cstring(name)
	c.buf.cstring(query)
	c.buf.int16(0)
	c.buf.finish(c.w)
}

// SendBind sends Bind(portal, stmt, text args); a nil arg slot binds
// NULL.
func (c *Client) SendBind(portal, stmt string, args []*string) {
	c.buf.start(msgBind)
	c.buf.cstring(portal)
	c.buf.cstring(stmt)
	c.buf.int16(0) // parameter formats: default text
	c.buf.int16(len(args))
	for _, a := range args {
		if a == nil {
			c.buf.int32(-1)
			continue
		}
		c.buf.int32(len(*a))
		c.buf.bytes([]byte(*a))
	}
	c.buf.int16(0) // result formats: default text
	c.buf.finish(c.w)
}

// SendDescribe sends Describe(kind 'S' or 'P', name).
func (c *Client) SendDescribe(kind byte, name string) {
	c.buf.start(msgDescribe)
	c.buf.byte(kind)
	c.buf.cstring(name)
	c.buf.finish(c.w)
}

// SendExecute sends Execute(portal, rowLimit).
func (c *Client) SendExecute(portal string, rowLimit int) {
	c.buf.start(msgExecute)
	c.buf.cstring(portal)
	c.buf.int32(rowLimit)
	c.buf.finish(c.w)
}

// SendClose sends Close(kind 'S' or 'P', name).
func (c *Client) SendClose(kind byte, name string) {
	c.buf.start(msgClose)
	c.buf.byte(kind)
	c.buf.cstring(name)
	c.buf.finish(c.w)
}

// SendSync sends Sync and flushes.
func (c *Client) SendSync() error {
	c.buf.start(msgSync)
	c.buf.finish(c.w)
	return c.w.Flush()
}

// Recv reads one backend message (for tests asserting exact sequences).
func (c *Client) Recv() (typ byte, payload []byte, err error) {
	if err := c.w.Flush(); err != nil {
		return 0, nil, err
	}
	return readMessage(c.r)
}

// ---- conveniences ----

// SimpleQuery runs one simple-protocol script and collects every
// result set until ReadyForQuery. A server error is returned as
// *PgError (the connection itself stays usable).
func (c *Client) SimpleQuery(script string) ([]*ClientResult, error) {
	c.buf.start(msgQuery)
	c.buf.cstring(script)
	if err := c.buf.finish(c.w); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	var (
		results []*ClientResult
		cur     *ClientResult
		pgErr   *PgError
	)
	for {
		typ, payload, err := readMessage(c.r)
		if err != nil {
			return nil, err
		}
		switch typ {
		case msgRowDescription:
			cur = &ClientResult{}
			if err := cur.readRowDescription(payload); err != nil {
				return nil, err
			}
		case msgDataRow:
			if cur == nil {
				return nil, fmt.Errorf("pgwire client: DataRow before RowDescription")
			}
			if err := cur.readDataRow(payload); err != nil {
				return nil, err
			}
		case msgCommandComplete:
			m := &msgReader{b: payload}
			tag, _ := m.cstring()
			if cur == nil {
				cur = &ClientResult{}
			}
			cur.Tag = tag
			results = append(results, cur)
			cur = nil
		case msgEmptyQueryResp:
			results = append(results, &ClientResult{})
		case msgErrorResponse:
			pgErr = parsePgError(payload)
		case msgReadyForQuery:
			if pgErr != nil {
				return results, pgErr
			}
			return results, nil
		}
	}
}

func (r *ClientResult) readRowDescription(payload []byte) error {
	m := &msgReader{b: payload}
	n, err := m.int16()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		name, err := m.cstring()
		if err != nil {
			return err
		}
		if _, err := m.int32(); err != nil { // table OID
			return err
		}
		if _, err := m.int16(); err != nil { // attr number
			return err
		}
		oid, err := m.uint32()
		if err != nil {
			return err
		}
		if _, err := m.int16(); err != nil { // typlen
			return err
		}
		if _, err := m.int32(); err != nil { // typmod
			return err
		}
		if _, err := m.int16(); err != nil { // format
			return err
		}
		r.Cols = append(r.Cols, ClientColumn{Name: name, OID: oid})
	}
	return nil
}

func (r *ClientResult) readDataRow(payload []byte) error {
	m := &msgReader{b: payload}
	n, err := m.int16()
	if err != nil {
		return err
	}
	row := make([]any, n)
	for i := 0; i < n; i++ {
		ln, err := m.int32()
		if err != nil {
			return err
		}
		if ln == -1 {
			row[i] = nil
			continue
		}
		v, err := m.bytes(ln)
		if err != nil {
			return err
		}
		var oid uint32 = oidText
		if i < len(r.Cols) {
			oid = r.Cols[i].OID
		}
		dv, err := decodeText(oid, string(v))
		if err != nil {
			return err
		}
		row[i] = dv
	}
	r.Rows = append(r.Rows, row)
	return nil
}

// QueryExtended runs one statement through the full extended-protocol
// sequence (Parse/Bind/Describe/Execute/Sync over the unnamed
// statement and portal) with text args, postgres-driver style.
func (c *Client) QueryExtended(query string, args ...string) (*ClientResult, error) {
	c.SendParse("", query)
	ptrs := make([]*string, len(args))
	for i := range args {
		ptrs[i] = &args[i]
	}
	c.SendBind("", "", ptrs)
	c.SendDescribe('P', "")
	c.SendExecute("", 0)
	if err := c.SendSync(); err != nil {
		return nil, err
	}
	res := &ClientResult{}
	var pgErr *PgError
	for {
		typ, payload, err := readMessage(c.r)
		if err != nil {
			return nil, err
		}
		switch typ {
		case msgRowDescription:
			res.Cols = nil
			if err := res.readRowDescription(payload); err != nil {
				return nil, err
			}
		case msgDataRow:
			if err := res.readDataRow(payload); err != nil {
				return nil, err
			}
		case msgCommandComplete:
			m := &msgReader{b: payload}
			res.Tag, _ = m.cstring()
		case msgErrorResponse:
			pgErr = parsePgError(payload)
		case msgReadyForQuery:
			if pgErr != nil {
				return nil, pgErr
			}
			return res, nil
		}
	}
}
